//! The checked-in `BENCH_*.json` documents are assembled by hand in
//! their bins (`JsonObject` has no nested values), so nothing but this
//! test keeps them parseable: each must read back through
//! `solero_obs::json::parse` as a JSON object naming its workload.

use std::path::Path;

use solero_obs::json::{parse, Value};

const DOCUMENTS: [&str; 5] = [
    "BENCH_adaptive.json",
    "BENCH_bravo.json",
    "BENCH_compact.json",
    "BENCH_seqlock.json",
    "BENCH_store.json",
];

#[test]
fn checked_in_bench_documents_parse() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for name in DOCUMENTS {
        let text =
            std::fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let workload = doc
            .as_obj()
            .and_then(|o| o.get("workload"))
            .and_then(Value::as_str);
        assert!(workload.is_some(), "{name}: no \"workload\" string");
    }
}
