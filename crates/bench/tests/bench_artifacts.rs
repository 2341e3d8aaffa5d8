//! Every checked-in `BENCH_*.json` record must read back through
//! `solero_bench::record`, the one reader of the format: host named,
//! every counter of every cell present, nothing else. Each must also be
//! exactly what the writer emits, so no record is edited by hand, and
//! come from a full release run.

use std::path::Path;

use solero_bench::record::Record;

const RECORDS: [(&str, &str); 5] = [
    ("BENCH_adaptive.json", "bursty"),
    ("BENCH_bravo.json", "read-storm"),
    ("BENCH_compact.json", "compact-monitor-footprint"),
    ("BENCH_seqlock.json", "seqlock-inline-and-fallback-storm"),
    ("BENCH_store.json", "store-open-loop-zipfian"),
];

#[test]
fn checked_in_records_decode() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (name, workload) in RECORDS {
        let text =
            std::fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rec = Record::decode(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(rec.workload, workload, "{name}");
        assert_eq!(rec.encode(), text, "{name}: not as the writer emits it");
        assert!(!rec.host.quick, "{name}: checked in from a --quick run");
        assert_eq!(rec.host.profile, "release", "{name}");
        assert!(!rec.cells.is_empty(), "{name}: no cells");
    }
}
