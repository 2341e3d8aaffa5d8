//! Every checked-in `BENCH_*.json` record must read back through
//! `solero_bench::record`, the one reader of the format: host named,
//! every counter of every cell present, nothing else. Each must also be
//! exactly what the writer emits, so no record is edited by hand, and
//! come from a full release run. The paper's record must hold every
//! cell each of its targets renders from.

use std::path::Path;

use solero_bench::figures::{self, HarnessConfig};
use solero_bench::record::Record;

const RECORDS: [(&str, &str); 6] = [
    ("BENCH_adaptive.json", "bursty"),
    ("BENCH_bravo.json", "read-storm"),
    ("BENCH_compact.json", "compact-monitor-footprint"),
    ("BENCH_paper.json", "paper-evaluation"),
    ("BENCH_seqlock.json", "seqlock-inline-and-fallback-storm"),
    ("BENCH_store.json", "store-open-loop-zipfian"),
];

fn read(name: &str) -> (String, Record) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let rec = Record::decode(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    (text, rec)
}

#[test]
fn checked_in_records_decode() {
    for (name, workload) in RECORDS {
        let (text, rec) = read(name);
        assert_eq!(rec.workload, workload, "{name}");
        assert_eq!(rec.encode(), text, "{name}: not as the writer emits it");
        assert!(!rec.host.quick, "{name}: checked in from a --quick run");
        assert_eq!(rec.host.profile, "release", "{name}");
        assert!(!rec.cells.is_empty(), "{name}: no cells");
    }
}

#[test]
fn paper_record_renders_every_target() {
    let (_, rec) = read("BENCH_paper.json");
    let h = HarnessConfig {
        quick: rec.host.quick,
    };
    for target in figures::targets() {
        let tables = figures::render(target, &h, &rec.cells)
            .unwrap_or_else(|e| panic!("BENCH_paper.json: {target}: {e}"));
        assert!(tables.iter().all(|t| !t.is_empty()), "{target}");
    }
}
