//! `obs_smoke` — end-to-end exercise of the per-lock counter export.
//!
//! Runs a short hostile HashMap workload over the boxed strategy fleet
//! (so aborts of several flavors actually occur) and writes each
//! entry's measured `StatsSnapshot` to `results/obs.jsonl`, one line
//! per lock with the fleet index as its id. `obs_check` then reads the
//! file back in CI. Any build can run it: the counters are always on.

use std::fmt::Write as _;
use std::path::Path;

use solero_testkit::rng::TestRng;
use solero_workloads::driver::{measure, RunConfig};
use solero_workloads::maps::{MapBench, MapConfig, MapKind};

fn main() {
    // A write-heavy, contended configuration so speculative readers
    // abort for real reasons: 4 threads, one shared map, 20% writes.
    let cfg = RunConfig {
        threads: 4,
        warmup: std::time::Duration::from_millis(10),
        window: std::time::Duration::from_millis(50),
        windows: 2,
        runs: 1,
    };
    let mut export = String::new();
    for (id, make) in solero_bench::figures::fleet().into_iter().enumerate() {
        let b = MapBench::new_boxed(MapConfig::paper(MapKind::Hash, 20, 1), make);
        let m = measure(&cfg, |t, rng: &mut TestRng| b.op(t, rng), || b.snapshot());
        println!(
            "{:>18}: {:>10.0} ops/s  {:>8} read aborts",
            b.name(),
            m.ops_per_sec,
            m.stats.read_aborts
        );
        if m.stats.total_sections() == 0 {
            eprintln!("obs_smoke: {} counted no sections", b.name());
            std::process::exit(1);
        }
        let _ = writeln!(export, "{}", m.stats.to_jsonl(id as u64, b.name()));
    }

    let path = Path::new("results/obs.jsonl");
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, &export));
    if let Err(e) = written {
        eprintln!("obs_smoke: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "wrote {} lock lines to {}",
        export.lines().count(),
        path.display()
    );
}
