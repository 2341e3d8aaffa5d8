//! `reproduce` — regenerate the paper's tables and figures as one
//! record.
//!
//! ```text
//! reproduce [--quick] [--out PATH] [table1|fig10|...|fig16|ablations|latency|all]...
//! ```
//!
//! Measures every cell the named targets need, each once (no target, or
//! `all`, names every one), prints each target's tables from those
//! cells, and writes them through `solero_bench::record` to
//! `BENCH_paper.json` unless `--out` says otherwise.

use solero_bench::figures::{self, HarnessConfig};
use solero_bench::record::Args;

fn main() {
    let names: Vec<&str> = figures::targets().chain(["all"]).collect();
    let args = Args::parse("BENCH_paper.json", None, &names);
    let targets: Vec<&str> = if args.names.is_empty() || args.names.iter().any(|n| n == "all") {
        figures::targets().collect()
    } else {
        args.names.iter().map(String::as_str).collect()
    };
    let h = HarnessConfig { quick: args.quick };
    let rec = figures::record(&targets, &h);
    for name in &targets {
        let tables = figures::render(name, &h, &rec.cells)
            .unwrap_or_else(|e| panic!("{name} does not render from its own cells: {e}"));
        for t in tables {
            print!("{}", t.render());
        }
    }
    rec.save(&args.out);
}
