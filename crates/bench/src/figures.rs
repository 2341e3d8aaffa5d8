//! Generators for every table and figure of the paper's evaluation.
//!
//! Each `figXX` function runs the corresponding experiment and returns
//! one or more [`Table`]s; the `reproduce` binary prints them and drops
//! CSVs under `results/`. Table/figure numbering follows the paper:
//!
//! * Table 1 — lock statistics (frequency, read-only ratio);
//! * Figure 10 — Empty-block lock overhead, incl. `Unelided-SOLERO` and
//!   `WeakBarrier-SOLERO`;
//! * Figure 11 — single-thread HashMap/TreeMap/SPECjbb;
//! * Figure 12 — multi-thread HashMap (0%, 5%, 5% fine-grained);
//! * Figure 13 — multi-thread TreeMap (0%, 5%);
//! * Figure 14 — multi-thread SPECjbb;
//! * Figure 15 — speculative-failure ratios;
//! * Figure 16 — DaCapo profiles, Lock vs SOLERO.

use solero_testkit::rng::TestRng;
use solero::{
    BoxedStrategy, BravoStrategy, JavaRwLock, LockStrategy, RwStrategy, SeqStrategy, SoleroConfig,
    SoleroStrategy, SyncStrategy,
};
use solero_workloads::dacapo::{DacapoBench, DACAPO_PROFILES};
use solero_workloads::driver::{measure, Measurement, RunConfig};
use solero_workloads::empty::EmptyBench;
use solero_workloads::jbb::JbbBench;
use solero_workloads::maps::{MapBench, MapConfig, MapKind};
use solero_workloads::table1;

use crate::report::{f3, pct, Table};

/// Harness-wide knobs.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Use the abbreviated protocol (fewer/shorter windows, fewer
    /// thread counts).
    pub quick: bool,
}

impl HarnessConfig {
    fn run(&self, threads: usize) -> RunConfig {
        if self.quick {
            RunConfig::quick(threads)
        } else {
            RunConfig::paper(threads)
        }
    }

    /// The thread counts swept by the multi-thread figures (the paper
    /// uses 1–16 on a 16-way machine).
    pub fn thread_counts(&self) -> Vec<usize> {
        if self.quick {
            vec![1, 2, 4, 8]
        } else {
            vec![1, 2, 4, 8, 16]
        }
    }
}

/// The strategy fleet the comparative figures iterate — one growable
/// registry of factories for fresh boxed strategies, so adding a
/// contender here grows every sweep table, header and CSV with it; each
/// contender's name is its strategy's `name()`. `Lock` must stay first:
/// the sweeps normalize their throughput to it.
pub fn fleet() -> Vec<fn() -> BoxedStrategy> {
    vec![
        || Box::new(LockStrategy::new()),
        || Box::new(RwStrategy::<JavaRwLock>::new()),
        || Box::new(BravoStrategy::new()),
        || Box::new(SoleroStrategy::new()),
        || {
            Box::new(SoleroStrategy::configured(
                SoleroConfig::builder().adaptive(true).build(),
            ))
        },
        // The inline seqlock guards ambient workload data through its
        // sequence word here (the closure sections); the typed inline
        // payload fast path is measured separately by `bench_seqlock`.
        || Box::new(SeqStrategy::new(0u64)),
    ]
}

/// Sweep-table headers: the lead column followed by the fleet names,
/// so tables grow with [`fleet`] instead of hardcoding it.
fn fleet_header(lead: &'static str) -> Vec<&'static str> {
    let mut h = vec![lead];
    h.extend(fleet().iter().map(|make| make().name()));
    h
}

fn measure_map(
    cfg: &RunConfig,
    map_cfg: MapConfig,
    make: impl Fn() -> BoxedStrategy,
) -> Measurement {
    let b = MapBench::new_boxed(map_cfg, make);
    measure(cfg, |t, rng: &mut TestRng| b.op(t, rng), || b.snapshot())
}

fn measure_jbb(cfg: &RunConfig, make: impl Fn() -> BoxedStrategy) -> Measurement {
    let b = JbbBench::new_boxed(cfg.threads, make);
    measure(cfg, |t, rng| b.op(t, rng), || b.snapshot())
}

/// `EmptyBench` deliberately stays generic (monomorphized): the Figure
/// 10 probe measures pure lock overhead, where a virtual call would be
/// a measurable artifact.
fn measure_empty<S: SyncStrategy>(cfg: &RunConfig, strat: S) -> Measurement {
    let b = EmptyBench::new(strat);
    measure(cfg, |_, _| b.op(), || b.snapshot())
}

/// Table 1 — lock statistics of each benchmark.
pub fn table1(h: &HarnessConfig) -> Table {
    let rows = table1::collect(&h.run(1));
    let mut t = Table::new(
        "Table 1: lock statistics",
        &["Benchmark", "Mlocks/s", "read-only %"],
    );
    for r in rows {
        t.row(vec![
            r.benchmark,
            f3(r.mlocks_per_sec),
            format!("{:.1}", r.read_only_pct),
        ]);
    }
    t
}

/// Figure 10 — Empty-block overhead, normalized execution time vs Lock.
pub fn fig10(h: &HarnessConfig) -> Table {
    let cfg = h.run(1);
    let lock = measure_empty(&cfg, LockStrategy::new());
    let entries: Vec<(&str, Measurement)> = vec![
        ("Lock", lock),
        ("RWLock", measure_empty(&cfg, RwStrategy::<JavaRwLock>::new())),
        ("BRAVO-RW", measure_empty(&cfg, BravoStrategy::new())),
        ("SOLERO", measure_empty(&cfg, SoleroStrategy::new())),
        (
            "Unelided-SOLERO",
            measure_empty(
                &cfg,
                SoleroStrategy::configured(SoleroConfig::builder().unelided(true).build()),
            ),
        ),
        (
            "WeakBarrier-SOLERO",
            measure_empty(
                &cfg,
                SoleroStrategy::configured(SoleroConfig::builder().weak_barrier(true).build()),
            ),
        ),
        (
            "Adaptive-SOLERO",
            measure_empty(
                &cfg,
                SoleroStrategy::configured(SoleroConfig::builder().adaptive(true).build()),
            ),
        ),
    ];
    let base = entries[0].1.ns_per_op();
    let mut t = Table::new(
        "Figure 10: Empty synchronized block (1 thread)",
        &["Implementation", "ns/op", "time vs Lock"],
    );
    for (name, m) in entries {
        t.row(vec![
            name.into(),
            f3(m.ns_per_op()),
            f3(m.ns_per_op() / base),
        ]);
    }
    t
}

/// Figure 11 — single-thread performance relative to Lock (higher is
/// better; the paper plots relative performance %).
pub fn fig11(h: &HarnessConfig) -> Table {
    let cfg = h.run(1);
    let mut t = Table::new(
        "Figure 11: single-thread relative performance (Lock = 100%)",
        &fleet_header("Benchmark"),
    );
    for (kind, label, writes) in [
        (MapKind::Hash, "HashMap", 0u32),
        (MapKind::Hash, "HashMap", 5),
        (MapKind::Tree, "TreeMap", 0),
        (MapKind::Tree, "TreeMap", 5),
    ] {
        let mc = MapConfig::paper(kind, writes, 1);
        let ops: Vec<f64> = fleet()
            .iter()
            .map(|&make| measure_map(&cfg, mc, make).ops_per_sec)
            .collect();
        let mut row = vec![format!("{label} ({writes}% writes)")];
        row.extend(ops.iter().map(|o| f3(o / ops[0] * 100.0)));
        t.row(row);
    }
    // SPECjbb: the paper measures only Lock vs SOLERO here; the other
    // fleet columns stay empty.
    let lock = measure_jbb(&cfg, || Box::new(LockStrategy::new())).ops_per_sec;
    let so = measure_jbb(&cfg, || Box::new(SoleroStrategy::new())).ops_per_sec;
    let mut row = vec!["SPECjbb2005 (mini)".to_string()];
    for name in &fleet_header("Benchmark")[1..] {
        row.push(match *name {
            "Lock" => "100.0".into(),
            "SOLERO" => f3(so / lock * 100.0),
            _ => "-".into(),
        });
    }
    t.row(row);
    t
}

/// Shared sweep: throughput of the [`fleet`] strategies across thread
/// counts, normalized to Lock at 1 thread.
fn sweep_map(h: &HarnessConfig, kind: MapKind, writes: u32, fine: bool, title: &str) -> Table {
    let mut t = Table::new(title, &fleet_header("threads"));
    let mut base = None;
    for &n in &h.thread_counts() {
        let cfg = h.run(n);
        let shards = if fine { n } else { 1 };
        let mc = MapConfig::paper(kind, writes, shards);
        let ops: Vec<f64> = fleet()
            .iter()
            .map(|&make| measure_map(&cfg, mc, make).ops_per_sec)
            .collect();
        let b = *base.get_or_insert(ops[0]);
        let mut row = vec![n.to_string()];
        row.extend(ops.iter().map(|o| f3(o / b)));
        t.row(row);
    }
    t
}

/// Figure 12 — multi-thread HashMap: (a) 0% writes, (b) 5% writes,
/// (c) 5% writes fine-grained.
pub fn fig12(h: &HarnessConfig) -> Vec<Table> {
    vec![
        sweep_map(
            h,
            MapKind::Hash,
            0,
            false,
            "Figure 12(a): HashMap, 0% writes (normalized throughput)",
        ),
        sweep_map(
            h,
            MapKind::Hash,
            5,
            false,
            "Figure 12(b): HashMap, 5% writes (normalized throughput)",
        ),
        sweep_map(
            h,
            MapKind::Hash,
            5,
            true,
            "Figure 12(c): HashMap, 5% writes, fine-grained (one map per thread)",
        ),
    ]
}

/// Figure 13 — multi-thread TreeMap: (a) 0% writes, (b) 5% writes.
pub fn fig13(h: &HarnessConfig) -> Vec<Table> {
    vec![
        sweep_map(
            h,
            MapKind::Tree,
            0,
            false,
            "Figure 13(a): TreeMap, 0% writes (normalized throughput)",
        ),
        sweep_map(
            h,
            MapKind::Tree,
            5,
            false,
            "Figure 13(b): TreeMap, 5% writes (normalized throughput)",
        ),
    ]
}

/// Figure 14 — multi-thread SPECjbb (warehouses = threads).
pub fn fig14(h: &HarnessConfig) -> Table {
    let mut t = Table::new(
        "Figure 14: SPECjbb2005 (mini), normalized throughput",
        &["threads", "Lock", "SOLERO"],
    );
    let mut base = None;
    for &n in &h.thread_counts() {
        let cfg = h.run(n);
        let lock = measure_jbb(&cfg, || Box::new(LockStrategy::new())).ops_per_sec;
        let so = measure_jbb(&cfg, || Box::new(SoleroStrategy::new())).ops_per_sec;
        let b = *base.get_or_insert(lock);
        t.row(vec![n.to_string(), f3(lock / b), f3(so / b)]);
    }
    t
}

/// Figure 15 — SOLERO speculative-failure ratio per thread count, plus
/// the abort-reason breakdown behind each ratio (from the per-reason
/// counters the locks keep).
pub fn fig15(h: &HarnessConfig) -> Vec<Table> {
    let solero: fn() -> BoxedStrategy = || Box::new(SoleroStrategy::new());
    let mut ratios = Table::new(
        "Figure 15: SOLERO speculative-failure ratio",
        &[
            "threads",
            "HashMap 5%",
            "HashMap 5% fine",
            "TreeMap 5%",
            "SPECjbb",
        ],
    );
    let mut reasons = Table::new(
        "Figure 15 (breakdown): read aborts by reason (share of aborts)",
        &[
            "threads",
            "workload",
            "aborts",
            "locked_at_entry",
            "word_changed_at_exit",
            "async_revalidation_fail",
            "retry_exhausted_fallback",
            "inflation",
        ],
    );
    for &n in &h.thread_counts() {
        let cfg = h.run(n);
        let runs = [
            (
                "HashMap 5%",
                measure_map(&cfg, MapConfig::paper(MapKind::Hash, 5, 1), solero),
            ),
            (
                "HashMap 5% fine",
                measure_map(&cfg, MapConfig::paper(MapKind::Hash, 5, n), solero),
            ),
            (
                "TreeMap 5%",
                measure_map(&cfg, MapConfig::paper(MapKind::Tree, 5, 1), solero),
            ),
            ("SPECjbb", measure_jbb(&cfg, solero)),
        ];
        let mut row = vec![n.to_string()];
        row.extend(runs.iter().map(|(_, m)| pct(m.stats.failure_ratio())));
        ratios.row(row);
        for (name, m) in &runs {
            let total = m.stats.read_aborts;
            let mut r = vec![n.to_string(), (*name).into(), total.to_string()];
            for (_, count) in m.stats.abort_reasons() {
                r.push(if total == 0 {
                    "-".into()
                } else {
                    pct(count as f64 / total as f64)
                });
            }
            reasons.row(r);
        }
    }
    vec![ratios, reasons]
}

/// Figure 16 — DaCapo profiles: SOLERO throughput relative to Lock.
pub fn fig16(h: &HarnessConfig) -> Table {
    let threads = if h.quick { 2 } else { 4 };
    let cfg = h.run(threads);
    let mut t = Table::new(
        format!("Figure 16: DaCapo profiles ({threads} threads), SOLERO vs Lock"),
        &["Benchmark", "read-only %", "SOLERO/Lock"],
    );
    for p in DACAPO_PROFILES {
        let lock = {
            let b = DacapoBench::new(p, threads, LockStrategy::new);
            measure(&cfg, |tt, rng| b.op(tt, rng), || b.snapshot()).ops_per_sec
        };
        let so = {
            let b = DacapoBench::new(p, threads, SoleroStrategy::new);
            measure(&cfg, |tt, rng| b.op(tt, rng), || b.snapshot()).ops_per_sec
        };
        t.row(vec![
            p.name.into(),
            format!("{:.1}", p.read_only_ratio * 100.0),
            f3(so / lock),
        ]);
    }
    t
}

/// Ablation A — the fallback threshold (§3.2: "the fallback occurs
/// after one failure. This can be expanded so that the fallback occurs
/// after a larger number of failures"). Measures HashMap 5% writes at
/// the highest thread count.
pub fn ablation_fallback(h: &HarnessConfig) -> Table {
    let threads = *h.thread_counts().last().unwrap();
    let cfg = h.run(threads);
    let mut t = Table::new(
        format!("Ablation: fallback threshold (HashMap 5% writes, {threads} threads)"),
        &["threshold", "Mops/s", "failure ratio", "fallbacks/op"],
    );
    for (thr, label) in [
        (1u32, "1 (paper)"),
        (2, "2"),
        (4, "4"),
        (8, "8"),
        (16, "16"),
    ] {
        let sc = SoleroConfig::builder().retries(thr).build();
        let m = measure_map(&cfg, MapConfig::paper(MapKind::Hash, 5, 1), move || {
            Box::new(SoleroStrategy::configured(sc))
        });
        let ops = m.stats.total_sections().max(1);
        t.row(vec![
            label.into(),
            f3(m.ops_per_sec / 1e6),
            pct(m.stats.failure_ratio()),
            format!("{:.4}", m.stats.fallback_acquires as f64 / ops as f64),
        ]);
    }
    t
}

/// Ablation B — the deterministic check-point validation period (§3.3's
/// loop-break machinery): denser validation detects stale speculation
/// sooner but taxes every loop iteration. TreeMap 5% writes.
pub fn ablation_checkpoint(h: &HarnessConfig) -> Table {
    let threads = *h.thread_counts().last().unwrap();
    let cfg = h.run(threads);
    let mut t = Table::new(
        format!("Ablation: check-point period (TreeMap 5% writes, {threads} threads)"),
        &["period", "Mops/s", "failure ratio", "validations/op"],
    );
    for (period, label) in [
        (1u64, "1 (validate every poll)"),
        (4, "4"),
        (16, "16"),
        (1024, "1024 (default)"),
        (0, "events only"),
    ] {
        let sc = SoleroConfig::builder().checkpoint_period(period).build();
        let m = measure_map(&cfg, MapConfig::paper(MapKind::Tree, 5, 1), move || {
            Box::new(SoleroStrategy::configured(sc))
        });
        let ops = m.stats.total_sections().max(1);
        t.row(vec![
            label.into(),
            f3(m.ops_per_sec / 1e6),
            pct(m.stats.failure_ratio()),
            format!("{:.4}", m.stats.async_validations as f64 / ops as f64),
        ]);
    }
    t
}

/// Extra experiment — per-operation latency percentiles (not in the
/// paper; shows the tail benefit of never blocking readers).
pub fn latency(h: &HarnessConfig) -> Table {
    use solero_workloads::latency::measure_latency;
    let threads = *h.thread_counts().last().unwrap();
    let samples = if h.quick { 20_000 } else { 100_000 };
    let mut t = Table::new(
        format!("Latency: HashMap get, 5% writes, {threads} threads (ns, bucket upper bounds)"),
        &["Implementation", "p50", "p90", "p99", "p99.9"],
    );
    let mc = MapConfig::paper(MapKind::Hash, 5, 1);
    let mut row = |name: &str, r: solero_workloads::latency::LatencyReport| {
        t.row(vec![
            name.into(),
            r.p50.to_string(),
            r.p90.to_string(),
            r.p99.to_string(),
            r.p999.to_string(),
        ]);
    };
    {
        let b = MapBench::new(mc, LockStrategy::new);
        row("Lock", measure_latency(threads, samples, |tt, rng| b.op(tt, rng)));
    }
    {
        let b = MapBench::new(mc, RwStrategy::<JavaRwLock>::new);
        row("RWLock", measure_latency(threads, samples, |tt, rng| b.op(tt, rng)));
    }
    {
        let b = MapBench::new(mc, BravoStrategy::new);
        row("BRAVO-RW", measure_latency(threads, samples, |tt, rng| b.op(tt, rng)));
    }
    {
        let b = MapBench::new(mc, SoleroStrategy::new);
        row("SOLERO", measure_latency(threads, samples, |tt, rng| b.op(tt, rng)));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HarnessConfig {
        HarnessConfig { quick: true }
    }

    #[test]
    fn fig10_produces_seven_rows() {
        let t = fig10(&tiny());
        assert_eq!(t.len(), 7);
        let csv = t.to_csv();
        assert!(csv.contains("WeakBarrier-SOLERO"));
        assert!(csv.contains("Adaptive-SOLERO"));
        assert!(csv.contains("BRAVO-RW"));
    }

    #[test]
    fn fleet_registry_carries_every_contender() {
        let header = fleet_header("threads");
        for required in [
            "Lock",
            "RWLock",
            "BRAVO-RW",
            "SOLERO",
            "Adaptive-SOLERO",
            "SeqLock",
        ] {
            assert!(
                header[1..].contains(&required),
                "the sweep fleet must include {required}"
            );
        }
        assert_eq!(header[1], "Lock", "sweeps normalize to Lock");
        assert_eq!(header.len(), fleet().len() + 1);
        assert_eq!(header[0], "threads");
    }

    #[test]
    fn table1_has_ten_rows() {
        assert_eq!(table1(&tiny()).len(), 10);
    }

    #[test]
    fn fig15_includes_the_reason_breakdown() {
        let tables = fig15(&tiny());
        assert_eq!(tables.len(), 2);
        let csv = tables[1].to_csv();
        for reason in [
            "locked_at_entry",
            "word_changed_at_exit",
            "async_revalidation_fail",
            "retry_exhausted_fallback",
            "inflation",
        ] {
            assert!(csv.contains(reason), "missing column {reason}:\n{csv}");
        }
        // threads × four workloads rows.
        assert_eq!(tables[1].len(), tiny().thread_counts().len() * 4);
    }
}
