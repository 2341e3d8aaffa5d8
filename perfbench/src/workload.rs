//! The four workloads, and the metrics one run of a workload reports.
//!
//! Every value any workload writes encodes its key, and no workload
//! deletes a key for good, so every read, scan and checkpoint is checked
//! as it returns.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use solero_heap::Heap;
use solero_runtime::stats::StatsSnapshot;

use crate::check::{checkpoint_ok, taxonomy_violations};
use crate::gen::{percentile, quantile, windowed, Zipf};
use crate::maps::{self, MapGen, MapKind, MapShape, MapSut};
use crate::store::{self, StoreGen, StoreOp, StoreShape, StoreSut};
use crate::trace::{self, Kind, Span};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MapRead,
    MapMixed,
    StoreZipf,
    StoreChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MapRead,
        Workload::MapMixed,
        Workload::StoreZipf,
        Workload::StoreChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MapRead => "map-read",
            Workload::MapMixed => "map-mixed",
            Workload::StoreZipf => "store-zipf",
            Workload::StoreChurn => "store-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The digest of the first ops of every generator thread's stream.
    pub fn digest(self, seed: u64, threads: usize) -> String {
        const OPS: usize = 1 << 16;
        match self.shape() {
            Shape::Map(m) => maps::digest(seed, &m, threads, OPS).hex(),
            Shape::Store(s, _) => {
                let zipf = Zipf::new(s.keys as u64, s.theta);
                store::digest(seed, &s, &zipf, threads, OPS).hex()
            }
        }
    }

    fn shape(self) -> Shape {
        match self {
            Workload::MapRead => Shape::Map(MapShape {
                kind: MapKind::Hash,
                write_pct: 0,
            }),
            Workload::MapMixed => Shape::Map(MapShape {
                kind: MapKind::Tree,
                write_pct: 5,
            }),
            Workload::StoreZipf => Shape::Store(
                StoreShape {
                    keys: 1 << 20,
                    shards: 64,
                    bucket_width: 16,
                    theta: 0.99,
                    get_pct: 90,
                    scan_pct: 5,
                    scan_len: 32,
                    checkpoint_every: None,
                },
                1_000_000,
            ),
            Workload::StoreChurn => Shape::Store(
                StoreShape {
                    keys: 1 << 16,
                    shards: 16,
                    bucket_width: 16,
                    theta: 0.99,
                    get_pct: 40,
                    scan_pct: 10,
                    scan_len: 64,
                    checkpoint_every: Some(Duration::from_millis(100)),
                },
                400_000,
            ),
        }
    }
}

enum Shape {
    Map(MapShape),
    /// The store's shape and the offered ops/s of its fixed-rate phase.
    Store(StoreShape, u64),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that failed outside individual ops (teardown invariants).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The metrics `BENCHMARK.json` gates, with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("throughput_ops_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The ledger's contenders, in reporting order.
pub const CONTENDERS: [&str; 11] = [
    "unlocked",
    "bare-seqlock",
    "SOLERO",
    "WeakBarrier-SOLERO",
    "Unelided-SOLERO",
    "Adaptive-SOLERO",
    "Lock",
    "RWLock",
    "BRAVO-RW",
    "SeqLock",
    "CompactLock",
];

const ABORTS: [&str; 5] = [
    "locked_at_entry",
    "word_changed_at_exit",
    "async_revalidation",
    "retry_exhausted",
    "inflation",
];

const RUNTIME_EVENTS: [&str; 5] = [
    "backoffs",
    "inflations",
    "deflations",
    "flc_waits",
    "monitor_enters",
];

/// The per-layer metrics of a traced run, with their units, in order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &str)> = [
        ("core.read_section_ns", "ns"),
        ("core.read_self_ns", "ns"),
        ("core.read_body_ns", "ns"),
        ("core.attempts_per_read", "ratio"),
        ("core.write_section_ns", "ns"),
        ("core.write_self_ns", "ns"),
        ("core.write_body_ns", "ns"),
        ("core.elided_frac", "ratio"),
        ("core.fallback_frac", "ratio"),
        ("core.write_fast_frac", "ratio"),
        ("core.speculative_faults_per_kread", "1/kread"),
    ]
    .map(|(n, u)| (n.to_string(), u))
    .into();
    v.extend(ABORTS.map(|a| (format!("core.abort_per_kread.{a}"), "1/kread")));
    v.extend(RUNTIME_EVENTS.map(|e| (format!("runtime.{e}_per_ksection"), "1/ksection")));
    v.extend([
        ("heap.live_objects_end".to_string(), "count"),
        ("heap.used_words_growth".to_string(), "words"),
        ("gen.service_ns_p50".to_string(), "ns"),
        ("gen.service_ns_p90".to_string(), "ns"),
        ("gen.late_frac".to_string(), "ratio"),
    ]);
    for suffix in ["", "_2t"] {
        v.extend(CONTENDERS.map(|c| (format!("ledger.read_ns{suffix}.{c}"), "ns")));
    }
    v
}

/// Builds of the system under test per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 5;
/// Window of the closed-loop throughput and of the windowed percentiles.
const WINDOW: Duration = maps::WINDOW;

/// Options of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub threads: usize,
    /// Traced runs only: where the spans go.
    pub trace_to: Option<PathBuf>,
}

impl RunOpts {
    fn traced(&self) -> bool {
        self.trace_to.is_some()
    }
}

/// Runs workload `w` once in this process.
pub fn run(w: Workload, o: &RunOpts) -> Outcome {
    trace::now_ns(); // start the span clock
    let mut out = match w.shape() {
        Shape::Map(shape) => run_map(&shape, o),
        Shape::Store(shape, rate) => run_store(w, &shape, rate, o),
    };
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");
    out
}

/// Builds the system [`SETUP_BUILDS`] times, keeping the last; returns
/// it with the median build time and, when traced, the last build's
/// spans.
fn build<T>(traced: bool, make: impl Fn() -> T) -> (T, f64, Vec<Span>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_BUILDS {
        drop(last.take());
        trace::take();
        let t = Instant::now();
        last = Some(make());
        times.push(t.elapsed().as_secs_f64());
    }
    let spans = if traced { trace::take().0 } else { Vec::new() };
    (
        last.expect("built at least once"),
        quantile(&times, 0.5),
        spans,
    )
}

fn run_map(shape: &MapShape, o: &RunOpts) -> Outcome {
    let (sut, setup_s, populate) = build(o.traced(), || MapSut::build(shape, o.seed, o.traced()));
    let words = sut.heap.used_words();
    let mut gens: Vec<MapGen> = (0..o.threads)
        .map(|t| MapGen::new(o.seed, t, shape))
        .collect();
    let warm = maps::run(&sut, &mut gens, warmup(o.seconds), false, false);
    let measure = Duration::from_secs_f64(o.seconds);
    let r = maps::run(&sut, &mut gens, measure, true, o.traced());
    let mut out = Outcome {
        attempted: warm.attempted + r.attempted,
        failed: warm.failed + r.failed,
        ..Default::default()
    };
    if !sut.all_present() {
        out.problems.push("map lost an entry or a value".into());
    }
    teardown(&mut out, &sut.strat.snapshot(), &sut.heap);

    // The paper's best-window rule, made robust: the 75th-percentile
    // window.
    out.put("throughput_ops_s", quantile(&r.window_rates, 0.75), "ops/s");
    latency_metrics(&mut out, &r.op_ns);
    out.put("setup_s", setup_s, "s");
    out.put(
        "gen.throughput_p25_ops_s",
        quantile(&r.window_rates, 0.25),
        "ops/s",
    );
    out.put(
        "gen.throughput_p50_ops_s",
        quantile(&r.window_rates, 0.5),
        "ops/s",
    );
    out.put("gen.windows", r.window_rates.len() as f64, "count");
    if o.traced() {
        let service: Vec<u64> = r.op_ns.iter().map(|&(_, ns)| ns).collect();
        layer_metrics(&mut out, &r.spans, &populate, &r.stats, &service);
        // A closed loop sends each op when the last one returns.
        out.put("gen.late_frac", 0.0, "ratio");
        heap_metrics(&mut out, &sut.heap, words);
        write_trace(&mut out, o, &populate, &r.spans, r.dropped);
    }
    out
}

fn run_store(w: Workload, shape: &StoreShape, rate: u64, o: &RunOpts) -> Outcome {
    let zipf = Zipf::new(shape.keys as u64, shape.theta);
    let (sut, setup_s, populate) = build(o.traced(), || StoreSut::build(shape, o.seed, o.traced()));
    let words = sut.store.heap().used_words();
    let mut gens: Vec<StoreGen> = (0..o.threads)
        .map(|t| StoreGen::new(o.seed, t, shape, &zipf))
        .collect();
    let warm = store::run_phase(&sut, shape, &mut gens, rate, warmup(o.seconds), false);
    // Without the ladder the fixed-rate phase gets all the time.
    let ladder = w == Workload::StoreZipf && !o.traced();
    let fixed_s = if ladder { o.seconds * 0.6 } else { o.seconds };
    let r = store::run_phase(
        &sut,
        shape,
        &mut gens,
        rate,
        Duration::from_secs_f64(fixed_s),
        o.traced(),
    );
    let mut out = Outcome {
        attempted: warm.ops + r.ops,
        failed: warm.failed + r.failed,
        ..Default::default()
    };
    if ladder {
        let (max_rate, ops, failed) = max_rate(&sut, shape, &mut gens, o.seconds - fixed_s);
        out.put("store.max_rate_ops_s", max_rate, "ops/s");
        out.attempted += ops;
        out.failed += failed;
    }
    let full = sut.store.checkpoint();
    if !full.is_ok_and(|c| checkpoint_ok(&c, shape.keys)) {
        out.problems
            .push("final checkpoint incomplete or wrong".into());
    }
    teardown(&mut out, &sut.store.snapshot_stats(), sut.store.heap());

    out.put("throughput_ops_s", r.achieved(), "ops/s");
    let latency: Vec<(u64, u64)> = r
        .samples
        .iter()
        .map(|s| (s.due_ns, s.latency_ns as u64))
        .collect();
    latency_metrics(&mut out, &latency);
    out.put("setup_s", setup_s, "s");
    out.put("gen.offered_ops_s", rate as f64, "ops/s");
    out.put("gen.late_frac", r.late as f64 / r.ops as f64, "ratio");
    out.put("gen.max_lag_ms", r.max_lag_ns as f64 / 1e6, "ms");
    let mut queue: Vec<u64> = r
        .samples
        .iter()
        .map(|s| (s.latency_ns - s.service_ns) as u64)
        .collect();
    queue.sort_unstable();
    out.put("gen.queue_ns_p90", percentile(&queue, 90.0) as f64, "ns");
    if o.traced() {
        let service: Vec<u64> = r.samples.iter().map(|s| s.service_ns as u64).collect();
        layer_metrics(&mut out, &r.spans, &populate, &r.stats, &service);
        heap_metrics(&mut out, sut.store.heap(), words);
        write_trace(&mut out, o, &populate, &r.spans, r.dropped);
        for (k, kind) in StoreOp::KINDS.iter().enumerate() {
            let mut ns: Vec<u64> = r
                .samples
                .iter()
                .filter(|s| s.kind as usize == k)
                .map(|s| s.service_ns as u64)
                .collect();
            if ns.is_empty() {
                continue;
            }
            ns.sort_unstable();
            if *kind == "checkpoint" {
                out.put(
                    "store.checkpoint_ms_p50",
                    percentile(&ns, 50.0) as f64 / 1e6,
                    "ms",
                );
                out.put(
                    "store.checkpoint_ms_max",
                    percentile(&ns, 100.0) as f64 / 1e6,
                    "ms",
                );
            } else {
                for p in [50.0, 90.0] {
                    out.put(
                        format!("store.{kind}_service_ns_p{p}"),
                        percentile(&ns, p) as f64,
                        "ns",
                    );
                }
            }
        }
        let secs = r.elapsed.as_secs_f64();
        out.put(
            "store.installs_per_s",
            r.stats.write_enters as f64 / secs,
            "1/s",
        );
    }
    out
}

/// Warm-up before the measured phase: a tenth of it, at most 1 s.
fn warmup(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 10.0).min(1.0))
}

/// The store's saturation knee: offered load steps up from 1.5M ops/s
/// by 10% until a step is missed; the answer is the highest step whose
/// achieved rate is at least 99% of offered and whose median-window p90
/// is at most [`SLO_P90_NS`]. Returns it with the ops run and failed.
fn max_rate(
    sut: &StoreSut,
    shape: &StoreShape,
    gens: &mut [StoreGen],
    budget_s: f64,
) -> (f64, u64, u64) {
    const STEPS: usize = 11;
    let step = Duration::from_secs_f64(budget_s / STEPS as f64);
    let (mut best, mut ops, mut failed) = (0.0, 0, 0);
    let mut rate = 1_500_000;
    for _ in 0..STEPS {
        let r = store::run_phase(sut, shape, gens, rate, step, false);
        ops += r.ops;
        failed += r.failed;
        let lat: Vec<(u64, u64)> = r
            .samples
            .iter()
            .map(|s| (s.due_ns, s.latency_ns as u64))
            .collect();
        let p90 = windowed(&lat, step.as_nanos() as u64 / 3 + 1, 90.0, 0.5);
        if r.achieved() < 0.99 * rate as f64 || p90 > SLO_P90_NS {
            break;
        }
        best = rate as f64;
        rate = rate * 11 / 10;
    }
    (best, ops, failed)
}

/// The latency limit of the saturation knee.
const SLO_P90_NS: f64 = 10_000.0;

/// Latency from `(time_ns, latency_ns)` samples: the median and p90 of
/// the best-quartile window (as for throughput, the window a host stall
/// spared), and the tail over all samples.
fn latency_metrics(out: &mut Outcome, samples: &[(u64, u64)]) {
    let w = WINDOW.as_nanos() as u64;
    out.put("gen.p50_us", windowed(samples, w, 50.0, 0.25) / 1e3, "us");
    out.put("gen.p90_us", windowed(samples, w, 90.0, 0.25) / 1e3, "us");
    let mut all: Vec<u64> = samples.iter().map(|&(_, v)| v).collect();
    all.sort_unstable();
    for (name, p) in [
        ("gen.p99_us", 99.0),
        ("gen.p999_us", 99.9),
        ("gen.max_us", 100.0),
    ] {
        out.put(name, percentile(&all, p) as f64 / 1e3, "us");
    }
    out.put("gen.samples", all.len() as f64, "count");
}

/// Teardown invariants of the lock counters and the heap.
fn teardown(out: &mut Outcome, total: &StatsSnapshot, heap: &Heap) {
    out.problems.extend(taxonomy_violations(total));
    if let Err(f) = heap.check_integrity() {
        out.problems.push(format!("heap integrity: {f:?}"));
    }
}

fn heap_metrics(out: &mut Outcome, heap: &Heap, words_after_setup: usize) {
    out.put("heap.live_objects_end", heap.live_objects() as f64, "count");
    let growth = heap.used_words().saturating_sub(words_after_setup);
    out.put("heap.used_words_growth", growth as f64, "words");
}

/// Writes the spans, populate's as thread 0 and each generator thread's
/// after it, and reports how many there were.
fn write_trace(
    out: &mut Outcome,
    o: &RunOpts,
    populate: &[Span],
    spans: &[Vec<Span>],
    dropped: u64,
) {
    let threads: Vec<&[Span]> = std::iter::once(populate)
        .chain(spans.iter().map(Vec::as_slice))
        .collect();
    let path = o.trace_to.as_ref().expect("traced run");
    if let Err(e) = trace::write_jsonl(path, &threads) {
        eprintln!("solero-perfbench: writing {}: {e}", path.display());
    }
    out.put(
        "trace.spans",
        threads.iter().map(|t| t.len()).sum::<usize>() as f64,
        "count",
    );
    out.put("trace.spans_dropped", dropped as f64, "count");
}

/// The `core`, `runtime` and `gen` layer metrics of a traced run.
fn layer_metrics(
    out: &mut Outcome,
    spans: &[Vec<Span>],
    populate: &[Span],
    s: &StatsSnapshot,
    service_ns: &[u64],
) {
    let measured: Vec<&Span> = spans.iter().flatten().collect();
    let reads = sections(&measured, Kind::ReadSection);
    section_metrics(out, "read", &reads);
    let attempts: u64 = reads.iter().map(|x| x.attempts).sum();
    out.put(
        "core.attempts_per_read",
        ratio(attempts, reads.len() as u64),
        "ratio",
    );
    // A workload that does not write while measured (map-read) reports
    // its populate writes.
    let mut writes = sections(&measured, Kind::WriteSection);
    if writes.is_empty() {
        writes = sections(&populate.iter().collect::<Vec<_>>(), Kind::WriteSection);
    }
    section_metrics(out, "write", &writes);

    let per_kread = |n: u64| 1000.0 * ratio(n, s.read_enters);
    out.put(
        "core.elided_frac",
        ratio(s.elision_success, s.read_enters),
        "ratio",
    );
    out.put(
        "core.fallback_frac",
        ratio(s.fallback_acquires, s.read_enters),
        "ratio",
    );
    out.put(
        "core.write_fast_frac",
        ratio(s.write_fast, s.write_enters),
        "ratio",
    );
    out.put(
        "core.speculative_faults_per_kread",
        per_kread(s.speculative_faults),
        "1/kread",
    );
    let aborts = [
        s.abort_locked_at_entry,
        s.abort_word_changed_at_exit,
        s.abort_async_revalidation,
        s.abort_retry_exhausted,
        s.abort_inflation,
    ];
    for (name, n) in ABORTS.iter().zip(aborts) {
        out.put(
            format!("core.abort_per_kread.{name}"),
            per_kread(n),
            "1/kread",
        );
    }
    let events = [
        s.contention_backoffs,
        s.inflations,
        s.deflations,
        s.flc_waits,
        s.monitor_enters,
    ];
    for (name, n) in RUNTIME_EVENTS.iter().zip(events) {
        let per_k = 1000.0 * ratio(n, s.total_sections());
        out.put(format!("runtime.{name}_per_ksection"), per_k, "1/ksection");
    }

    let mut service = service_ns.to_vec();
    service.sort_unstable();
    out.put(
        "gen.service_ns_p50",
        percentile(&service, 50.0) as f64,
        "ns",
    );
    out.put(
        "gen.service_ns_p90",
        percentile(&service, 90.0) as f64,
        "ns",
    );
}

fn sections<'a>(spans: &[&'a Span], kind: Kind) -> Vec<&'a Span> {
    spans.iter().copied().filter(|s| s.kind == kind).collect()
}

/// Median section time, self time (section minus its body spans) and
/// body time.
fn section_metrics(out: &mut Outcome, rw: &str, spans: &[&Span]) {
    let p50 = |f: &dyn Fn(&Span) -> u64| {
        let mut v: Vec<u64> = spans.iter().map(|s| f(s)).collect();
        v.sort_unstable();
        if v.is_empty() {
            0.0
        } else {
            percentile(&v, 50.0) as f64
        }
    };
    out.put(
        format!("core.{rw}_section_ns"),
        p50(&|s| s.end - s.start),
        "ns",
    );
    out.put(
        format!("core.{rw}_self_ns"),
        p50(&|s| s.end - s.start - s.body),
        "ns",
    );
    out.put(format!("core.{rw}_body_ns"), p50(&|s| s.body), "ns");
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// This process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_digest_is_stable_for_a_seed() {
        // Pinned: a different digest means the benchmark now offers
        // different inputs, and runs before and after cannot be compared.
        let pinned = [
            (Workload::MapRead, "c09293a30d67564d"),
            (Workload::MapMixed, "6a509499af7542e9"),
            (Workload::StoreZipf, "016272395ab2b15a"),
            (Workload::StoreChurn, "0d10c72d1da8b52d"),
        ];
        for (w, digest) in pinned {
            assert_eq!(w.digest(1, 2), digest, "{}", w.name());
            assert_ne!(w.digest(2, 2), digest, "{}: the seed must matter", w.name());
        }
    }
}
