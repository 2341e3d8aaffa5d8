//! Micro-costs of the lock words and fast paths (supports Figure 10's
//! interpretation: where the cycles go).

use std::time::Duration;

use solero_testkit::bench::{black_box, Criterion};
use solero_testkit::{criterion_group, criterion_main};
use solero::{Fault, SoleroLock};
use solero_runtime::thread::ThreadId;
use solero_runtime::word::{CompactWord, ConvWord};
use solero_tasuki::TasukiLock;

fn word_ops(c: &mut Criterion) {
    let tid = ThreadId::current();
    c.bench_function("word/solero_decode", |b| {
        let w = CompactWord::held_by(CompactWord::INIT, tid).recurse();
        b.iter(|| {
            let w = black_box(w);
            black_box((w.is_elidable(), w.recursion(), w.tid()))
        })
    });
    c.bench_function("word/conv_decode", |b| {
        let w = ConvWord::held_by(tid).recurse();
        b.iter(|| {
            let w = black_box(w);
            black_box((w.is_zero(), w.recursion(), w.tid()))
        })
    });
}

fn fast_paths(c: &mut Criterion) {
    let tid = ThreadId::current();
    c.bench_function("fastpath/tasuki_enter_exit", |b| {
        let l = TasukiLock::new();
        b.iter(|| {
            l.enter(tid);
            l.exit(tid);
        })
    });
    c.bench_function("fastpath/solero_write", |b| {
        let l = SoleroLock::new();
        b.iter(|| {
            let t = l.enter_write(tid);
            l.exit_write(tid, t);
        })
    });
    c.bench_function("fastpath/solero_read_elided", |b| {
        let l = SoleroLock::new();
        b.iter(|| l.read_only(|_| Ok::<_, Fault>(black_box(1))).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    targets = word_ops, fast_paths
}
criterion_main!(benches);
