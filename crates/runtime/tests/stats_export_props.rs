//! Property tests for the per-lock counter export: a snapshot written
//! by `StatsSnapshot::to_jsonl` reads back unchanged through
//! `StatsSnapshot::from_jsonl`, and a line that drops a counter, adds a
//! key, or carries a negative or fractional value is rejected.

use std::collections::BTreeMap;

use solero_obs::json::{parse, JsonObject, Value};
use solero_runtime::stats::StatsSnapshot;
use solero_testkit::{forall, Gen, TestRng};

/// Integers below 2^53, the range the reader accepts; half the draws
/// stay small, as real counters mostly are.
fn gen_count(rng: &mut TestRng) -> u64 {
    if rng.gen_bool(0.5) {
        rng.gen_range(0u64..1000)
    } else {
        rng.gen_range(0u64..1 << 53)
    }
}

/// Every field is listed, so a new counter fails to compile here until
/// the property covers it.
fn gen_snapshot(r: &mut TestRng) -> StatsSnapshot {
    StatsSnapshot {
        write_enters: gen_count(r),
        write_fast: gen_count(r),
        recursive_enters: gen_count(r),
        read_enters: gen_count(r),
        elision_success: gen_count(r),
        elision_failure: gen_count(r),
        fallback_acquires: gen_count(r),
        read_slow_enters: gen_count(r),
        inflations: gen_count(r),
        deflations: gen_count(r),
        flc_waits: gen_count(r),
        monitor_enters: gen_count(r),
        async_validations: gen_count(r),
        speculative_faults: gen_count(r),
        mostly_upgrades: gen_count(r),
        read_aborts: gen_count(r),
        abort_locked_at_entry: gen_count(r),
        abort_word_changed_at_exit: gen_count(r),
        abort_async_revalidation: gen_count(r),
        abort_retry_exhausted: gen_count(r),
        abort_inflation: gen_count(r),
        policy_skips: gen_count(r),
        policy_disables: gen_count(r),
        policy_rearms: gen_count(r),
        bias_revocations: gen_count(r),
        bias_rebiases: gen_count(r),
        contention_backoffs: gen_count(r),
    }
}

/// A label with the characters the writer must escape.
fn gen_name(g: &mut Gen) -> String {
    const POOL: [char; 10] = ['a', 'Z', '-', ' ', '"', '\\', '\n', '\t', '\u{1}', 'é'];
    g.vec(0, 24, |r| POOL[r.gen_range(0..POOL.len())])
        .into_iter()
        .collect()
}

/// A random line as a key → value map, plus its counter keys.
fn gen_line(g: &mut Gen) -> (BTreeMap<String, Value>, Vec<String>) {
    let (lock, name) = (gen_count(g.rng()), gen_name(g));
    let line = gen_snapshot(g.rng()).to_jsonl(lock, &name);
    let map = match parse(&line).expect("the writer emits JSON") {
        Value::Obj(map) => map,
        other => panic!("not an object: {other:?}"),
    };
    let counters = map
        .keys()
        .filter(|k| !matches!(k.as_str(), "lock" | "name"))
        .cloned()
        .collect();
    (map, counters)
}

/// Writes a map back as one line.
fn write(map: &BTreeMap<String, Value>) -> String {
    map.iter()
        .fold(JsonObject::new(), |o, (k, v)| match v {
            Value::Num(n) => o.float(k, *n),
            Value::Str(s) => o.str(k, s),
            other => panic!("unexpected value {other:?}"),
        })
        .finish()
}

#[test]
fn export_round_trips() {
    forall(256, 0x57A7_0001, |g| {
        let (snap, lock, name) = (gen_snapshot(g.rng()), gen_count(g.rng()), gen_name(g));
        let line = snap.to_jsonl(lock, &name);
        assert!(!line.contains('\n'), "one line per lock: {line}");
        let back = StatsSnapshot::from_jsonl(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(back, (lock, name, snap));
    });
}

#[test]
fn dropped_counter_is_rejected() {
    forall(256, 0x57A7_0002, |g| {
        let (mut map, counters) = gen_line(g);
        let key = &counters[g.gen_range(0..counters.len())];
        map.remove(key);
        let err = StatsSnapshot::from_jsonl(&write(&map)).unwrap_err();
        assert!(err.contains(key.as_str()), "{err}");
    });
}

#[test]
fn extra_key_is_rejected() {
    forall(256, 0x57A7_0003, |g| {
        let (mut map, _) = gen_line(g);
        let key = format!("extra_{}", g.gen_range(0u32..100));
        map.insert(key.clone(), Value::Num(1.0));
        let err = StatsSnapshot::from_jsonl(&write(&map)).unwrap_err();
        assert!(err.contains(&key), "{err}");
    });
}

#[test]
fn negative_or_fractional_value_is_rejected() {
    forall(256, 0x57A7_0004, |g| {
        let (mut map, mut keys) = gen_line(g);
        keys.push("lock".into());
        let key = &keys[g.gen_range(0..keys.len())];
        let n = g.gen_range(1u64..1000) as f64;
        let bad = if g.gen_bool(0.5) { -n } else { n + 0.5 };
        map.insert(key.clone(), Value::Num(bad));
        let err = StatsSnapshot::from_jsonl(&write(&map)).unwrap_err();
        assert!(err.contains(key.as_str()), "{err}");
    });
}
