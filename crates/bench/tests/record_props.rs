//! Property tests for the `BENCH_*.json` record format: a record written
//! by `Record::encode` reads back unchanged through `Record::decode`,
//! and a document that drops a required key, adds an unknown one, or
//! carries a counter that is not a non-negative integer is rejected
//! with an error naming the key.

use std::collections::BTreeMap;

use solero_bench::record::{Cell, Host, Record};
use solero_obs::json::{parse, JsonObject, Value};
use solero_runtime::stats::StatsSnapshot;
use solero_testkit::{forall, Gen, TestRng};

type Map = BTreeMap<String, Value>;

/// Integers below 2^53, the range the reader accepts; half the draws
/// stay small, as real counts mostly are.
fn gen_count(rng: &mut TestRng) -> u64 {
    if rng.gen_bool(0.5) {
        rng.gen_range(0u64..1000)
    } else {
        rng.gen_range(0u64..1 << 53)
    }
}

/// Finite numbers: small integers, plain fractions, and arbitrary bit
/// patterns (subnormals, huge magnitudes, negative zero).
fn gen_number(rng: &mut TestRng) -> f64 {
    match rng.gen_range(0u32..3) {
        0 => rng.gen_range(0u64..10_000) as f64,
        1 => rng.gen_range(0u64..1 << 53) as f64 / 1e6,
        _ => loop {
            let v = f64::from_bits(rng.gen::<u64>());
            if v.is_finite() {
                break v;
            }
        },
    }
}

/// A string with the characters the writer must escape.
fn gen_text(g: &mut Gen) -> String {
    const POOL: [char; 10] = ['a', 'Z', '-', ' ', '"', '\\', '\n', '\t', '\u{1}', 'é'];
    g.vec(0, 16, |r| POOL[r.gen_range(0..POOL.len())])
        .into_iter()
        .collect()
}

fn gen_numbers(g: &mut Gen) -> BTreeMap<String, f64> {
    let n = g.size(0, 6);
    (0..n).map(|_| (gen_text(g), gen_number(g.rng()))).collect()
}

/// Every counter, through the one field list, so a new counter is
/// covered here without listing it.
fn gen_stats(rng: &mut TestRng) -> StatsSnapshot {
    let line = StatsSnapshot::FIELDS
        .iter()
        .fold(JsonObject::new(), |o, k| o.num(k, gen_count(rng)))
        .finish();
    let map = parse(&line).expect("the writer emits JSON");
    StatsSnapshot::read_fields(map.as_obj().expect("an object")).expect("every counter drawn")
}

fn gen_record(g: &mut Gen) -> Record {
    let host = Host {
        arch: gen_text(g),
        nproc: gen_count(g.rng()),
        profile: gen_text(g),
        quick: g.gen_bool(0.5),
    };
    let cells = (0..g.size(1, 6))
        .map(|_| Cell {
            label: gen_text(g),
            threads: gen_count(g.rng()),
            ops: gen_count(g.rng()),
            secs: gen_number(g.rng()),
            values: gen_numbers(g),
            stats: gen_stats(g.rng()),
        })
        .collect();
    Record {
        workload: gen_text(g),
        host,
        params: gen_numbers(g),
        cells,
    }
}

/// A random record as a parsed document.
fn gen_doc(g: &mut Gen) -> Map {
    match parse(&gen_record(g).encode()).expect("the writer emits JSON") {
        Value::Obj(map) => map,
        other => panic!("not an object: {other:?}"),
    }
}

fn obj_mut(v: &mut Value) -> &mut Map {
    match v {
        Value::Obj(m) => m,
        other => panic!("not an object: {other:?}"),
    }
}

fn cell_mut<'a>(doc: &'a mut Map, g: &mut Gen) -> &'a mut Map {
    let Some(Value::Arr(rows)) = doc.get_mut("cells") else {
        panic!("no cells");
    };
    let i = g.gen_range(0..rows.len());
    obj_mut(&mut rows[i])
}

/// One of the record's closed objects, every key of which is required:
/// the document itself, its host, a cell, or a cell's counters.
fn closed_object<'a>(doc: &'a mut Map, g: &mut Gen) -> &'a mut Map {
    match g.gen_range(0u32..4) {
        0 => doc,
        1 => obj_mut(doc.get_mut("host").expect("a host")),
        2 => cell_mut(doc, g),
        _ => obj_mut(cell_mut(doc, g).get_mut("stats").expect("counters")),
    }
}

/// Writes a parsed document back.
fn write(map: &Map) -> JsonObject {
    map.iter().fold(JsonObject::new(), |o, (k, v)| match v {
        Value::Num(n) => o.float(k, *n),
        Value::Str(s) => o.str(k, s),
        Value::Bool(b) => o.bool(k, *b),
        Value::Obj(m) => o.obj(k, write(m)),
        Value::Arr(rows) => o.objs(k, rows.iter().map(|r| write(r.as_obj().expect("rows")))),
        Value::Null => panic!("the writer emits no null for finite values"),
    })
}

#[test]
fn record_round_trips() {
    forall(256, 0xBE4C_0001, |g| {
        let rec = gen_record(g);
        let text = rec.encode();
        let back = Record::decode(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert_eq!(back, rec);
    });
}

#[test]
fn dropped_key_is_rejected() {
    forall(256, 0xBE4C_0002, |g| {
        let mut doc = gen_doc(g);
        let obj = closed_object(&mut doc, g);
        let key = obj.keys().nth(g.gen_range(0..obj.len())).unwrap().clone();
        obj.remove(&key);
        let err = Record::decode(&write(&doc).finish()).unwrap_err();
        assert!(err.contains(key.as_str()), "{err}");
    });
}

#[test]
fn unknown_key_is_rejected() {
    forall(256, 0xBE4C_0003, |g| {
        let mut doc = gen_doc(g);
        let key = format!("extra_{}", g.gen_range(0u32..100));
        closed_object(&mut doc, g).insert(key.clone(), Value::Num(1.0));
        let err = Record::decode(&write(&doc).finish()).unwrap_err();
        assert!(err.contains(&key), "{err}");
    });
}

#[test]
fn non_integer_counter_is_rejected() {
    forall(256, 0xBE4C_0004, |g| {
        let mut doc = gen_doc(g);
        let stats = obj_mut(cell_mut(&mut doc, g).get_mut("stats").expect("counters"));
        let key = StatsSnapshot::FIELDS[g.gen_range(0..StatsSnapshot::FIELDS.len())];
        let n = g.gen_range(1u64..1000) as f64;
        let bad = match g.gen_range(0u32..3) {
            0 => Value::Num(-n),
            1 => Value::Num(n + 0.5),
            _ => Value::Str(n.to_string()),
        };
        stats.insert(key.to_string(), bad);
        let err = Record::decode(&write(&doc).finish()).unwrap_err();
        assert!(err.contains(key), "{err}");
    });
}
