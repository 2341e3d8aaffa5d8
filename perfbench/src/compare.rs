//! `--compare A.jsonl B.jsonl [...]`: each file is one side, holding the
//! records of its runs. For every workload and metric the comparison
//! prints each side's median and quartiles; for the metrics
//! `BENCHMARK.json` gates it also prints each later side's change
//! against the first and a verdict against the metric's bound.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::gen::quantile;
use crate::json::{self, Json};

/// A gated metric's direction and bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    pub lower_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

/// `(run kind, workload, metric)`; untraced and traced runs report
/// different metrics and are kept apart.
type Key = (&'static str, String, String);

/// Every run's value of every metric in one side's records.
fn load_side(path: &Path) -> Result<BTreeMap<Key, Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut side: BTreeMap<Key, Vec<f64>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let kind = if record.get("trace") == Some(&Json::Bool(true)) {
            "trace"
        } else {
            "run"
        };
        let workloads = record.get("workloads").and_then(Json::obj).ok_or(format!(
            "{}:{}: not a benchmark record",
            path.display(),
            i + 1
        ))?;
        for (w, r) in workloads {
            for (m, v) in r.get("metrics").and_then(Json::obj).into_iter().flatten() {
                if let Some(x) = v.get("value").and_then(Json::num) {
                    side.entry((kind, w.clone(), m.clone()))
                        .or_default()
                        .push(x);
                }
            }
        }
    }
    Ok(side)
}

/// The gated metrics of `BENCHMARK.json`, by name.
pub fn load_gates(path: &Path) -> Result<BTreeMap<String, Gate>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut gates = BTreeMap::new();
    for m in spec
        .get("end_to_end")
        .and_then(Json::arr)
        .unwrap_or_default()
    {
        let name = m
            .get("name")
            .and_then(Json::str)
            .ok_or("end_to_end entry without a name")?;
        let bound = m
            .get("bound")
            .and_then(Json::num)
            .ok_or(format!("{name}: no bound"))?;
        let lower = m.get("better").and_then(Json::str) == Some("lower");
        gates.insert(
            name.to_string(),
            Gate {
                lower_is_better: lower,
                bound,
            },
        );
    }
    Ok(gates)
}

/// Median and quartiles of a side's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(v: &[f64]) -> Self {
        Summary {
            q1: quantile(v, 0.25),
            median: quantile(v, 0.5),
            q3: quantile(v, 0.75),
        }
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The verdict on `after` against `base` for a gated metric.
pub fn verdict(base: &[f64], after: &[f64], gate: Gate) -> &'static str {
    let (b, a) = (Summary::of(base), Summary::of(after));
    let sign = if gate.lower_is_better { 1.0 } else { -1.0 };
    // Positive when `after` is worse.
    let worse = sign * (a.median - b.median) / b.median.abs();
    let better = |x: f64, y: f64| if gate.lower_is_better { x < y } else { x > y };
    let all_better = after.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    if b.spread() > gate.bound || a.spread() > gate.bound {
        if all_better {
            "better"
        } else {
            "unresolved"
        }
    } else if worse > gate.bound {
        "WORSE"
    } else if -worse > gate.bound {
        "better"
    } else {
        "within bound"
    }
}

/// `x` to four significant digits.
fn sig(x: f64) -> String {
    let decimals = if x == 0.0 {
        0
    } else {
        3 - x.abs().log10().floor() as i32
    };
    format!("{x:.*}", decimals.max(0) as usize)
}

pub fn main(args: &[String]) -> ExitCode {
    if args.len() < 2 {
        eprintln!("usage: solero-perfbench --compare BASE.jsonl OTHER.jsonl [...]");
        return ExitCode::from(2);
    }
    let spec = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let gates = load_gates(&spec).unwrap_or_else(|e| {
        eprintln!("no bounds ({e}); printing medians only");
        BTreeMap::new()
    });
    let mut sides = Vec::new();
    for a in args {
        match load_side(Path::new(a)) {
            Ok(s) => sides.push(s),
            Err(e) => {
                eprintln!("solero-perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut keys: Vec<&Key> = sides.iter().flat_map(|s| s.keys()).collect();
    keys.sort();
    keys.dedup();
    for (i, a) in args.iter().enumerate() {
        println!(
            "side {i}: {a} ({} records)",
            sides[i].values().map(Vec::len).max().unwrap_or(0)
        );
    }
    let mut worse = false;
    for key @ (kind, w, m) in keys {
        let mut line = format!("{kind:5} {w:11} {m:36}");
        let Some(base) = sides[0].get(key) else {
            continue;
        };
        for (i, side) in sides.iter().enumerate() {
            let Some(v) = side.get(key) else {
                line += " | -";
                continue;
            };
            let s = Summary::of(v);
            line += &format!(
                " | {} [{}, {}] n={}",
                sig(s.median),
                sig(s.q1),
                sig(s.q3),
                v.len()
            );
            if i > 0 {
                let b = Summary::of(base).median;
                line += &format!(" {:+.1}%", 100.0 * (s.median - b) / b.abs());
                if let Some(&g) = gates.get(m).filter(|_| *kind == "run") {
                    let v = verdict(base, v, g);
                    worse |= v == "WORSE";
                    line += &format!(" (bound {:.0}%: {v})", 100.0 * g.bound);
                }
            }
        }
        println!("{line}");
    }
    if worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Gate = Gate {
        lower_is_better: true,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(
            verdict(&base, &[105.0, 104.0, 106.0, 105.0, 105.5], LOWER),
            "within bound"
        );
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0, 120.0, 120.5], LOWER),
            "WORSE"
        );
        assert_eq!(
            verdict(&base, &[80.0, 81.0, 79.0, 80.0, 80.5], LOWER),
            "better"
        );
        let higher = Gate {
            lower_is_better: false,
            ..LOWER
        };
        assert_eq!(
            verdict(&base, &[80.0, 81.0, 79.0, 80.0, 80.5], higher),
            "WORSE"
        );
        // A side whose quartiles are wider than the bound cannot be judged
        // unless every run beats every baseline run.
        let noisy = [70.0, 130.0, 100.0, 60.0, 140.0];
        assert_eq!(verdict(&base, &noisy, LOWER), "unresolved");
        assert_eq!(verdict(&noisy, &[50.0, 52.0, 51.0], LOWER), "better");
    }

    #[test]
    fn reads_the_gates_of_the_checked_in_spec() {
        let spec = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let gates = load_gates(&spec).unwrap();
        assert!(gates["setup_s"].lower_is_better);
        assert!(!gates["throughput_ops_s"].lower_is_better);
        assert!(gates.values().all(|g| g.bound > 0.0 && g.bound <= 0.25));
    }
}
