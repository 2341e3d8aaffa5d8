//! `obs_check` — offline checker for the per-lock counter export.
//!
//! ```text
//! obs_check [path]    # default: results/obs.jsonl
//! ```
//!
//! Reads every line back with `StatsSnapshot::from_jsonl`, the reader
//! behind profile-guided demotion, and exits non-zero on the first
//! malformed line, or if the file holds no lock line at all.

use std::process::ExitCode;

use solero_runtime::stats::StatsSnapshot;

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/obs.jsonl".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut locks = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Err(e) = StatsSnapshot::from_jsonl(line) {
            eprintln!("obs_check: {path}:{}: {e}", i + 1);
            return ExitCode::FAILURE;
        }
        locks += 1;
    }
    if locks == 0 {
        eprintln!("obs_check: {path}: no lock line found");
        return ExitCode::FAILURE;
    }
    println!("obs_check: {path}: {locks} lock lines OK");
    ExitCode::SUCCESS
}
