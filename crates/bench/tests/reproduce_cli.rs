//! `reproduce` rejects an argument it does not know before it measures
//! anything: an unknown target or a misspelt flag exits 2 with a usage
//! line, as the `bench_*` bins do.

use std::process::Command;

#[test]
fn unknown_arguments_exit_2_with_a_usage_line() {
    let out = std::env::temp_dir().join("reproduce_cli_never_written.json");
    let out = out.to_str().expect("a UTF-8 temp path");
    // Each case also names `--quick` and a small target, so a parser
    // that let the bad argument through would finish fast and fail the
    // exit-code check rather than run the full protocol.
    for bad in ["fig99", "--qiuck"] {
        let run = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(["--quick", "--out", out, bad, "fig10"])
            .output()
            .expect("reproduce starts");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{bad}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument {bad:?}")),
            "{bad}: {stderr}"
        );
        assert!(
            stderr.contains("usage: [--quick] [--out PATH]"),
            "{bad}: {stderr}"
        );
    }
}
