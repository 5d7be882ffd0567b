//! Bad command-line values end in one line on stderr and exit status 2
//! (bad usage), never in a panic (status 101) or a half-written report.

use std::path::Path;
use std::process::Command;

/// Runs `bin` with `args` and returns its stderr, asserting exit status 2,
/// an empty stdout and a single stderr line.
fn usage_error(bin: &str, args: &[&str]) -> String {
    usage_error_in(bin, args, Path::new("."))
}

/// [`usage_error`], run in the working directory `dir`.
fn usage_error_in(bin: &str, args: &[&str], dir: &Path) -> String {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("{bin} runs: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} wrote a report");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    stderr
}

#[test]
fn sharded_rejects_a_non_numeric_shard_count() {
    let e = usage_error(env!("CARGO_BIN_EXE_sharded"), &["--shards", "abc"]);
    assert!(e.contains("--shards wants a number, got \"abc\""), "{e}");
}

#[test]
fn chains_rejects_a_zero_shard_count() {
    let e = usage_error(env!("CARGO_BIN_EXE_chains"), &["--shards", "0"]);
    assert!(e.contains("--shards wants at least 1, got 0"), "{e}");
}

#[test]
fn table1_rejects_a_non_numeric_job_count() {
    let e = usage_error(env!("CARGO_BIN_EXE_table1"), &["--jobs", "banana"]);
    assert!(e.contains("--jobs wants a number, got \"banana\""), "{e}");
}

#[test]
fn chains_rejects_an_unknown_backend() {
    let e = usage_error(env!("CARGO_BIN_EXE_chains"), &["--backend", "nosuch"]);
    assert!(e.contains("unknown backend 'nosuch'"), "{e}");
}

#[test]
fn table1_rejects_bad_cells() {
    let table1 = env!("CARGO_BIN_EXE_table1");
    for (cell, expect) in [
        ("nosuch:4x8", "unknown design \"nosuch\""),
        ("mixed_clock:4x", "--cell wants NAME:CAPxWIDTH"),
        ("mixed_clock:0x8", "capacity must be at least 3 (got 0)"),
        ("mixed_clock:4x0", "width must be in 1..=63 (got 0)"),
    ] {
        let e = usage_error(table1, &["--json", "--cell", cell]);
        assert!(e.contains(expect), "{cell}: {e}");
    }
    let e = usage_error(table1, &["--cell", "mixed_clock:4x8"]);
    assert!(e.contains("--cell implies --json"), "{e}");
}

#[test]
fn lint_and_timing_reject_unbuildable_points() {
    let e = usage_error(env!("CARGO_BIN_EXE_lint"), &["--capacity", "2"]);
    assert!(e.contains("capacity must be at least 3 (got 2)"), "{e}");
    let e = usage_error(env!("CARGO_BIN_EXE_timing"), &["--width", "0"]);
    assert!(e.contains("width must be in 1..=63 (got 0)"), "{e}");
}

#[test]
fn export_verilog_rejects_bad_positionals_without_writing() {
    for (args, expect) in [
        (["2", "8"], "capacity must be at least 3 (got 2)"),
        (["8", "0"], "width must be in 1..=63 (got 0)"),
        (["abc", "8"], "capacity wants a number, got \"abc\""),
    ] {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("export_{}", args.join("_")));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let e = usage_error_in(env!("CARGO_BIN_EXE_export_verilog"), &args, &dir);
        assert!(e.contains(expect), "{args:?}: {e}");
        let written = std::fs::read_dir(&dir).expect("list scratch dir").count();
        assert_eq!(written, 0, "{args:?} wrote files");
        std::fs::remove_dir(&dir).expect("remove scratch dir");
    }
}
