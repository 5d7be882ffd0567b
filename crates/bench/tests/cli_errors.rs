//! Bad command-line values, undeclared flags and unwritable outputs end
//! in one line on stderr and exit status 2 (the run could not happen),
//! never in a panic (status 101), a silently ignored flag or a
//! half-written report.

use std::path::Path;
use std::process::Command;

/// Runs `bin` with `args` and returns its stderr, asserting exit status 2,
/// an empty stdout and a single stderr line.
fn usage_error(bin: &str, args: &[&str]) -> String {
    usage_error_in(bin, args, Path::new("."))
}

/// [`usage_error`], run in the working directory `dir`.
fn usage_error_in(bin: &str, args: &[&str], dir: &Path) -> String {
    let (stdout, stderr) = aborted_in(bin, args, dir);
    assert!(stdout.is_empty(), "{args:?} wrote a report");
    stderr
}

/// Runs `bin` with `args` in `dir` and returns its stdout and stderr,
/// asserting exit status 2 and a single stderr line that is no panic.
fn aborted_in(bin: &str, args: &[&str], dir: &Path) -> (Vec<u8>, String) {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("{bin} runs: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    (out.stdout, stderr)
}

/// A fresh scratch directory under the test target dir.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
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
        // Registry designs outside Table 1 are not cells.
        ("sync_async:4x8", "unknown design \"sync_async\""),
        ("async_async:4x8", "unknown design \"async_async\""),
        ("seizovic:4x8", "unknown design \"seizovic\""),
        ("sync_rs:4x8", "unknown design \"sync_rs\""),
        ("gray_pointer:3x8", "unknown design \"gray_pointer\""),
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
fn capacities_past_the_bound_are_rejected() {
    // Unbounded, each of these elaborated for longer than 30 s.
    for (bin, args, got) in [
        (
            env!("CARGO_BIN_EXE_timing"),
            &["--capacity", "1000000"][..],
            1_000_000,
        ),
        (
            env!("CARGO_BIN_EXE_lint"),
            &["--capacity", "100000"][..],
            100_000,
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--json", "--cell", "mixed_clock:100000x8"][..],
            100_000,
        ),
    ] {
        let e = usage_error(bin, args);
        let expect = format!("capacity must be at most 256 (got {got})");
        assert!(e.contains(&expect), "{args:?}: {e}");
    }
}

#[test]
fn export_verilog_rejects_bad_positionals_without_writing() {
    for (args, expect) in [
        (["2", "8"], "capacity must be at least 3 (got 2)"),
        (["8", "0"], "width must be in 1..=63 (got 0)"),
        (["abc", "8"], "capacity wants a number, got \"abc\""),
    ] {
        let dir = scratch_dir(&format!("export_{}", args.join("_")));
        let e = usage_error_in(env!("CARGO_BIN_EXE_export_verilog"), &args, &dir);
        assert!(e.contains(expect), "{args:?}: {e}");
        let written = std::fs::read_dir(&dir).expect("list scratch dir").count();
        assert_eq!(written, 0, "{args:?} wrote files");
        std::fs::remove_dir(&dir).expect("remove scratch dir");
    }
}

#[test]
fn counts_outside_their_range_are_rejected() {
    const HUGE: &str = "18446744073709551615";
    for (bin, args, expect) in [
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--quick", "--latency-steps", "1"][..],
            "--latency-steps wants at least 2, got 1",
        ),
        (
            env!("CARGO_BIN_EXE_robustness"),
            &["--runs", "0"],
            "--runs wants at least 1, got 0",
        ),
        (
            env!("CARGO_BIN_EXE_chains"),
            &["--items", "0"],
            "--items wants at least 1, got 0",
        ),
        (
            env!("CARGO_BIN_EXE_sharded"),
            &["--quick", "--items", "0"],
            "--items wants at least 1, got 0",
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--quick", "--latency-steps", HUGE],
            "--latency-steps wants at most 1000",
        ),
        (
            env!("CARGO_BIN_EXE_robustness"),
            &["--runs", HUGE],
            "--runs wants at most 10000",
        ),
        (
            env!("CARGO_BIN_EXE_chains"),
            &["--items", HUGE],
            "--items wants at most 100000",
        ),
        (
            env!("CARGO_BIN_EXE_sharded"),
            &["--quick", "--items", HUGE],
            "--items wants at most 100000",
        ),
    ] {
        let e = usage_error(bin, args);
        assert!(e.contains(expect), "{args:?}: {e}");
    }
}

#[test]
fn undeclared_flags_are_rejected() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_table1"), &["--shards", "2"][..]),
        (env!("CARGO_BIN_EXE_table1"), &["--quick", "--josn"]),
        (env!("CARGO_BIN_EXE_robustness"), &["--backend", "compiled"]),
        (
            env!("CARGO_BIN_EXE_sharded"),
            &["--quick", "--backend", "event"],
        ),
        (env!("CARGO_BIN_EXE_timing"), &["--josn"]),
    ] {
        let e = usage_error(bin, args);
        assert!(e.contains("unknown flag"), "{args:?}: {e}");
    }
}

#[test]
fn value_flags_without_a_value_are_rejected() {
    for (bin, args, flag) in [
        (
            env!("CARGO_BIN_EXE_timing"),
            &["--capacity"][..],
            "--capacity",
        ),
        (
            env!("CARGO_BIN_EXE_timing"),
            &["--width", "--json"],
            "--width",
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--quick", "--jobs"],
            "--jobs",
        ),
        (env!("CARGO_BIN_EXE_chains"), &["--items"], "--items"),
    ] {
        let e = usage_error(bin, args);
        assert!(
            e.contains(&format!("{flag} needs a value")),
            "{args:?}: {e}"
        );
    }
}

#[test]
fn repeated_value_flags_are_rejected() {
    for (bin, args, flag) in [
        (
            env!("CARGO_BIN_EXE_timing"),
            &["--capacity", "4", "--capacity", "x"][..],
            "--capacity",
        ),
        (
            env!("CARGO_BIN_EXE_robustness"),
            &["--runs", "1", "--runs", "1"],
            "--runs",
        ),
    ] {
        let e = usage_error(bin, args);
        assert!(e.contains(&format!("{flag} given twice")), "{args:?}: {e}");
    }
}

#[test]
fn unwritable_outputs_abort_without_a_panic() {
    // A directory where the file should go: unwritable even for root,
    // which `chmod` would not stop.
    for (bin, name, blocked) in [
        (
            env!("CARGO_BIN_EXE_export_verilog"),
            "export_verilog",
            "mixed_clock_fifo.v",
        ),
        (env!("CARGO_BIN_EXE_fig3"), "fig3", "fig3_sync.vcd"),
    ] {
        let dir = scratch_dir(&format!("blocked_{name}"));
        std::fs::create_dir(dir.join(blocked)).expect("create blocking dir");
        let (_, e) = aborted_in(bin, &[], &dir);
        assert!(
            e.contains(&format!("cannot write {blocked}")),
            "{name}: {e}"
        );
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}
