//! Byte-exact pins of the experiment binaries' observable output.
//!
//! Each invocation runs in a fresh working directory; its exit status
//! (0), its stdout and every file it writes there are pinned. A report
//! with a committed golden (`golden/*.json`) must equal that file byte
//! for byte; every other output is pinned by an FNV-1a digest. A
//! refactor of the binaries or of the library code they share must
//! leave every pin in place. A deliberate change to a report
//! regenerates its golden (the mismatch message prints the command) or
//! updates its digest here.

use std::path::PathBuf;
use std::process::Command;

/// One invocation and the output it must reproduce.
struct Pin {
    args: &'static [&'static str],
    stdout: Stdout,
    files: &'static [(&'static str, u64)],
}

/// What a pin's stdout must be.
enum Stdout {
    /// An FNV-1a digest, for output without a committed golden.
    Digest(u64),
    /// Exactly the bytes of this file under `golden/`.
    Golden(&'static str),
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs every pin of `bin` in its own scratch directory and checks the
/// exit status, the stdout (digest or golden) and the written files.
fn check(bin: &str, name: &str, pins: &[Pin]) {
    for (i, pin) in pins.iter().enumerate() {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("pin_{name}_{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let out = Command::new(bin)
            .args(pin.args)
            .current_dir(&dir)
            .output()
            .unwrap_or_else(|e| panic!("{name} runs: {e}"));
        let what = format!("{name} {:?}", pin.args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{what}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        match pin.stdout {
            Stdout::Digest(digest) => assert_eq!(
                fnv1a(&out.stdout),
                digest,
                "{what}: stdout digest {:#018x}",
                fnv1a(&out.stdout)
            ),
            Stdout::Golden(file) => check_golden(name, pin.args, file, &out.stdout),
        }
        let mut written: Vec<String> = std::fs::read_dir(&dir)
            .expect("list scratch dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        written.sort();
        let expected: Vec<&str> = pin.files.iter().map(|(f, _)| *f).collect();
        assert_eq!(written, expected, "{what}: written files");
        for (file, digest) in pin.files {
            let bytes = std::fs::read(dir.join(file)).expect("read written file");
            assert_eq!(
                fnv1a(&bytes),
                *digest,
                "{what}: {file} digest {:#018x}",
                fnv1a(&bytes)
            );
        }
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}

/// Compares `actual` with `golden/<file>` byte for byte; on a mismatch,
/// names the first differing line and column, shows both lines around
/// it, and prints the command that regenerates the golden.
fn check_golden(name: &str, args: &[&str], file: &str, actual: &[u8]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../golden/");
    let golden = std::fs::read(format!("{path}{file}"))
        .unwrap_or_else(|e| panic!("read golden/{file}: {e}"));
    if golden == actual {
        return;
    }
    let at = golden
        .iter()
        .zip(actual)
        .position(|(g, a)| g != a)
        .unwrap_or(golden.len().min(actual.len()));
    // The two outputs agree up to `at`, so the line starts at the same
    // offset in both.
    let line_start = golden[..at]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |p| p + 1);
    let line = 1 + golden[..at].iter().filter(|&&b| b == b'\n').count();
    // The goldens are single-line JSON: show 40 bytes either side.
    let around = |bytes: &[u8]| {
        let rest = &bytes[line_start.max(at.saturating_sub(40))..];
        let end = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        String::from_utf8_lossy(&rest[..end.min(80)]).into_owned()
    };
    panic!(
        "{name} {args:?} differs from golden/{file} at line {line}, column {}\n  \
         golden: {}\n  actual: {}\n\
         regenerate with: cargo run --release -q -p mtf-bench --bin {name} -- {} > golden/{file}",
        at - line_start + 1,
        around(&golden),
        around(actual),
        args.join(" "),
    );
}

const FIG3_FILES: &[(&str, u64)] = &[
    ("fig3_async.vcd", 0x28c0_ecc7_b9a2_5d61),
    ("fig3_sync.vcd", 0x7c39_0c1e_9763_2c29),
];

const VERILOG_FILES: &[(&str, u64)] = &[
    ("async_async_fifo.v", 0xf3ee_4936_cd95_ddc4),
    ("async_sync_fifo.v", 0x9641_28d2_d4e9_168f),
    ("async_sync_rs.v", 0xe74d_6012_6d10_985b),
    ("mixed_clock_fifo.v", 0x2d9d_b16a_6aa2_9c6e),
    ("mixed_clock_rs.v", 0x94bb_facb_81c6_7937),
    ("sync_async_fifo.v", 0x0c7b_01f7_4e96_601c),
];

#[test]
fn timing_output_is_pinned() {
    check(
        env!("CARGO_BIN_EXE_timing"),
        "timing",
        &[
            Pin {
                args: &[],
                stdout: Stdout::Digest(0xadc5_3b35_856b_252e),
                files: &[],
            },
            Pin {
                args: &["--json"],
                stdout: Stdout::Golden("timing.json"),
                files: &[],
            },
        ],
    );
}

#[test]
fn lint_output_is_pinned() {
    check(
        env!("CARGO_BIN_EXE_lint"),
        "lint",
        &[
            Pin {
                args: &[],
                stdout: Stdout::Digest(0xbe6c_8eae_547c_233c),
                files: &[],
            },
            Pin {
                args: &["--json"],
                stdout: Stdout::Golden("lint.json"),
                files: &[],
            },
            Pin {
                args: &["--contracts"],
                stdout: Stdout::Digest(0x62ee_026c_4a50_f2b9),
                files: &[],
            },
            Pin {
                args: &["--contracts", "--json"],
                stdout: Stdout::Golden("contracts.json"),
                files: &[],
            },
        ],
    );
}

#[test]
fn formal_output_is_pinned() {
    check(
        env!("CARGO_BIN_EXE_formal"),
        "formal",
        &[
            Pin {
                args: &[],
                stdout: Stdout::Digest(0xf659_3fef_aed4_5333),
                files: &[],
            },
            Pin {
                args: &["--json"],
                stdout: Stdout::Golden("formal.json"),
                files: &[],
            },
        ],
    );
}

#[test]
fn fig3_output_and_waveforms_are_pinned() {
    check(
        env!("CARGO_BIN_EXE_fig3"),
        "fig3",
        &[
            Pin {
                args: &[],
                stdout: Stdout::Digest(0x0ae1_3b98_ed0e_49fe),
                files: FIG3_FILES,
            },
            Pin {
                args: &["--json"],
                stdout: Stdout::Digest(0x5591_e5fb_e977_7c63),
                files: FIG3_FILES,
            },
        ],
    );
}

#[test]
fn power_output_is_pinned() {
    check(
        env!("CARGO_BIN_EXE_power"),
        "power",
        &[
            Pin {
                args: &[],
                stdout: Stdout::Digest(0xc950_fe18_7d1a_82d4),
                files: &[],
            },
            Pin {
                args: &["--json"],
                stdout: Stdout::Digest(0x7181_da75_05f0_9882),
                files: &[],
            },
        ],
    );
}

#[test]
fn related_work_output_is_pinned() {
    check(
        env!("CARGO_BIN_EXE_related_work"),
        "related_work",
        &[
            Pin {
                args: &[],
                stdout: Stdout::Digest(0x8bb8_fa42_ff84_1371),
                files: &[],
            },
            Pin {
                args: &["--json"],
                stdout: Stdout::Digest(0xc5dd_0d4e_2102_fdb3),
                files: &[],
            },
        ],
    );
}

#[test]
fn export_verilog_output_and_modules_are_pinned() {
    check(
        env!("CARGO_BIN_EXE_export_verilog"),
        "export_verilog",
        &[
            Pin {
                args: &[],
                stdout: Stdout::Digest(0x3d19_2405_0ab7_af26),
                files: VERILOG_FILES,
            },
            Pin {
                args: &["--json"],
                stdout: Stdout::Digest(0x8692_73c7_21e5_01dd),
                files: VERILOG_FILES,
            },
        ],
    );
}

#[test]
fn robustness_output_is_pinned() {
    check(
        env!("CARGO_BIN_EXE_robustness"),
        "robustness",
        &[
            Pin {
                args: &["--runs", "4", "--jobs", "1"],
                stdout: Stdout::Digest(0xec9c_92ab_9b13_f9d9),
                files: &[],
            },
            // The default worker count must reproduce the serial report.
            Pin {
                args: &["--runs", "4"],
                stdout: Stdout::Digest(0xec9c_92ab_9b13_f9d9),
                files: &[],
            },
            Pin {
                args: &["--runs", "4", "--jobs", "1", "--json"],
                stdout: Stdout::Digest(0x7993_7b3b_12f3_dd6a),
                files: &[],
            },
            Pin {
                args: &["--json"],
                stdout: Stdout::Golden("robustness.json"),
                files: &[],
            },
        ],
    );
}

#[test]
fn chains_output_is_pinned() {
    check(
        env!("CARGO_BIN_EXE_chains"),
        "chains",
        &[
            Pin {
                args: &["--items", "12"],
                stdout: Stdout::Digest(0xbf54_74e8_e1da_a643),
                files: &[],
            },
            Pin {
                args: &["--items", "12", "--json"],
                stdout: Stdout::Digest(0x0f47_ccce_518f_f02d),
                files: &[],
            },
            Pin {
                args: &["--json"],
                stdout: Stdout::Golden("chains.json"),
                files: &[],
            },
            // The compiled backend owns no golden byte: it must
            // reproduce the event kernel's report.
            Pin {
                args: &["--json", "--backend", "compiled"],
                stdout: Stdout::Golden("chains.json"),
                files: &[],
            },
        ],
    );
}

#[test]
fn table1_output_is_pinned() {
    check(
        env!("CARGO_BIN_EXE_table1"),
        "table1",
        &[
            Pin {
                args: &["--quick", "--jobs", "1"],
                stdout: Stdout::Digest(0x851c_8c39_a6f0_c60c),
                files: &[],
            },
            // The default worker count must reproduce the serial report.
            Pin {
                args: &["--quick"],
                stdout: Stdout::Digest(0x851c_8c39_a6f0_c60c),
                files: &[],
            },
            Pin {
                args: &["--json"],
                stdout: Stdout::Golden("table1.json"),
                files: &[],
            },
            Pin {
                args: &[
                    "--json",
                    "--cell",
                    "mixed_clock:4x8",
                    "--latency-steps",
                    "2",
                ],
                stdout: Stdout::Digest(0x8c1e_f993_07fc_76da),
                files: &[],
            },
        ],
    );
}
