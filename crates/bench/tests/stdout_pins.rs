//! Byte-exact pins of the experiment binaries' observable output.
//!
//! Each invocation runs in a fresh working directory; its stdout, its
//! exit status (0) and every file it writes there are pinned by an
//! FNV-1a digest. A refactor of the binaries or of the library code
//! they share must leave every digest in place. A deliberate change to
//! a report updates the digest here together with the golden it moves.

use std::path::PathBuf;
use std::process::Command;

/// One invocation and the digests it must reproduce.
struct Pin {
    args: &'static [&'static str],
    stdout: u64,
    files: &'static [(&'static str, u64)],
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs every pin of `bin` in its own scratch directory and checks the
/// exit status, the stdout digest and the set of written files.
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
        assert_eq!(
            fnv1a(&out.stdout),
            pin.stdout,
            "{what}: stdout digest {:#018x}",
            fnv1a(&out.stdout)
        );
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
                stdout: 0xadc5_3b35_856b_252e,
                files: &[],
            },
            Pin {
                args: &["--json"],
                stdout: 0xf5cb_b8a7_230f_bdc8,
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
                stdout: 0xbe6c_8eae_547c_233c,
                files: &[],
            },
            Pin {
                args: &["--json"],
                stdout: 0x4411_64c4_e5d8_6f07,
                files: &[],
            },
            Pin {
                args: &["--contracts"],
                stdout: 0x62ee_026c_4a50_f2b9,
                files: &[],
            },
            Pin {
                args: &["--contracts", "--json"],
                stdout: 0xec61_4892_2340_6672,
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
                stdout: 0xf659_3fef_aed4_5333,
                files: &[],
            },
            Pin {
                args: &["--json"],
                stdout: 0x7eab_3f28_b4d4_2ad8,
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
                stdout: 0x0ae1_3b98_ed0e_49fe,
                files: FIG3_FILES,
            },
            Pin {
                args: &["--json"],
                stdout: 0x5591_e5fb_e977_7c63,
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
                stdout: 0xc950_fe18_7d1a_82d4,
                files: &[],
            },
            Pin {
                args: &["--json"],
                stdout: 0x7181_da75_05f0_9882,
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
                stdout: 0x8bb8_fa42_ff84_1371,
                files: &[],
            },
            Pin {
                args: &["--json"],
                stdout: 0xc5dd_0d4e_2102_fdb3,
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
                stdout: 0x3d19_2405_0ab7_af26,
                files: VERILOG_FILES,
            },
            Pin {
                args: &["--json"],
                stdout: 0x8692_73c7_21e5_01dd,
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
                stdout: 0xec9c_92ab_9b13_f9d9,
                files: &[],
            },
            Pin {
                args: &["--runs", "4", "--jobs", "1", "--json"],
                stdout: 0x7993_7b3b_12f3_dd6a,
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
                stdout: 0xbf54_74e8_e1da_a643,
                files: &[],
            },
            Pin {
                args: &["--items", "12", "--json"],
                stdout: 0x0f47_ccce_518f_f02d,
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
                stdout: 0x851c_8c39_a6f0_c60c,
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
                stdout: 0x8c1e_f993_07fc_76da,
                files: &[],
            },
        ],
    );
}
