//! Shared command-line parsing for the experiment binaries.
//!
//! The binaries share flag spellings (`--json`, `--jobs N`, `--quick`,
//! `--items N`, …) and each declares the subset it reads
//! ([`Args::check_flags`], via [`Run::start`](crate::report::Run::start));
//! this module parses them once so each `main` only reads typed accessors
//! instead of re-scanning `std::env::args()` by hand.
//!
//! A flag the binary does not declare (`--josn`), a value flag with no
//! value (`--capacity` last) or given twice, or a value the binary cannot
//! use (`--shards abc`, `--items 0`, `--backend nosuch`), is an
//! [`ArgError`]: one line on stderr and exit status 2, never a panic.

use std::fmt;
use std::ops::RangeInclusive;

use mtf_core::FifoParams;

use crate::sweep;

/// A command-line value the binary cannot use. `Display` is the one-line
/// message; [`ArgError::exit`] reports it the way every binary does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl ArgError {
    /// Prints `<program>: <message>` on stderr and exits with status 2
    /// (bad usage, as opposed to 1 for a failed check).
    pub fn exit(self) -> ! {
        let prog = std::env::args()
            .next()
            .and_then(|p| {
                std::path::Path::new(&p)
                    .file_name()
                    .map(|f| f.to_string_lossy().into_owned())
            })
            .unwrap_or_else(|| "mtf-bench".to_string());
        eprintln!("{prog}: {self}");
        std::process::exit(2)
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Flags that consume the following argument as their value. Positional
/// arguments are whatever remains after removing flags and these values.
const VALUE_FLAGS: &[&str] = &[
    "--jobs",
    "--latency-steps",
    "--runs",
    "--cell",
    "--shards",
    "--backend",
    "--capacity",
    "--width",
    "--items",
];

/// The parsed command line of an experiment binary.
#[derive(Clone, Debug)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parses the current process's arguments (excluding `argv[0]`).
    pub fn parse() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// An argument list for tests.
    pub fn from(raw: &[&str]) -> Self {
        Args {
            raw: raw.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// True if the bare flag `name` (e.g. `"--quick"`) is present.
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// The value following flag `name`, if present.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        let at = self.raw.iter().position(|a| a == name)?;
        self.raw.get(at + 1).map(String::as_str)
    }

    /// The value following `name`, parsed as `usize`; `default` when the
    /// flag is absent. A malformed value exits the program
    /// ([`ArgError::exit`]).
    pub fn usize_of(&self, name: &str, default: usize) -> usize {
        self.try_usize_of(name, default)
            .unwrap_or_else(|e| e.exit())
    }

    /// [`Args::usize_of`], returning the error instead of exiting.
    pub fn try_usize_of(&self, name: &str, default: usize) -> Result<usize, ArgError> {
        match self.value_of(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("{name} wants a number, got {v:?}"))),
        }
    }

    /// [`Args::usize_of`] for a count that must lie in `range`: a value
    /// outside it exits the program ([`ArgError::exit`]) with a message
    /// naming the bound it crossed.
    pub fn count(&self, name: &str, default: usize, range: RangeInclusive<usize>) -> usize {
        match self.usize_of(name, default) {
            n if n < *range.start() => {
                ArgError(format!("{name} wants at least {}, got {n}", range.start())).exit()
            }
            n if n > *range.end() => {
                ArgError(format!("{name} wants at most {}, got {n}", range.end())).exit()
            }
            n => n,
        }
    }

    /// Rejects any `--` argument not in `known`, the flags (bare and
    /// valued) a binary reads; a value flag followed by nothing or by
    /// another flag; and a value flag given twice, whose first value the
    /// accessors would read while the second went unchecked.
    pub fn check_flags(&self, known: &[&str]) -> Result<(), ArgError> {
        for (i, a) in self.raw.iter().enumerate() {
            if !a.starts_with("--") {
                continue;
            }
            if !known.contains(&a.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag {a} (expected one of {})",
                    known.join(", ")
                )));
            }
            if !VALUE_FLAGS.contains(&a.as_str()) {
                continue;
            }
            if self.raw.get(i + 1).is_none_or(|v| v.starts_with("--")) {
                return Err(ArgError(format!("{a} needs a value")));
            }
            if self.raw[..i].contains(a) {
                return Err(ArgError(format!("{a} given twice")));
            }
        }
        Ok(())
    }

    /// `--capacity N --width W` (default 4 and 8) as a buildable
    /// [`FifoParams`]. A malformed or unbuildable point exits the program
    /// ([`ArgError::exit`]).
    pub fn fifo_params(&self) -> FifoParams {
        FifoParams::try_new(self.usize_of("--capacity", 4), self.usize_of("--width", 8))
            .unwrap_or_else(|e| ArgError(e.to_string()).exit())
    }

    /// `--json`: emit one structured report instead of text.
    pub fn json(&self) -> bool {
        self.flag("--json")
    }

    /// `--jobs N` (default: all cores, [`sweep::default_jobs`]); `0`
    /// clamps to 1. A malformed value exits the program
    /// ([`ArgError::exit`]).
    pub fn jobs(&self) -> usize {
        self.usize_of("--jobs", sweep::default_jobs()).max(1)
    }

    /// `--backend {event,compiled}` (default `event`): which execution
    /// backend the experiment's simulations run on. The two are
    /// observationally equivalent (`tests/backend_equivalence.rs`), so
    /// any report difference beyond the kernel counters is a bug. An
    /// unknown backend name exits the program ([`ArgError::exit`]).
    pub fn backend(&self) -> mtf_sim::Backend {
        match self.value_of("--backend") {
            None => mtf_sim::Backend::Event,
            Some(v) => v
                .parse()
                .unwrap_or_else(|e: String| ArgError(format!("--backend: {e}")).exit()),
        }
    }

    /// The `i`-th positional argument (flags and their values skipped).
    pub fn positional(&self, i: usize) -> Option<&str> {
        let mut skip_next = false;
        let mut seen = 0;
        for a in &self.raw {
            if skip_next {
                skip_next = false;
                continue;
            }
            if a.starts_with("--") {
                skip_next = VALUE_FLAGS.contains(&a.as_str());
                continue;
            }
            if seen == i {
                return Some(a);
            }
            seen += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_values_and_positionals() {
        let a = Args::from(&[
            "8", "--jobs", "3", "--json", "--shards", "4", "16", "--quick",
        ]);
        assert!(a.json());
        assert!(a.flag("--quick"));
        assert!(!a.flag("--stats"));
        assert_eq!(a.value_of("--jobs"), Some("3"));
        assert_eq!(a.usize_of("--jobs", 1), 3);
        assert_eq!(a.usize_of("--latency-steps", 10), 10);
        assert_eq!(a.count("--shards", 1, 1..=8), 4);
        assert_eq!(Args::from(&[]).count("--shards", 1, 1..=8), 1);
        assert_eq!(a.positional(0), Some("8"));
        assert_eq!(a.positional(1), Some("16"));
        assert_eq!(a.positional(2), None);
    }

    #[test]
    fn malformed_values_are_errors() {
        let a = Args::from(&["--shards", "abc", "--jobs", "3"]);
        assert_eq!(
            a.try_usize_of("--shards", 1),
            Err(ArgError("--shards wants a number, got \"abc\"".into()))
        );
        assert_eq!(a.try_usize_of("--jobs", 1), Ok(3));
        assert_eq!(a.try_usize_of("--runs", 7), Ok(7));
        assert_eq!(
            Args::from(&["--jobs", "banana"]).try_usize_of("--jobs", 1),
            Err(ArgError("--jobs wants a number, got \"banana\"".into()))
        );
    }

    #[test]
    fn undeclared_flags_are_errors() {
        let a = Args::from(&["--quick", "--josn", "3"]);
        assert_eq!(a.check_flags(&["--quick", "--josn"]), Ok(()));
        assert_eq!(
            a.check_flags(&["--quick", "--json"]),
            Err(ArgError(
                "unknown flag --josn (expected one of --quick, --json)".into()
            ))
        );
    }

    #[test]
    fn missing_and_repeated_values_are_errors() {
        let known = ["--capacity", "--json"];
        let check = |raw: &[&str]| Args::from(raw).check_flags(&known);
        assert_eq!(check(&["--capacity", "4", "--json"]), Ok(()));
        for raw in [&["--capacity"][..], &["--capacity", "--json"]] {
            let e = ArgError("--capacity needs a value".into());
            assert_eq!(check(raw), Err(e), "{raw:?}");
        }
        assert_eq!(
            check(&["--capacity", "4", "--capacity", "x"]),
            Err(ArgError("--capacity given twice".into()))
        );
        // Bare flags may repeat; they carry no value to disagree on.
        assert_eq!(check(&["--json", "--json"]), Ok(()));
    }

    #[test]
    fn jobs_clamps_zero_to_one() {
        assert_eq!(Args::from(&["--jobs", "3"]).jobs(), 3);
        assert_eq!(Args::from(&["--jobs", "0"]).jobs(), 1);
        assert!(Args::from(&[]).jobs() >= 1);
    }
}
