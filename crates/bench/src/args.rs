//! Shared command-line parsing for the experiment binaries.
//!
//! All thirteen binaries accept the same core flags (`--json`, `--jobs N`,
//! `--stats`, `--quick`, `--latency-steps N`, …); this module parses them
//! once so each `main` only reads typed accessors instead of re-scanning
//! `std::env::args()` by hand.

use crate::sweep;

/// Flags that consume the following argument as their value. Positional
/// arguments are whatever remains after removing flags and these values.
const VALUE_FLAGS: &[&str] = &[
    "--jobs",
    "--latency-steps",
    "--runs",
    "--cell",
    "--shards",
    "--backend",
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
    /// flag is absent.
    ///
    /// # Panics
    ///
    /// Panics with a readable message when the flag is present but its
    /// value is missing or malformed.
    pub fn usize_of(&self, name: &str, default: usize) -> usize {
        match self.value_of(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("{name} wants a number, got {v:?}")),
        }
    }

    /// `--json`: emit one structured report instead of text.
    pub fn json(&self) -> bool {
        self.flag("--json")
    }

    /// `--jobs N` (default: all cores, clamped to ≥ 1), via
    /// [`sweep::parse_jobs`] so every binary shares one spelling.
    pub fn jobs(&self) -> usize {
        sweep::parse_jobs(&self.raw)
    }

    /// `--shards N` (default 1 = the plain single-simulator path): how
    /// many worker shards chain simulations may split across. Registry
    /// designs are gate-level-inseparable (see
    /// `mtf_core::partition_design`), so `table1`/`robustness` report
    /// the partition verdict instead of pretending to parallelise.
    pub fn shards(&self) -> usize {
        self.usize_of("--shards", 1).max(1)
    }

    /// `--backend {event,compiled}` (default `event`): which execution
    /// backend the experiment's simulations run on. The two are
    /// observationally equivalent (`tests/backend_equivalence.rs`), so
    /// any report difference beyond the kernel counters is a bug.
    ///
    /// # Panics
    ///
    /// Panics with a readable message on an unknown backend name.
    pub fn backend(&self) -> mtf_sim::Backend {
        match self.value_of("--backend") {
            None => mtf_sim::Backend::Event,
            Some(v) => v
                .parse()
                .unwrap_or_else(|e: String| panic!("--backend: {e}")),
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
        assert_eq!(a.shards(), 4);
        assert_eq!(Args::from(&[]).shards(), 1);
        assert_eq!(a.positional(0), Some("8"));
        assert_eq!(a.positional(1), Some("16"));
        assert_eq!(a.positional(2), None);
    }

    #[test]
    #[should_panic(expected = "--jobs wants a number")]
    fn malformed_value_panics() {
        Args::from(&["--jobs", "three"]).usize_of("--jobs", 1);
    }
}
