//! Simulation errors.

use std::error::Error;
use std::fmt;

use crate::time::Time;

/// An error that aborts a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// More events than [`max_events_per_instant`] were processed at a
    /// single timestamp — almost always a zero-delay combinational loop in
    /// the netlist.
    ///
    /// [`max_events_per_instant`]: crate::Simulator::max_events_per_instant
    DeltaOverflow {
        /// The instant at which the oscillation was detected.
        time: Time,
        /// How many events had been processed at that instant.
        events: u64,
    },
    /// A worker of [`run_sharded`](crate::run_sharded) panicked (in its
    /// setup closure, a component or its finalizer). Its peers were
    /// released with final sentinels, so the run still ended.
    ShardPanicked {
        /// Index of the panicking shard.
        index: usize,
        /// The panic message (empty if the payload was not a string).
        msg: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DeltaOverflow { time, events } => write!(
                f,
                "delta overflow at {time}: {events} events at one instant \
                 (zero-delay loop?)"
            ),
            SimError::ShardPanicked { index, msg } => write!(f, "shard {index} panicked: {msg}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_time() {
        let e = SimError::DeltaOverflow {
            time: Time::from_ns(3),
            events: 42,
        };
        let s = e.to_string();
        assert!(s.contains("3.000ns"));
        assert!(s.contains("42"));
    }
}
