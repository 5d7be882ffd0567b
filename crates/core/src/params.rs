//! Design parameters shared by all FIFO variants.

use std::fmt;

/// The largest buildable capacity. Every design, test and experiment in
/// the workspace uses at most 16 cells; the bound keeps a point that
/// comes from outside the program (`--capacity`, `--cell`) from
/// elaborating a netlist whose analyses run for minutes: the netlist lint
/// grows faster than quadratically in the cell count (about 3 s at 256
/// cells, over 2 min at 1,024, release build on a 2-vCPU Xeon).
pub const MAX_CAPACITY: usize = 256;

/// Parameters of a FIFO or relay-station instance.
///
/// The paper's Table 1 sweeps `capacity` over {4, 8, 16} and `width` over
/// {8, 16}; `sync_stages` is 2 throughout the paper ("a pair of
/// synchronizing latches"), with the remark that more can be used "for
/// arbitrary robustness" — experiment E8 sweeps it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FifoParams {
    /// Number of cells in the circular array. Must be at least 3: the
    /// anticipating detectors declare an `n`-place FIFO full/empty with one
    /// place in reserve, so 2 places would leave no usable capacity. At
    /// most [`MAX_CAPACITY`].
    pub capacity: usize,
    /// Data width in bits (excluding the validity bit the cell stores
    /// alongside).
    pub width: usize,
    /// Depth of each global-signal synchronizer.
    pub sync_stages: usize,
}

impl FifoParams {
    /// Parameters with the paper's default synchronizer depth (2).
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 3` or `capacity > MAX_CAPACITY` (256), or
    /// if `width == 0` or `width > 63` (one extra bit is reserved for
    /// validity and journals carry `u64` values).
    pub fn new(capacity: usize, width: usize) -> Self {
        Self::with_sync_stages(capacity, width, 2)
    }

    /// Parameters with an explicit synchronizer depth (≥ 1).
    ///
    /// # Panics
    ///
    /// As [`FifoParams::new`] (a capacity outside `3..=MAX_CAPACITY`, a
    /// width outside `1..=63`), plus `sync_stages == 0`.
    pub fn with_sync_stages(capacity: usize, width: usize, sync_stages: usize) -> Self {
        Self::try_with_sync_stages(capacity, width, sync_stages).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`FifoParams::new`] for parameters that come from outside the
    /// program (command lines, sweep specs): an unbuildable point is an
    /// error, not a panic.
    pub fn try_new(capacity: usize, width: usize) -> Result<Self, ParamError> {
        Self::try_with_sync_stages(capacity, width, 2)
    }

    /// [`FifoParams::with_sync_stages`], returning the broken rule instead
    /// of panicking. This is the one definition of a buildable point.
    pub fn try_with_sync_stages(
        capacity: usize,
        width: usize,
        sync_stages: usize,
    ) -> Result<Self, ParamError> {
        if !(3..=MAX_CAPACITY).contains(&capacity) {
            return Err(ParamError::Capacity(capacity));
        }
        if width == 0 || width > 63 {
            return Err(ParamError::Width(width));
        }
        if sync_stages == 0 {
            return Err(ParamError::SyncStages);
        }
        Ok(FifoParams {
            capacity,
            width,
            sync_stages,
        })
    }
}

/// Why a parameter point cannot be built ([`FifoParams::try_new`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParamError {
    /// Fewer than 3 cells, or more than [`MAX_CAPACITY`].
    Capacity(usize),
    /// A data width outside `1..=63`.
    Width(usize),
    /// No synchronizer stage.
    SyncStages,
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::Capacity(c) if *c < 3 => {
                write!(f, "capacity must be at least 3 (got {c})")
            }
            ParamError::Capacity(c) => {
                write!(f, "capacity must be at most {MAX_CAPACITY} (got {c})")
            }
            ParamError::Width(w) => write!(f, "width must be in 1..=63 (got {w})"),
            ParamError::SyncStages => f.write_str("at least one synchronizer stage required"),
        }
    }
}

impl std::error::Error for ParamError {}

impl fmt::Display for FifoParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-place/{}-bit", self.capacity, self.width)?;
        if self.sync_stages != 2 {
            write!(f, "/{}-sync", self.sync_stages)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_shape() {
        assert_eq!(FifoParams::new(8, 16).to_string(), "8-place/16-bit");
        assert_eq!(
            FifoParams::with_sync_stages(4, 8, 3).to_string(),
            "4-place/8-bit/3-sync"
        );
    }

    #[test]
    fn checked_constructor_names_the_broken_rule() {
        assert_eq!(FifoParams::try_new(4, 8), Ok(FifoParams::new(4, 8)));
        assert_eq!(FifoParams::try_new(0, 8), Err(ParamError::Capacity(0)));
        assert!(FifoParams::try_new(MAX_CAPACITY, 8).is_ok());
        assert_eq!(
            FifoParams::try_new(MAX_CAPACITY + 1, 8),
            Err(ParamError::Capacity(MAX_CAPACITY + 1))
        );
        assert_eq!(
            ParamError::Capacity(2).to_string(),
            "capacity must be at least 3 (got 2)"
        );
        assert_eq!(
            ParamError::Capacity(100_000).to_string(),
            "capacity must be at most 256 (got 100000)"
        );
        assert_eq!(FifoParams::try_new(4, 64), Err(ParamError::Width(64)));
        assert_eq!(
            FifoParams::try_with_sync_stages(4, 8, 0),
            Err(ParamError::SyncStages)
        );
        assert_eq!(
            ParamError::Width(0).to_string(),
            "width must be in 1..=63 (got 0)"
        );
    }

    #[test]
    #[should_panic]
    fn capacity_two_rejected() {
        let _ = FifoParams::new(2, 8);
    }

    #[test]
    #[should_panic]
    fn zero_width_rejected() {
        let _ = FifoParams::new(4, 0);
    }

    #[test]
    #[should_panic]
    fn zero_sync_rejected() {
        let _ = FifoParams::with_sync_stages(4, 8, 0);
    }
}
