//! The global-state detectors of Section 3.2: anticipating full/empty and
//! the bi-modal (deadlock-free) empty synchronizer.
//!
//! Synchronizing the global `full`/`empty` signals costs two receiver-clock
//! cycles, during which the other interface may slip one more operation in.
//! The paper absorbs that slip by *anticipating*: the FIFO is declared full
//! while one empty cell remains, and new-empty while one data item remains
//! — implemented as "no two **consecutive** empty (full) cells", which is
//! exact because the occupied region of the ring is always contiguous.
//!
//! Anticipated empty alone would deadlock a FIFO holding exactly one item,
//! so the empty detector is **bi-modal**: the true-empty signal `oe`
//! (NOR of all `f_i`) dominates when no get happened recently, letting the
//! receiver fetch the last item; the `en_get`-controlled OR gate forces the
//! `oe` path to a neutral "empty" for one cycle after every get so the
//! anticipating `ne` path protects against underflow exactly when it must.

use mtf_gates::Builder;
use mtf_sim::{Logic, NetId};

/// The anticipation window of the occupancy detectors for synchronizers
/// of `sync_stages` flops: the synchronizer lag, and at least the
/// paper's 2. The netlists, the formal models and the derived contracts
/// all read it from here.
pub fn anticipation_window(sync_stages: usize) -> usize {
    sync_stages.max(2)
}

/// Builds the anticipating **full** detector (paper Fig. 6a):
/// `full = NOR over i of AND(e_i, …, e_{i+window−1})` — full unless
/// `window` consecutive cells are empty.
///
/// The paper's instance is `window = 2`, matched to its two-flop
/// synchronizers; in general the anticipation margin must equal the
/// synchronizer lag, because up to `window − 1` extra puts slip through
/// while the raw signal crosses into the put domain. Callers pass
/// [`anticipation_window`]`(sync_stages)`.
///
/// `empties[i]` is cell *i*'s `e_i` line (high = empty). Returns the raw
/// (unsynchronized) `full` net.
///
/// # Panics
///
/// Panics if `window < 2` or the ring does not have more cells than the
/// window (no usable capacity would remain).
pub fn build_full_detector(b: &mut Builder<'_>, empties: &[NetId], window: usize) -> NetId {
    assert!(window >= 2, "anticipation window must be at least 2");
    assert!(
        empties.len() > window,
        "ring must have more cells than the anticipation window"
    );
    b.push_scope("full_det");
    let n = empties.len();
    let groups: Vec<NetId> = (0..n)
        .map(|i| {
            let run: Vec<NetId> = (0..window).map(|k| empties[(i + k) % n]).collect();
            b.and(&run)
        })
        .collect();
    let full = b.nor(&groups);
    b.pop_scope();
    full
}

/// Builds the anticipating **new-empty** detector (paper Fig. 6b):
/// `ne = NOR over i of AND(f_i, …, f_{i+window−1})` — empty unless
/// `window` consecutive cells are full. See [`build_full_detector`] for
/// the window-vs-synchronizer-depth relationship.
///
/// `fulls[i]` is cell *i*'s `f_i` line (high = holds a data item).
///
/// # Panics
///
/// As [`build_full_detector`].
pub fn build_ne_detector(b: &mut Builder<'_>, fulls: &[NetId], window: usize) -> NetId {
    assert!(window >= 2, "anticipation window must be at least 2");
    assert!(
        fulls.len() > window,
        "ring must have more cells than the anticipation window"
    );
    b.push_scope("ne_det");
    let n = fulls.len();
    let groups: Vec<NetId> = (0..n)
        .map(|i| {
            let run: Vec<NetId> = (0..window).map(|k| fulls[(i + k) % n]).collect();
            b.and(&run)
        })
        .collect();
    let ne = b.nor(&groups);
    b.pop_scope();
    ne
}

/// Builds the **true-empty** detector (paper Fig. 6c):
/// `oe = NOR over i of f_i` — empty only when no cell holds data.
pub fn build_oe_detector(b: &mut Builder<'_>, fulls: &[NetId]) -> NetId {
    b.push_scope("oe_det");
    let oe = b.nor(fulls);
    b.pop_scope();
    oe
}

/// Builds the **bi-modal empty** synchronizer and combiner (paper Fig. 7):
/// synchronizes `ne` through `stages` flops and `oe` through
/// `stages − 1` flops plus a final flop whose input is
/// `oe_stage OR en_get` (the neutralising OR gate), then combines
/// `empty = ne_sync AND oe_sync`.
///
/// All flops are clocked by `clk_get` and power on reading "empty" (the
/// FIFO starts empty, so this is also the glitch-free choice).
///
/// Returns the global `empty` net.
///
/// # Panics
///
/// Panics if `stages == 0`.
pub fn build_bimodal_empty(
    b: &mut Builder<'_>,
    clk_get: NetId,
    ne_raw: NetId,
    oe_raw: NetId,
    en_get: NetId,
    stages: usize,
) -> NetId {
    assert!(stages >= 1, "at least one synchronizer stage required");
    b.push_scope("empty_sync");
    let ne_sync = b.sync_chain(clk_get, ne_raw, stages, Logic::H);

    // oe path: the first flop samples the raw signal; every later flop's
    // input passes through the neutralising OR. For the paper's two stages
    // this is exactly its single OR gate before the second latch; for
    // deeper chains the per-stage ORs are required, because otherwise the
    // pipeline keeps serving stale "non-empty" values for `stages − 1`
    // cycles after a get and the receiver underflows.
    //
    // The `oe_path` scope exists for the CDC lint: logic between
    // synchronizer flops is a textbook CDC finding, but here the paper
    // mandates it, so the per-design waiver tables match on this scope —
    // and only this scope, keeping the plain `ne` chain checkable.
    b.push_scope("oe_path");
    let mut oe = b.sync_dff(clk_get, oe_raw, Logic::H);
    for _ in 1..stages {
        let neutralised = b.or2(oe, en_get);
        oe = b.sync_dff(clk_get, neutralised, Logic::H);
    }
    let oe_sync = if stages == 1 {
        // Degenerate single-stage chain: neutralise at the output instead.
        b.or2(oe, en_get)
    } else {
        oe
    };
    b.pop_scope();

    let empty = b.and2(ne_sync, oe_sync);
    b.pop_scope();
    empty
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtf_sim::{DriverId, Simulator, Time};

    /// Drives the detector input lines combinationally and samples the
    /// outputs after settling.
    struct Rig {
        sim: Simulator,
        lines: Vec<NetId>,
        drvs: Vec<DriverId>,
        out: NetId,
    }

    impl Rig {
        fn set(&mut self, pattern: &[bool]) {
            for (i, &v) in pattern.iter().enumerate() {
                self.sim.drive_at(
                    self.drvs[i],
                    self.lines[i],
                    Logic::from_bool(v),
                    self.sim.now(),
                );
            }
            self.sim.run_for(Time::from_ns(10)).unwrap();
        }

        fn out(&self) -> Logic {
            self.sim.value(self.out)
        }
    }

    fn full_rig(n: usize) -> Rig {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let lines = b.input_bus("e", n);
        let out = build_full_detector(&mut b, &lines, 2);
        drop(b.finish());
        let drvs = lines.iter().map(|&l| sim.driver(l)).collect();
        Rig {
            sim,
            lines,
            drvs,
            out,
        }
    }

    fn ne_rig(n: usize) -> Rig {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let lines = b.input_bus("f", n);
        let out = build_ne_detector(&mut b, &lines, 2);
        drop(b.finish());
        let drvs = lines.iter().map(|&l| sim.driver(l)).collect();
        Rig {
            sim,
            lines,
            drvs,
            out,
        }
    }

    #[test]
    fn full_with_zero_or_one_empty_cell() {
        let mut r = full_rig(4);
        // All cells occupied (no cell empty): full.
        r.set(&[false, false, false, false]);
        assert_eq!(r.out(), Logic::H);
        // One empty cell: still "full" (anticipation).
        r.set(&[true, false, false, false]);
        assert_eq!(r.out(), Logic::H);
        // Two adjacent empty cells: not full.
        r.set(&[true, true, false, false]);
        assert_eq!(r.out(), Logic::L);
        // Wrap-around adjacency counts.
        r.set(&[true, false, false, true]);
        assert_eq!(r.out(), Logic::L);
    }

    #[test]
    fn ne_with_zero_or_one_item() {
        let mut r = ne_rig(4);
        r.set(&[false, false, false, false]);
        assert_eq!(r.out(), Logic::H, "truly empty is new-empty");
        r.set(&[false, true, false, false]);
        assert_eq!(r.out(), Logic::H, "one item is still new-empty");
        r.set(&[false, true, true, false]);
        assert_eq!(r.out(), Logic::L, "two adjacent items: not empty");
        r.set(&[true, false, false, true]);
        assert_eq!(r.out(), Logic::L, "ring wrap-around pair");
    }

    #[test]
    fn oe_only_when_nothing_stored() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let lines = b.input_bus("f", 4);
        let out = build_oe_detector(&mut b, &lines);
        drop(b.finish());
        let drvs: Vec<DriverId> = lines.iter().map(|&l| sim.driver(l)).collect();
        let mut r = Rig {
            sim,
            lines,
            drvs,
            out,
        };
        r.set(&[false, false, false, false]);
        assert_eq!(r.out(), Logic::H);
        r.set(&[false, false, true, false]);
        assert_eq!(r.out(), Logic::L);
    }

    #[test]
    fn window_three_needs_three_consecutive() {
        let mut sim = Simulator::new(0);
        let mut b = Builder::new(&mut sim);
        let lines = b.input_bus("e", 6);
        let out = build_full_detector(&mut b, &lines, 3);
        drop(b.finish());
        let drvs: Vec<DriverId> = lines.iter().map(|&l| sim.driver(l)).collect();
        let mut r = Rig {
            sim,
            lines,
            drvs,
            out,
        };
        // Two adjacent empties are no longer enough to deassert full.
        r.set(&[true, true, false, false, false, false]);
        assert_eq!(r.out(), Logic::H);
        r.set(&[true, true, true, false, false, false]);
        assert_eq!(r.out(), Logic::L);
        // Wrap-around run.
        r.set(&[true, true, false, false, false, true]);
        assert_eq!(r.out(), Logic::L);
    }

    /// Reference predicate: "window consecutive cells (ring-wise) all
    /// satisfy the bit".
    fn has_run(bits: &[bool], window: usize) -> bool {
        let n = bits.len();
        (0..n).any(|i| (0..window).all(|k| bits[(i + k) % n]))
    }

    #[test]
    fn detectors_match_reference_over_contiguous_occupancies() {
        // Queue occupancy is always a contiguous ring segment; sweep every
        // (start, length) for several ring sizes and windows and compare
        // the gate-level detectors with the reference predicate.
        for n in [4usize, 5, 8] {
            for window in [2usize, 3] {
                if window >= n {
                    continue;
                }
                let mut sim = Simulator::new(0);
                let mut b = Builder::new(&mut sim);
                let fulls = b.input_bus("f", n);
                let empties = b.input_bus("e", n);
                let ne = build_ne_detector(&mut b, &fulls, window);
                let full = build_full_detector(&mut b, &empties, window);
                let oe = build_oe_detector(&mut b, &fulls);
                drop(b.finish());
                let df: Vec<DriverId> = fulls.iter().map(|&l| sim.driver(l)).collect();
                let de: Vec<DriverId> = empties.iter().map(|&l| sim.driver(l)).collect();
                for start in 0..n {
                    for len in 0..=n {
                        let mut occ = vec![false; n];
                        for k in 0..len {
                            occ[(start + k) % n] = true;
                        }
                        for i in 0..n {
                            sim.drive_at(df[i], fulls[i], Logic::from_bool(occ[i]), sim.now());
                            sim.drive_at(de[i], empties[i], Logic::from_bool(!occ[i]), sim.now());
                        }
                        sim.run_for(Time::from_ns(15)).unwrap();
                        let free: Vec<bool> = occ.iter().map(|&o| !o).collect();
                        assert_eq!(
                            sim.value(ne),
                            Logic::from_bool(!has_run(&occ, window)),
                            "ne: n={n} window={window} occ={occ:?}"
                        );
                        assert_eq!(
                            sim.value(full),
                            Logic::from_bool(!has_run(&free, window)),
                            "full: n={n} window={window} occ={occ:?}"
                        );
                        assert_eq!(
                            sim.value(oe),
                            Logic::from_bool(len == 0),
                            "oe: n={n} occ={occ:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn larger_rings_work() {
        let mut r = full_rig(16);
        let mut all_occupied = vec![false; 16];
        r.set(&all_occupied);
        assert_eq!(r.out(), Logic::H);
        all_occupied[5] = true;
        all_occupied[6] = true;
        r.set(&all_occupied);
        assert_eq!(r.out(), Logic::L);
    }
}
