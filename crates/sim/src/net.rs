//! Nets (wires) and drivers.

use std::cell::OnceCell;
use std::rc::Rc;

use crate::component::ComponentId;
use crate::logic::Logic;
use crate::time::Time;

/// Identifies a net (a wire, possibly with several drivers) in a
/// [`Simulator`](crate::Simulator).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index of this net; stable for the lifetime of the simulator.
    /// Used by `mtf-timing` to align its netlist graph with the simulator.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a raw index (for tools that iterate nets by
    /// position; the index must come from [`NetId::index`] or be below
    /// [`Simulator::net_count`](crate::Simulator::net_count)).
    pub fn from_index(i: usize) -> Self {
        NetId(i as u32)
    }
}

/// Identifies one driver (output pin) attached to a net.
///
/// Each driver contributes a [`Logic`] level; the net's resolved value is
/// the [`Logic::resolve`] fold of all contributions. A driver that has never
/// been driven contributes `Z`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DriverId(pub(crate) u32);

/// How a net is labelled. Bus bits share one `Rc<str>` base name and
/// render `base[i]` lazily, so building a wide datapath does not allocate a
/// formatted `String` per bit.
#[derive(Debug, Clone)]
pub(crate) enum NetLabel {
    Plain(String),
    Bit { base: Rc<str>, bit: u32 },
}

/// How a component watches a net (see
/// [`Simulator::add_clocked_component`](crate::Simulator::add_clocked_component)
/// and
/// [`Simulator::add_sampling_component`](crate::Simulator::add_sampling_component)).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Watch {
    /// Every resolved change wakes the component.
    Change = 0,
    /// Only `L`→`H` transitions wake it.
    Rising = 1,
    /// A change wakes it only inside its listen window; outside, it ends
    /// the component's sleep.
    Control = 2,
    /// A change wakes it only inside its listen window; outside, it
    /// updates the sleep by the component's data rule.
    Data = 3,
}

/// One entry of a net's watcher list: a component id in the low bits and
/// its [`Watch`] mode in the top two. One list per net keeps every wake in
/// registration order, whatever its mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Watcher(u32);

impl Watcher {
    /// The first bit of the mode; component ids stay below it.
    pub(crate) const MODE_SHIFT: u32 = 30;

    pub(crate) fn new(comp: ComponentId, mode: Watch) -> Self {
        Watcher(comp.0 | (mode as u32) << Self::MODE_SHIFT)
    }

    pub(crate) fn comp(self) -> ComponentId {
        ComponentId(self.0 & ((1 << Self::MODE_SHIFT) - 1))
    }

    pub(crate) fn mode(self) -> Watch {
        match self.0 >> Self::MODE_SHIFT {
            0 => Watch::Change,
            1 => Watch::Rising,
            2 => Watch::Control,
            _ => Watch::Data,
        }
    }
}

#[derive(Debug)]
pub(crate) struct Net {
    label: NetLabel,
    /// Rendered form of a `Bit` label, materialised on first request.
    name_cache: OnceCell<String>,
    pub watchers: Vec<Watcher>,
    /// How many drivers contribute each level, indexed by the `Logic`
    /// (the `Z` entry counts the high-impedance ones), so the sum is the
    /// number of drivers. Kept by [`Net::contribute`].
    levels: [u32; 4],
    pub resolved: Logic,
    pub last_change: Time,
    /// The instant of the latest `L`→`H` transition (`Time::MAX` before
    /// the first one).
    pub last_rise: Time,
    pub traced: bool,
    /// Number of resolved-value changes since construction (the raw
    /// material of dynamic-energy estimation).
    pub toggles: u64,
}

// The event loop reads a net per landed drive and per wake it fans out,
// so the net table is hot: growing `Net` by a field costs every drive of
// every run, and a new field must be added on purpose, with this pin (the
// size of `Event` is pinned the same way).
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Net>() == 128);

impl Net {
    pub(crate) fn new(label: NetLabel) -> Self {
        Net {
            label,
            name_cache: OnceCell::new(),
            watchers: Vec::new(),
            levels: [0; 4],
            resolved: Logic::Z,
            last_change: Time::ZERO,
            last_rise: Time::MAX,
            traced: false,
            toggles: 0,
        }
    }

    /// Attaches one more driver, contributing `Z`.
    pub(crate) fn add_driver(&mut self) {
        self.levels[Logic::Z as usize] += 1;
    }

    /// The number of drivers attached.
    pub(crate) fn driver_count(&self) -> usize {
        self.levels.iter().map(|&n| n as usize).sum()
    }

    /// Moves one driver's contribution from `old` to `new` in the level
    /// counts. Every change of a driver's value goes through here.
    #[inline]
    pub(crate) fn contribute(&mut self, old: Logic, new: Logic) {
        self.levels[old as usize] -= 1;
        self.levels[new as usize] += 1;
    }

    /// The [`Logic::resolve`] fold of every driver's contribution, read
    /// off the level counts: any `X`, or both `L` and `H`, is `X`;
    /// otherwise the one level present; otherwise `Z`.
    #[inline]
    pub(crate) fn resolution(&self) -> Logic {
        use Logic::*;
        const BY_PRESENT: [Logic; 8] = [Z, L, H, X, X, X, X, X];
        let [l, h, x, _] = self.levels.map(|n| usize::from(n > 0));
        BY_PRESENT[l | h << 1 | x << 2]
    }

    pub(crate) fn name(&self) -> &str {
        match &self.label {
            NetLabel::Plain(s) => s,
            NetLabel::Bit { base, bit } => self.name_cache.get_or_init(|| format!("{base}[{bit}]")),
        }
    }
}

#[derive(Debug)]
pub(crate) struct Driver {
    pub net: NetId,
    pub value: Logic,
    /// Sequence number of the most recently scheduled component drive
    /// event for this driver, or `u64::MAX` (a number the queue never
    /// takes) before the first and once an elided drive has cancelled it.
    /// A component drive event whose own seq differs is stale: a later
    /// schedule cancelled it (inertial-delay behaviour).
    pub pending_seq: u64,
}
