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

/// One entry of a net's watcher list: a component id, with
/// [`Watcher::RISING`] set when the component wakes only on the net's
/// `L`→`H` transitions. One list per net keeps every wake in registration
/// order, whatever its mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Watcher(u32);

impl Watcher {
    /// The rising-only bit; component ids stay below it.
    pub(crate) const RISING: u32 = 1 << 31;

    pub(crate) fn new(comp: ComponentId, rising_only: bool) -> Self {
        Watcher(comp.0 | if rising_only { Self::RISING } else { 0 })
    }

    pub(crate) fn comp(self) -> ComponentId {
        ComponentId(self.0 & !Self::RISING)
    }

    pub(crate) fn rising_only(self) -> bool {
        self.0 & Self::RISING != 0
    }
}

#[derive(Debug)]
pub(crate) struct Net {
    label: NetLabel,
    /// Rendered form of a `Bit` label, materialised on first request.
    name_cache: OnceCell<String>,
    pub drivers: Vec<DriverId>,
    pub watchers: Vec<Watcher>,
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

impl Net {
    pub(crate) fn new(label: NetLabel) -> Self {
        Net {
            label,
            name_cache: OnceCell::new(),
            drivers: Vec::new(),
            watchers: Vec::new(),
            resolved: Logic::Z,
            last_change: Time::ZERO,
            last_rise: Time::MAX,
            traced: false,
            toggles: 0,
        }
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
