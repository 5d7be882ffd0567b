//! Four-valued signal logic and small bit-vectors.

use std::fmt;
use std::ops::Not;

/// A four-valued logic level.
///
/// * `L` — driven low (logic 0)
/// * `H` — driven high (logic 1)
/// * `X` — unknown / metastable / driver conflict
/// * `Z` — high impedance (undriven)
///
/// `X` propagates pessimistically through the gate library, and is also the
/// value a flip-flop output takes while metastable (see
/// [`MetaModel`](crate::MetaModel)). `Z` is produced only by disabled
/// tri-state drivers; the FIFO cells of the paper broadcast dequeued data on
/// shared tri-state `get_data` buses, which is why the kernel supports it
/// natively.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Logic {
    /// Driven low.
    L,
    /// Driven high.
    H,
    /// Unknown or metastable.
    X,
    /// High impedance (undriven).
    #[default]
    Z,
}

impl Logic {
    /// Converts a `bool` to a strongly driven level.
    #[inline]
    pub fn from_bool(b: bool) -> Logic {
        if b {
            Logic::H
        } else {
            Logic::L
        }
    }

    /// `Some(true)` for `H`, `Some(false)` for `L`, `None` otherwise.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::L => Some(false),
            Logic::H => Some(true),
            _ => None,
        }
    }

    /// True if the value is a driven 0 or 1.
    #[inline]
    pub fn is_definite(self) -> bool {
        matches!(self, Logic::L | Logic::H)
    }

    /// Resolves two simultaneous driver contributions on one net.
    ///
    /// `Z` yields to anything; agreeing drivers keep their value; any other
    /// combination (conflict, or an `X` contribution) is `X`.
    ///
    /// The operation is commutative and associative with identity `Z`, so a
    /// net with any number of drivers has a well-defined resolved value.
    /// The fold depends only on which levels are present, so the
    /// simulator resolves a net from counts of its drivers' `L`, `H` and
    /// `X` contributions instead of folding them: any `X`, or both `L`
    /// and `H`, gives `X`; otherwise the level present; otherwise `Z`.
    #[inline]
    pub fn resolve(self, other: Logic) -> Logic {
        use Logic::*;
        match (self, other) {
            (Z, v) | (v, Z) => v,
            (a, b) if a == b => a,
            _ => X,
        }
    }

    /// Kleene AND: `L` dominates, `H` is identity, otherwise `X`.
    #[inline]
    pub fn and(self, other: Logic) -> Logic {
        use Logic::*;
        match (self, other) {
            (L, _) | (_, L) => L,
            (H, H) => H,
            _ => X,
        }
    }

    /// Kleene OR: `H` dominates, `L` is identity, otherwise `X`.
    #[inline]
    pub fn or(self, other: Logic) -> Logic {
        use Logic::*;
        match (self, other) {
            (H, _) | (_, H) => H,
            (L, L) => L,
            _ => X,
        }
    }

    /// Kleene XOR: definite on definite inputs, otherwise `X`.
    #[inline]
    pub fn xor(self, other: Logic) -> Logic {
        match (self.to_bool(), other.to_bool()) {
            (Some(a), Some(b)) => Logic::from_bool(a ^ b),
            _ => Logic::X,
        }
    }

    /// The single-character display form (`0`, `1`, `x`, `z`),
    /// matching VCD conventions.
    #[inline]
    pub fn as_char(self) -> char {
        match self {
            Logic::L => '0',
            Logic::H => '1',
            Logic::X => 'x',
            Logic::Z => 'z',
        }
    }
}

impl Not for Logic {
    type Output = Logic;
    /// Kleene NOT: definite values invert, `X` and `Z` both become `X`
    /// (a floating gate input is an unknown input).
    #[inline]
    fn not(self) -> Logic {
        match self {
            Logic::L => Logic::H,
            Logic::H => Logic::L,
            _ => Logic::X,
        }
    }
}

impl From<bool> for Logic {
    #[inline]
    fn from(b: bool) -> Logic {
        Logic::from_bool(b)
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_char())
    }
}

/// A fixed-width vector of [`Logic`] values — a data word on a bus.
///
/// Bit 0 is the least significant bit. Used by the word-level register and
/// bus helpers in `mtf-gates` and by the FIFO data paths.
///
/// ```
/// use mtf_sim::{Logic, LogicVec};
/// let w = LogicVec::from_u64(0b1010, 4);
/// assert_eq!(w.bit(1), Logic::H);
/// assert_eq!(w.to_u64(), Some(0b1010));
/// assert_eq!(format!("{w}"), "1010");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LogicVec {
    bits: Vec<Logic>,
}

impl LogicVec {
    /// A vector of `width` copies of `fill`.
    pub fn filled(fill: Logic, width: usize) -> Self {
        LogicVec {
            bits: vec![fill; width],
        }
    }

    /// All-`X` vector (the reset state of an uninitialised register).
    pub fn unknown(width: usize) -> Self {
        Self::filled(Logic::X, width)
    }

    /// The low `width` bits of `value`, LSB first.
    pub fn from_u64(value: u64, width: usize) -> Self {
        assert!(width <= 64, "LogicVec::from_u64 supports at most 64 bits");
        LogicVec {
            bits: (0..width)
                .map(|i| Logic::from_bool((value >> i) & 1 == 1))
                .collect(),
        }
    }

    /// Builds from a slice of levels (index 0 = LSB).
    pub fn from_bits(bits: &[Logic]) -> Self {
        LogicVec {
            bits: bits.to_vec(),
        }
    }

    /// Number of bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The level of bit `i` (LSB = 0).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn bit(&self, i: usize) -> Logic {
        self.bits[i]
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn set_bit(&mut self, i: usize, v: Logic) {
        self.bits[i] = v;
    }

    /// Iterates LSB-first over the levels.
    pub fn iter(&self) -> impl Iterator<Item = Logic> + '_ {
        self.bits.iter().copied()
    }

    /// The numeric value, if every bit is definite and width ≤ 64.
    pub fn to_u64(&self) -> Option<u64> {
        if self.bits.len() > 64 {
            return None;
        }
        let mut v = 0u64;
        for (i, b) in self.bits.iter().enumerate() {
            match b.to_bool() {
                Some(true) => v |= 1 << i,
                Some(false) => {}
                None => return None,
            }
        }
        Some(v)
    }

    /// True if every bit is a driven 0 or 1.
    pub fn is_definite(&self) -> bool {
        self.bits.iter().all(|b| b.is_definite())
    }
}

impl fmt::Display for LogicVec {
    /// MSB-first character string, matching waveform-viewer conventions.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.bits.iter().rev() {
            write!(f, "{}", b.as_char())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Logic::*;

    #[test]
    fn resolve_is_commutative_with_identity_z() {
        for a in [L, H, X, Z] {
            assert_eq!(a.resolve(Z), a);
            assert_eq!(Z.resolve(a), a);
            for b in [L, H, X, Z] {
                assert_eq!(a.resolve(b), b.resolve(a));
            }
        }
    }

    #[test]
    fn resolve_conflict_is_x() {
        assert_eq!(L.resolve(H), X);
        assert_eq!(H.resolve(X), X);
        assert_eq!(L.resolve(L), L);
        assert_eq!(H.resolve(H), H);
    }

    #[test]
    fn resolve_is_associative() {
        let vals = [L, H, X, Z];
        for a in vals {
            for b in vals {
                for c in vals {
                    assert_eq!(a.resolve(b).resolve(c), a.resolve(b.resolve(c)));
                }
            }
        }
    }

    #[test]
    fn kleene_and_or() {
        assert_eq!(L.and(X), L);
        assert_eq!(H.and(X), X);
        assert_eq!(H.and(H), H);
        assert_eq!(H.or(X), H);
        assert_eq!(L.or(X), X);
        assert_eq!(L.or(L), L);
        assert_eq!(Z.and(H), X);
        assert_eq!(Z.or(L), X);
    }

    #[test]
    fn kleene_not() {
        assert_eq!(!L, H);
        assert_eq!(!H, L);
        assert_eq!(!X, X);
        assert_eq!(!Z, X);
    }

    #[test]
    fn xor_definite_only() {
        assert_eq!(L.xor(H), H);
        assert_eq!(H.xor(H), L);
        assert_eq!(H.xor(X), X);
        assert_eq!(Z.xor(L), X);
    }

    #[test]
    fn bool_round_trip() {
        assert_eq!(Logic::from(true), H);
        assert_eq!(Logic::from(false), L);
        assert_eq!(H.to_bool(), Some(true));
        assert_eq!(X.to_bool(), None);
        assert_eq!(Z.to_bool(), None);
    }

    #[test]
    fn logicvec_round_trip() {
        let v = LogicVec::from_u64(0xA5, 8);
        assert_eq!(v.to_u64(), Some(0xA5));
        assert_eq!(v.width(), 8);
        assert_eq!(v.bit(0), H);
        assert_eq!(v.bit(1), L);
    }

    #[test]
    fn logicvec_with_x_has_no_value() {
        let mut v = LogicVec::from_u64(3, 4);
        v.set_bit(2, X);
        assert_eq!(v.to_u64(), None);
        assert!(!v.is_definite());
    }

    #[test]
    fn logicvec_display_is_msb_first() {
        assert_eq!(format!("{}", LogicVec::from_u64(0b0110, 4)), "0110");
        let mut v = LogicVec::from_u64(0, 2);
        v.set_bit(0, Z);
        assert_eq!(format!("{v}"), "0z");
    }

    #[test]
    fn unknown_is_all_x() {
        let v = LogicVec::unknown(3);
        assert!(v.iter().all(|b| b == X));
        assert_eq!(v.to_u64(), None);
    }
}
