//! Fixed-width vectors of [`Logic`] values (buses, registers).

use crate::{Logic, LogicPlanes, LANES};
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Index, IndexMut, Not};
use std::str::FromStr;

/// A bus of [`Logic`] values.
///
/// Bit 0 is the least-significant bit; [`fmt::Display`] prints MSB first, as
/// a VHDL bit-string literal would.
///
/// # Examples
///
/// ```
/// use amsfi_waves::LogicVector;
///
/// let v = LogicVector::from_u64(0b1010, 4);
/// assert_eq!(v.to_string(), "1010");
/// assert_eq!(v.to_u64(), Some(10));
/// let flipped = {
///     let mut w = v.clone();
///     w.flip_bit(0);
///     w
/// };
/// assert_eq!(flipped.to_u64(), Some(11));
/// ```
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct LogicVector {
    bits: Vec<Logic>,
}

impl Clone for LogicVector {
    fn clone(&self) -> Self {
        LogicVector {
            bits: self.bits.clone(),
        }
    }

    /// Overwrites `self` in its existing storage: the simulation kernels
    /// refill recycled vectors with this instead of allocating.
    fn clone_from(&mut self, source: &Self) {
        self.bits.clone_from(&source.bits);
    }
}

impl LogicVector {
    /// A vector of `width` bits, all `'U'` (the power-on state).
    pub fn new(width: usize) -> Self {
        LogicVector {
            bits: vec![Logic::Uninitialized; width],
        }
    }

    /// A vector of `width` bits, all set to `value`.
    pub fn filled(value: Logic, width: usize) -> Self {
        LogicVector {
            bits: vec![value; width],
        }
    }

    /// A vector of `width` zero bits.
    pub fn zeros(width: usize) -> Self {
        Self::filled(Logic::Zero, width)
    }

    /// Encodes the low `width` bits of `value`, LSB at index 0.
    pub fn from_u64(value: u64, width: usize) -> Self {
        let mut v = LogicVector::default();
        v.assign_u64(value, width);
        v
    }

    /// In-place [`LogicVector::filled`]: becomes `width` bits of `value`,
    /// reusing the storage it already owns.
    pub fn assign_filled(&mut self, value: Logic, width: usize) {
        self.bits.clear();
        self.bits.resize(width, value);
    }

    /// In-place [`LogicVector::from_u64`]: becomes the low `width` bits of
    /// `value`, reusing the storage it already owns.
    pub fn assign_u64(&mut self, value: u64, width: usize) {
        self.bits.clear();
        self.bits
            .extend((0..width).map(|i| Logic::from_bool(value >> i & 1 == 1)));
    }

    /// Builds from a slice of booleans, index 0 = LSB.
    pub fn from_bools(bools: &[bool]) -> Self {
        LogicVector {
            bits: bools.iter().copied().map(Logic::from_bool).collect(),
        }
    }

    /// Decodes to an integer if every bit is a (weak or strong) 0/1 and the
    /// width fits in 64 bits; `None` otherwise.
    pub fn to_u64(&self) -> Option<u64> {
        if self.bits.len() > 64 {
            return None;
        }
        let mut acc = 0u64;
        for (i, bit) in self.bits.iter().enumerate() {
            if bit.to_bool()? {
                acc |= 1 << i;
            }
        }
        Some(acc)
    }

    /// The number of bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// True if the vector has no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bit at `index`, or `None` if out of range.
    pub fn get(&self, index: usize) -> Option<Logic> {
        self.bits.get(index).copied()
    }

    /// Sets the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn set(&mut self, index: usize, value: Logic) {
        self.bits[index] = value;
    }

    /// Applies an SEU bit-flip ([`Logic::flipped`]) to the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn flip_bit(&mut self, index: usize) {
        self.bits[index] = self.bits[index].flipped();
    }

    /// True if any bit is metalogical (`U`, `X`, `Z`, `W`, `-`).
    pub fn has_metalogical(&self) -> bool {
        self.bits.iter().any(|b| b.is_metalogical())
    }

    /// Iterates over bits from LSB to MSB.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Logic>> {
        self.bits.iter().copied()
    }

    /// The bits as a slice, index 0 = LSB.
    pub fn as_slice(&self) -> &[Logic] {
        &self.bits
    }

    /// Packs bits `[lo, lo + n)` (where `n = min(LANES, width - lo)`) into a
    /// bit-sliced word, bit `lo` in lane 0. Used by the plane-parallel
    /// bulk operators and the batch simulator's divergence masks.
    pub fn planes_from(&self, lo: usize) -> LogicPlanes {
        let hi = self.bits.len().min(lo + LANES);
        LogicPlanes::from_lanes(&self.bits[lo..hi])
    }

    /// Applies a bit-sliced binary kernel chunk-wise over two equal-width
    /// vectors; exact per-bit equality with the scalar operators is proven
    /// by the `LogicPlanes` kernel tests.
    fn zip_planes(
        &self,
        rhs: &LogicVector,
        kernel: impl Fn(LogicPlanes, LogicPlanes) -> LogicPlanes,
    ) -> LogicVector {
        assert_eq!(self.width(), rhs.width(), "bitwise op width mismatch");
        let mut bits = Vec::with_capacity(self.width());
        for lo in (0..self.width()).step_by(LANES) {
            let out = kernel(self.planes_from(lo), rhs.planes_from(lo));
            let n = (self.width() - lo).min(LANES);
            bits.extend((0..n).map(|lane| out.lane(lane)));
        }
        LogicVector { bits }
    }

    /// The number of bits that differ from `other` (both reduced to X01;
    /// a differing metalogical status also counts).
    ///
    /// This is the error-multiplicity metric used when classifying faults.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn hamming_distance(&self, other: &LogicVector) -> usize {
        assert_eq!(
            self.width(),
            other.width(),
            "hamming distance requires equal widths"
        );
        self.bits
            .iter()
            .zip(&other.bits)
            .filter(|(a, b)| a.to_x01() != b.to_x01())
            .count()
    }
}

impl Index<usize> for LogicVector {
    type Output = Logic;
    fn index(&self, index: usize) -> &Logic {
        &self.bits[index]
    }
}

impl IndexMut<usize> for LogicVector {
    fn index_mut(&mut self, index: usize) -> &mut Logic {
        &mut self.bits[index]
    }
}

impl FromIterator<Logic> for LogicVector {
    fn from_iter<I: IntoIterator<Item = Logic>>(iter: I) -> Self {
        LogicVector {
            bits: iter.into_iter().collect(),
        }
    }
}

impl Extend<Logic> for LogicVector {
    fn extend<I: IntoIterator<Item = Logic>>(&mut self, iter: I) {
        self.bits.extend(iter);
    }
}

impl IntoIterator for LogicVector {
    type Item = Logic;
    type IntoIter = std::vec::IntoIter<Logic>;
    fn into_iter(self) -> Self::IntoIter {
        self.bits.into_iter()
    }
}

impl Not for &LogicVector {
    type Output = LogicVector;
    fn not(self) -> LogicVector {
        let mut bits = Vec::with_capacity(self.width());
        for lo in (0..self.width()).step_by(LANES) {
            let out = self.planes_from(lo).not();
            let n = (self.width() - lo).min(LANES);
            bits.extend((0..n).map(|lane| out.lane(lane)));
        }
        LogicVector { bits }
    }
}

macro_rules! vector_bitop {
    ($trait:ident, $method:ident, $kernel:ident) => {
        impl $trait for &LogicVector {
            type Output = LogicVector;
            /// Bit-sliced: evaluates up to 64 bits per plane-kernel call.
            ///
            /// # Panics
            ///
            /// Panics if the operand widths differ.
            fn $method(self, rhs: &LogicVector) -> LogicVector {
                self.zip_planes(rhs, LogicPlanes::$kernel)
            }
        }
    };
}

vector_bitop!(BitAnd, bitand, and);
vector_bitop!(BitOr, bitor, or);
vector_bitop!(BitXor, bitxor, xor);

impl fmt::Display for LogicVector {
    /// Prints MSB first, one IEEE 1164 character per bit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for bit in self.bits.iter().rev() {
            write!(f, "{bit}")?;
        }
        Ok(())
    }
}

/// Error returned when parsing a [`LogicVector`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLogicVectorError {
    offending: char,
}

impl fmt::Display for ParseLogicVectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid logic character {:?} in bit-string literal",
            self.offending
        )
    }
}

impl std::error::Error for ParseLogicVectorError {}

impl FromStr for LogicVector {
    type Err = ParseLogicVectorError;

    /// Parses a bit-string literal with the MSB first, e.g. `"1010"` or
    /// `"ZZXX"`. Underscores are ignored as separators.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut bits = Vec::with_capacity(s.len());
        for c in s.chars().rev() {
            if c == '_' {
                continue;
            }
            bits.push(Logic::from_char(c).ok_or(ParseLogicVectorError { offending: c })?);
        }
        Ok(LogicVector { bits })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trip() {
        for value in [0u64, 1, 0b1010, 0xFF, 0xDEAD] {
            let v = LogicVector::from_u64(value, 16);
            assert_eq!(v.to_u64(), Some(value));
        }
    }

    #[test]
    fn in_place_forms_equal_the_constructors() {
        let mut v = LogicVector::from_u64(0xFFFF, 16);
        v.assign_u64(0b1010, 4);
        assert_eq!(v, LogicVector::from_u64(0b1010, 4));
        v.assign_filled(Logic::Unknown, 7);
        assert_eq!(v, LogicVector::filled(Logic::Unknown, 7));
        v.clone_from(&LogicVector::from_u64(5, 3));
        assert_eq!(v, LogicVector::from_u64(5, 3));
    }

    #[test]
    fn to_u64_rejects_metalogical() {
        let mut v = LogicVector::from_u64(5, 4);
        v.set(2, Logic::Unknown);
        assert_eq!(v.to_u64(), None);
        assert!(v.has_metalogical());
    }

    #[test]
    fn display_msb_first() {
        assert_eq!(LogicVector::from_u64(0b0110, 4).to_string(), "0110");
        assert_eq!(LogicVector::new(3).to_string(), "UUU");
    }

    #[test]
    fn parse_round_trip() {
        let v: LogicVector = "10Z_X".parse().unwrap();
        assert_eq!(v.width(), 4);
        assert_eq!(v.to_string(), "10ZX");
        assert!("10q2".parse::<LogicVector>().is_err());
    }

    #[test]
    fn flip_bit_changes_value_by_power_of_two() {
        let mut v = LogicVector::from_u64(0b1000, 4);
        v.flip_bit(3);
        assert_eq!(v.to_u64(), Some(0));
        v.flip_bit(0);
        assert_eq!(v.to_u64(), Some(1));
    }

    #[test]
    fn hamming_distance_counts_differing_bits() {
        let a = LogicVector::from_u64(0b1010, 4);
        let b = LogicVector::from_u64(0b0110, 4);
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn bitwise_ops() {
        let a = LogicVector::from_u64(0b1100, 4);
        let b = LogicVector::from_u64(0b1010, 4);
        assert_eq!((&a & &b).to_u64(), Some(0b1000));
        assert_eq!((&a | &b).to_u64(), Some(0b1110));
        assert_eq!((&a ^ &b).to_u64(), Some(0b0110));
        assert_eq!((!&a).to_u64(), Some(0b0011));
    }

    #[test]
    fn plane_backed_ops_match_scalar_per_bit_across_word_boundaries() {
        // 150 bits: spans three 64-lane plane words, cycling all nine values
        // with different phases so every (a, b) class pair occurs.
        let a: LogicVector = Logic::ALL.iter().copied().cycle().take(150).collect();
        let b: LogicVector = Logic::ALL
            .iter()
            .copied()
            .cycle()
            .skip(4)
            .take(150)
            .collect();
        let and = &a & &b;
        let or = &a | &b;
        let xor = &a ^ &b;
        let not = !&a;
        for i in 0..a.width() {
            assert_eq!(and[i], a[i] & b[i], "and bit {i}");
            assert_eq!(or[i], a[i] | b[i], "or bit {i}");
            assert_eq!(xor[i], a[i] ^ b[i], "xor bit {i}");
            assert_eq!(not[i], !a[i], "not bit {i}");
        }
    }

    #[test]
    fn collect_and_extend() {
        let mut v: LogicVector = [Logic::One, Logic::Zero].into_iter().collect();
        v.extend([Logic::One]);
        assert_eq!(v.to_u64(), Some(0b101));
    }
}
