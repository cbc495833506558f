//! Multi-valued digital logic in the style of IEEE 1164 `std_logic`.
//!
//! The digital analysis flow of the paper instruments VHDL descriptions, whose
//! signals carry nine-valued resolved logic. Saboteurs rely on the same value
//! system (e.g. forcing `X` on an interconnect), so the full set is modelled.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A nine-valued logic level, mirroring IEEE 1164 `std_ulogic`.
///
/// # Examples
///
/// ```
/// use amsfi_waves::Logic;
///
/// assert_eq!(Logic::One & Logic::Zero, Logic::Zero);
/// assert_eq!(Logic::One & Logic::Unknown, Logic::Unknown);
/// assert_eq!(Logic::Zero.resolve(Logic::One), Logic::Unknown);
/// assert_eq!(Logic::HighZ.resolve(Logic::One), Logic::One);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Logic {
    /// `'U'` — uninitialised (the power-on value of every signal).
    #[default]
    Uninitialized,
    /// `'X'` — forcing unknown (e.g. two strong drivers in conflict).
    Unknown,
    /// `'0'` — forcing zero.
    Zero,
    /// `'1'` — forcing one.
    One,
    /// `'Z'` — high impedance.
    HighZ,
    /// `'W'` — weak unknown.
    WeakUnknown,
    /// `'L'` — weak zero (pull-down).
    WeakZero,
    /// `'H'` — weak one (pull-up).
    WeakOne,
    /// `'-'` — don't care.
    DontCare,
}

impl Logic {
    /// All nine values, in IEEE 1164 declaration order.
    pub const ALL: [Logic; 9] = [
        Logic::Uninitialized,
        Logic::Unknown,
        Logic::Zero,
        Logic::One,
        Logic::HighZ,
        Logic::WeakUnknown,
        Logic::WeakZero,
        Logic::WeakOne,
        Logic::DontCare,
    ];

    /// Converts a boolean to a strong logic level.
    pub const fn from_bool(b: bool) -> Logic {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Interprets this level as a boolean, treating weak levels as their
    /// strong equivalents. Returns `None` for metalogical values
    /// (`U`, `X`, `Z`, `W`, `-`).
    pub const fn to_bool(self) -> Option<bool> {
        match self {
            Logic::One | Logic::WeakOne => Some(true),
            Logic::Zero | Logic::WeakZero => Some(false),
            _ => None,
        }
    }

    /// True for `'1'` or `'H'`.
    pub const fn is_high(self) -> bool {
        matches!(self, Logic::One | Logic::WeakOne)
    }

    /// True for `'0'` or `'L'`.
    pub const fn is_low(self) -> bool {
        matches!(self, Logic::Zero | Logic::WeakZero)
    }

    /// True if the value is neither a strong nor a weak 0/1.
    pub const fn is_metalogical(self) -> bool {
        !(self.is_high() || self.is_low())
    }

    /// Reduces to the strong subset `{X, 0, 1}` as IEEE 1164 `to_x01` does.
    #[must_use]
    pub const fn to_x01(self) -> Logic {
        match self {
            Logic::Zero | Logic::WeakZero => Logic::Zero,
            Logic::One | Logic::WeakOne => Logic::One,
            _ => Logic::Unknown,
        }
    }

    /// The inverted level of an SEU bit-flip: `0 -> 1`, `1 -> 0`; weak levels
    /// flip to their strong complements; metalogical values are unchanged
    /// (there is no stored charge to flip).
    #[must_use]
    pub const fn flipped(self) -> Logic {
        match self {
            Logic::Zero | Logic::WeakZero => Logic::One,
            Logic::One | Logic::WeakOne => Logic::Zero,
            other => other,
        }
    }

    /// IEEE 1164 resolution of two simultaneous drivers on one signal.
    ///
    /// Strong beats weak, weak beats `Z`, equal strengths in conflict give an
    /// unknown of the stronger strength, and `U` is contagious.
    #[must_use]
    pub const fn resolve(self, other: Logic) -> Logic {
        use Logic::*;
        // The IEEE 1164 resolution table, row = self, column = other.
        const TABLE: [[Logic; 9]; 9] = [
            // U             X        0        1        Z        W            L         H        -
            [Uninitialized; 9], // U row: U resolves to U with everything
            [
                Uninitialized,
                Unknown,
                Unknown,
                Unknown,
                Unknown,
                Unknown,
                Unknown,
                Unknown,
                Unknown,
            ], // X
            [
                Uninitialized,
                Unknown,
                Zero,
                Unknown,
                Zero,
                Zero,
                Zero,
                Zero,
                Unknown,
            ], // 0
            [
                Uninitialized,
                Unknown,
                Unknown,
                One,
                One,
                One,
                One,
                One,
                Unknown,
            ], // 1
            [
                Uninitialized,
                Unknown,
                Zero,
                One,
                HighZ,
                WeakUnknown,
                WeakZero,
                WeakOne,
                Unknown,
            ], // Z
            [
                Uninitialized,
                Unknown,
                Zero,
                One,
                WeakUnknown,
                WeakUnknown,
                WeakUnknown,
                WeakUnknown,
                Unknown,
            ], // W
            [
                Uninitialized,
                Unknown,
                Zero,
                One,
                WeakZero,
                WeakUnknown,
                WeakZero,
                WeakUnknown,
                Unknown,
            ], // L
            [
                Uninitialized,
                Unknown,
                Zero,
                One,
                WeakOne,
                WeakUnknown,
                WeakUnknown,
                WeakOne,
                Unknown,
            ], // H
            [
                Uninitialized,
                Unknown,
                Unknown,
                Unknown,
                Unknown,
                Unknown,
                Unknown,
                Unknown,
                Unknown,
            ], // -
        ];
        TABLE[self.index()][other.index()]
    }

    /// The position of this value in [`Logic::ALL`].
    pub const fn index(self) -> usize {
        match self {
            Logic::Uninitialized => 0,
            Logic::Unknown => 1,
            Logic::Zero => 2,
            Logic::One => 3,
            Logic::HighZ => 4,
            Logic::WeakUnknown => 5,
            Logic::WeakZero => 6,
            Logic::WeakOne => 7,
            Logic::DontCare => 8,
        }
    }

    /// The IEEE 1164 character for this value.
    pub const fn to_char(self) -> char {
        match self {
            Logic::Uninitialized => 'U',
            Logic::Unknown => 'X',
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::HighZ => 'Z',
            Logic::WeakUnknown => 'W',
            Logic::WeakZero => 'L',
            Logic::WeakOne => 'H',
            Logic::DontCare => '-',
        }
    }

    /// Parses an IEEE 1164 character (case-insensitive for letters).
    pub fn from_char(c: char) -> Option<Logic> {
        Some(match c.to_ascii_uppercase() {
            'U' => Logic::Uninitialized,
            'X' => Logic::Unknown,
            '0' => Logic::Zero,
            '1' => Logic::One,
            'Z' => Logic::HighZ,
            'W' => Logic::WeakUnknown,
            'L' => Logic::WeakZero,
            'H' => Logic::WeakOne,
            '-' => Logic::DontCare,
            _ => return None,
        })
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Logic {
        Logic::from_bool(b)
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

impl Not for Logic {
    type Output = Logic;
    /// Logical inversion per the IEEE 1164 `not` table: `U` stays `U`, other
    /// metalogical inputs give `X`.
    fn not(self) -> Logic {
        if self.is_low() {
            Logic::One
        } else if self.is_high() {
            Logic::Zero
        } else if self == Logic::Uninitialized {
            Logic::Uninitialized
        } else {
            Logic::Unknown
        }
    }
}

impl BitAnd for Logic {
    type Output = Logic;
    /// IEEE 1164 `and`: a low side forces `0` even against `U`; otherwise
    /// `U` is contagious, then `X`-propagation applies.
    fn bitand(self, rhs: Logic) -> Logic {
        if self.is_low() || rhs.is_low() {
            Logic::Zero
        } else if self == Logic::Uninitialized || rhs == Logic::Uninitialized {
            Logic::Uninitialized
        } else if self.is_high() && rhs.is_high() {
            Logic::One
        } else {
            Logic::Unknown
        }
    }
}

impl BitOr for Logic {
    type Output = Logic;
    /// IEEE 1164 `or`: a high side forces `1` even against `U`; otherwise
    /// `U` is contagious, then `X`-propagation applies.
    fn bitor(self, rhs: Logic) -> Logic {
        if self.is_high() || rhs.is_high() {
            Logic::One
        } else if self == Logic::Uninitialized || rhs == Logic::Uninitialized {
            Logic::Uninitialized
        } else if self.is_low() && rhs.is_low() {
            Logic::Zero
        } else {
            Logic::Unknown
        }
    }
}

impl BitXor for Logic {
    type Output = Logic;
    /// IEEE 1164 `xor`: no dominating value, so `U` on either side is
    /// contagious before `X`-propagation.
    fn bitxor(self, rhs: Logic) -> Logic {
        if self == Logic::Uninitialized || rhs == Logic::Uninitialized {
            Logic::Uninitialized
        } else {
            match (self.to_x01(), rhs.to_x01()) {
                (Logic::Zero, Logic::Zero) | (Logic::One, Logic::One) => Logic::Zero,
                (Logic::Zero, Logic::One) | (Logic::One, Logic::Zero) => Logic::One,
                _ => Logic::Unknown,
            }
        }
    }
}

/// Number of fault-simulation lanes packed into one [`LogicPlanes`] word.
pub const LANES: usize = 64;

/// 64 lanes of nine-valued logic in bit-sliced form.
///
/// Each lane holds one [`Logic`] value encoded as its [`Logic::index`] in
/// [`Logic::ALL`] order, spread across four bit-planes: bit *k* of
/// `planes[p]` is bit *p* of lane *k*'s code. Nine codes need four planes
/// (`DontCare` is code 8 = `0b1000`); plane pattern `0b0000` is
/// `Uninitialized`, so an all-zero word is 64 power-on-default lanes — the
/// same invariant scalar [`Logic::default`] has.
///
/// The gate and resolution kernels below operate on all 64 lanes per call
/// with word-parallel boolean algebra and are proven equal to the scalar
/// tables over all 9×9 input pairs in this module's tests.
///
/// # Examples
///
/// ```
/// use amsfi_waves::{Logic, LogicPlanes};
///
/// let mut a = LogicPlanes::splat(Logic::One);
/// a.set_lane(3, Logic::Uninitialized);
/// let b = LogicPlanes::splat(Logic::One);
/// let and = a.and(b);
/// assert_eq!(and.lane(0), Logic::One);
/// assert_eq!(and.lane(3), Logic::Uninitialized);
/// // Lane 3 differs from the golden broadcast:
/// assert_eq!(and.diverged_mask(b), 1 << 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct LogicPlanes {
    planes: [u64; 4],
}

/// Per-class lane masks derived from a [`LogicPlanes`] word: bit *k* of a
/// field is set iff lane *k* holds that value. Exactly one field has each
/// lane bit set.
#[derive(Clone, Copy, Default)]
struct ClassMasks {
    u: u64,
    x: u64,
    zero: u64,
    one: u64,
    z: u64,
    w: u64,
    l: u64,
    h: u64,
    dc: u64,
}

impl LogicPlanes {
    /// All 64 lanes at the power-on default (`Uninitialized`, code 0).
    pub const fn new() -> Self {
        Self { planes: [0; 4] }
    }

    /// Broadcasts one value to all 64 lanes.
    pub const fn splat(v: Logic) -> Self {
        let code = v.index() as u64;
        let mut planes = [0u64; 4];
        let mut p = 0;
        while p < 4 {
            if (code >> p) & 1 == 1 {
                planes[p] = u64::MAX;
            }
            p += 1;
        }
        Self { planes }
    }

    /// Packs a slice of lane values (lane 0 first). Panics if more than
    /// [`LANES`] values are given; missing lanes stay `Uninitialized`.
    pub fn from_lanes(values: &[Logic]) -> Self {
        assert!(values.len() <= LANES, "more than {LANES} lanes");
        let mut out = Self::new();
        for (lane, &v) in values.iter().enumerate() {
            out.set_lane(lane, v);
        }
        out
    }

    /// Sets one lane's value.
    pub fn set_lane(&mut self, lane: usize, v: Logic) {
        assert!(lane < LANES, "lane {lane} out of range");
        let bit = 1u64 << lane;
        let code = v.index() as u64;
        for (p, plane) in self.planes.iter_mut().enumerate() {
            if (code >> p) & 1 == 1 {
                *plane |= bit;
            } else {
                *plane &= !bit;
            }
        }
    }

    /// Reads one lane's value.
    pub fn lane(&self, lane: usize) -> Logic {
        assert!(lane < LANES, "lane {lane} out of range");
        let mut code = 0usize;
        for (p, plane) in self.planes.iter().enumerate() {
            code |= (((plane >> lane) & 1) as usize) << p;
        }
        Logic::ALL[code]
    }

    /// The raw bit-planes (plane *p* holds bit *p* of every lane's code).
    pub const fn planes(&self) -> [u64; 4] {
        self.planes
    }

    /// Lanes holding `'1'` or `'H'`, as a bit mask (the plane-parallel
    /// [`Logic::is_high`]).
    pub const fn is_high_mask(&self) -> u64 {
        // One = 0b0011, WeakOne = 0b0111: plane0 & plane1 & !plane3.
        self.planes[0] & self.planes[1] & !self.planes[3]
    }

    /// Lanes holding `'0'` or `'L'`, as a bit mask (the plane-parallel
    /// [`Logic::is_low`]).
    pub const fn is_low_mask(&self) -> u64 {
        // Zero = 0b0010, WeakZero = 0b0110: !plane0 & plane1 & !plane3.
        !self.planes[0] & self.planes[1] & !self.planes[3]
    }

    /// Per-lane merge: lane *k* takes `then.lane(k)` where bit *k* of `mask`
    /// is set, `self.lane(k)` otherwise. This is the masked-event apply
    /// primitive of the word-parallel simulator.
    #[must_use]
    pub const fn select(self, mask: u64, then: LogicPlanes) -> LogicPlanes {
        LogicPlanes {
            planes: [
                (then.planes[0] & mask) | (self.planes[0] & !mask),
                (then.planes[1] & mask) | (self.planes[1] & !mask),
                (then.planes[2] & mask) | (self.planes[2] & !mask),
                (then.planes[3] & mask) | (self.planes[3] & !mask),
            ],
        }
    }

    /// Broadcasts lane `lane`'s value to all 64 lanes — the golden-lane
    /// reference word the divergence mask is taken against.
    #[must_use]
    pub fn broadcast_lane(&self, lane: usize) -> LogicPlanes {
        assert!(lane < LANES, "lane {lane} out of range");
        // Plane by plane, without decoding the value: 0 - bit is the bit
        // on every lane.
        LogicPlanes {
            planes: self.planes.map(|p| 0u64.wrapping_sub((p >> lane) & 1)),
        }
    }

    /// Builds a word of strong `'1'`/`'0'` from a boolean lane mask: lane
    /// *k* is `One` where bit *k* of `ones` is set, `Zero` otherwise.
    pub const fn from_bool_mask(ones: u64) -> LogicPlanes {
        // One = 0b0011, Zero = 0b0010: plane1 is always set.
        LogicPlanes {
            planes: [ones, u64::MAX, 0, 0],
        }
    }

    /// Lanes whose value differs from `other`, as a bit mask. One XOR/OR
    /// pass over the planes — this is the batch simulator's live
    /// divergence mask primitive.
    pub const fn diverged_mask(&self, other: LogicPlanes) -> u64 {
        (self.planes[0] ^ other.planes[0])
            | (self.planes[1] ^ other.planes[1])
            | (self.planes[2] ^ other.planes[2])
            | (self.planes[3] ^ other.planes[3])
    }

    /// Lanes whose value reduces ([`Logic::to_x01`]) to another strong value
    /// than lane `lane`'s: the divergence the digital comparators see, in
    /// which `'1'` equals `'H'` and every metalogical value is `'X'`. Two
    /// lanes agree exactly when their [`is_low_mask`](Self::is_low_mask)
    /// and [`is_high_mask`](Self::is_high_mask) bits do.
    pub const fn x01_diverged_from(&self, lane: usize) -> u64 {
        let (low, high) = (self.is_low_mask(), self.is_high_mask());
        let low_there = 0u64.wrapping_sub((low >> lane) & 1);
        let high_there = 0u64.wrapping_sub((high >> lane) & 1);
        (low ^ low_there) | (high ^ high_there)
    }

    fn classes(&self) -> ClassMasks {
        let [p0, p1, p2, p3] = self.planes;
        let n3 = !p3;
        ClassMasks {
            u: !p0 & !p1 & !p2 & n3,
            x: p0 & !p1 & !p2 & n3,
            zero: !p0 & p1 & !p2 & n3,
            one: p0 & p1 & !p2 & n3,
            z: !p0 & !p1 & p2 & n3,
            w: p0 & !p1 & p2 & n3,
            l: !p0 & p1 & p2 & n3,
            h: p0 & p1 & p2 & n3,
            dc: !p0 & !p1 & !p2 & p3,
        }
    }

    /// Recomposes planes from disjoint per-output-class masks. Any lane not
    /// covered by a mask ends up `Uninitialized` (code 0, like `m.u`); the
    /// kernels always cover every lane, and none outputs `-`.
    fn compose(m: ClassMasks) -> Self {
        Self {
            planes: [
                m.x | m.one | m.w | m.h,
                m.zero | m.one | m.l | m.h,
                m.z | m.w | m.l | m.h,
                m.dc,
            ],
        }
    }

    /// Lane-parallel IEEE 1164 `and` (equal to the scalar `&` operator in
    /// every lane).
    #[must_use]
    pub fn and(self, rhs: LogicPlanes) -> LogicPlanes {
        let a = self.classes();
        let b = rhs.classes();
        let a_low = a.zero | a.l;
        let b_low = b.zero | b.l;
        let a_high = a.one | a.h;
        let b_high = b.one | b.h;
        let zero = a_low | b_low;
        let u = (a.u | b.u) & !zero;
        let one = a_high & b_high & !zero;
        let x = !(zero | u | one);
        Self::compose(ClassMasks {
            u,
            x,
            zero,
            one,
            ..ClassMasks::default()
        })
    }

    /// Lane-parallel IEEE 1164 `or`.
    #[must_use]
    pub fn or(self, rhs: LogicPlanes) -> LogicPlanes {
        let a = self.classes();
        let b = rhs.classes();
        let a_low = a.zero | a.l;
        let b_low = b.zero | b.l;
        let a_high = a.one | a.h;
        let b_high = b.one | b.h;
        let one = a_high | b_high;
        let u = (a.u | b.u) & !one;
        let zero = a_low & b_low & !one;
        let x = !(one | u | zero);
        Self::compose(ClassMasks {
            u,
            x,
            zero,
            one,
            ..ClassMasks::default()
        })
    }

    /// Lane-parallel IEEE 1164 `xor`.
    #[must_use]
    pub fn xor(self, rhs: LogicPlanes) -> LogicPlanes {
        let a = self.classes();
        let b = rhs.classes();
        let a_low = a.zero | a.l;
        let b_low = b.zero | b.l;
        let a_high = a.one | a.h;
        let b_high = b.one | b.h;
        let u = a.u | b.u;
        let zero = ((a_low & b_low) | (a_high & b_high)) & !u;
        let one = ((a_low & b_high) | (a_high & b_low)) & !u;
        let x = !(u | zero | one);
        Self::compose(ClassMasks {
            u,
            x,
            zero,
            one,
            ..ClassMasks::default()
        })
    }

    /// Lane-parallel IEEE 1164 `not`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> LogicPlanes {
        let a = self.classes();
        let one = a.zero | a.l;
        let zero = a.one | a.h;
        let u = a.u;
        let x = !(one | zero | u);
        Self::compose(ClassMasks {
            u,
            x,
            zero,
            one,
            ..ClassMasks::default()
        })
    }

    /// Lane-parallel IEEE 1164 driver resolution (equal to
    /// [`Logic::resolve`] in every lane).
    ///
    /// Decomposed by strength region: `U` is contagious; any strong driver
    /// (`X 0 1 -`, with `-` contributing as `X`) masks all weak drivers;
    /// weak drivers (`W L H`) mask `Z`; two `Z` stay `Z`. Conflicting
    /// levels within a region give that region's unknown.
    #[must_use]
    pub fn resolve(self, rhs: LogicPlanes) -> LogicPlanes {
        let a = self.classes();
        let b = rhs.classes();
        let m_u = a.u | b.u;

        // Strong region: `-` resolves exactly like `X` (see the scalar table).
        let s_x = a.x | a.dc | b.x | b.dc;
        let s_0 = a.zero | b.zero;
        let s_1 = a.one | b.one;
        let strong = s_x | s_0 | s_1;
        let out_sx = s_x | (s_0 & s_1);

        // Weak region, only visible where no strong driver is present.
        let w_x = a.w | b.w;
        let w_0 = a.l | b.l;
        let w_1 = a.h | b.h;
        let weak = w_x | w_0 | w_1;
        let out_wx = w_x | (w_0 & w_1);

        let live = !m_u;
        let weak_live = live & !strong;
        Self::compose(ClassMasks {
            u: m_u,
            x: live & out_sx,
            zero: live & strong & s_0 & !out_sx,
            one: live & strong & s_1 & !out_sx,
            z: weak_live & !weak,
            w: weak_live & out_wx,
            l: weak_live & w_0 & !out_wx,
            h: weak_live & w_1 & !out_wx,
            dc: 0,
        })
    }
}

impl fmt::Debug for LogicPlanes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LogicPlanes[")?;
        for lane in 0..LANES {
            write!(f, "{}", self.lane(lane).to_char())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_round_trip() {
        assert_eq!(Logic::from_bool(true), Logic::One);
        assert_eq!(Logic::from_bool(false), Logic::Zero);
        assert_eq!(Logic::One.to_bool(), Some(true));
        assert_eq!(Logic::WeakZero.to_bool(), Some(false));
        assert_eq!(Logic::Unknown.to_bool(), None);
        assert_eq!(Logic::HighZ.to_bool(), None);
    }

    #[test]
    fn char_round_trip_all_values() {
        for v in Logic::ALL {
            assert_eq!(Logic::from_char(v.to_char()), Some(v));
        }
        assert_eq!(Logic::from_char('h'), Some(Logic::WeakOne));
        assert_eq!(Logic::from_char('q'), None);
    }

    #[test]
    fn resolution_is_commutative() {
        for a in Logic::ALL {
            for b in Logic::ALL {
                assert_eq!(a.resolve(b), b.resolve(a), "resolve({a}, {b})");
            }
        }
    }

    #[test]
    fn resolution_is_associative() {
        for a in Logic::ALL {
            for b in Logic::ALL {
                for c in Logic::ALL {
                    assert_eq!(
                        a.resolve(b).resolve(c),
                        a.resolve(b.resolve(c)),
                        "resolve({a},{b},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn resolution_strength_ordering() {
        // Strong conflicting drivers produce X.
        assert_eq!(Logic::Zero.resolve(Logic::One), Logic::Unknown);
        // Strong beats weak.
        assert_eq!(Logic::Zero.resolve(Logic::WeakOne), Logic::Zero);
        assert_eq!(Logic::One.resolve(Logic::WeakZero), Logic::One);
        // Weak beats Z.
        assert_eq!(Logic::HighZ.resolve(Logic::WeakOne), Logic::WeakOne);
        // Weak conflict gives weak unknown.
        assert_eq!(Logic::WeakZero.resolve(Logic::WeakOne), Logic::WeakUnknown);
        // Z is the identity element.
        for v in Logic::ALL {
            assert_eq!(
                Logic::HighZ.resolve(v),
                if v == Logic::DontCare {
                    Logic::Unknown
                } else {
                    v
                }
            );
        }
    }

    #[test]
    fn uninitialized_is_contagious() {
        for v in Logic::ALL {
            assert_eq!(Logic::Uninitialized.resolve(v), Logic::Uninitialized);
        }
    }

    #[test]
    fn flipped_models_seu() {
        assert_eq!(Logic::Zero.flipped(), Logic::One);
        assert_eq!(Logic::One.flipped(), Logic::Zero);
        assert_eq!(Logic::WeakOne.flipped(), Logic::Zero);
        assert_eq!(Logic::Unknown.flipped(), Logic::Unknown);
        // Double flip restores 0/1 values.
        assert_eq!(Logic::Zero.flipped().flipped(), Logic::Zero);
    }

    #[test]
    fn gate_operators_propagate_x() {
        assert_eq!(Logic::Zero & Logic::Unknown, Logic::Zero);
        assert_eq!(Logic::One & Logic::Unknown, Logic::Unknown);
        assert_eq!(Logic::One | Logic::Unknown, Logic::One);
        assert_eq!(Logic::Zero | Logic::Unknown, Logic::Unknown);
        assert_eq!(Logic::One ^ Logic::Unknown, Logic::Unknown);
        assert_eq!(!Logic::Unknown, Logic::Unknown);
        assert_eq!(!Logic::One, Logic::Zero);
        assert_eq!(!Logic::WeakZero, Logic::One);
    }

    #[test]
    fn weak_levels_behave_as_strong_in_gates() {
        assert_eq!(Logic::WeakOne & Logic::One, Logic::One);
        assert_eq!(Logic::WeakZero | Logic::Zero, Logic::Zero);
        assert_eq!(Logic::WeakOne ^ Logic::WeakZero, Logic::One);
    }

    /// Parses a 9×9 reference table written as rows of IEEE 1164 characters
    /// in `Logic::ALL` order (row = left operand, column = right operand).
    fn table(rows: [&str; 9]) -> Vec<Vec<Logic>> {
        rows.iter()
            .map(|row| row.chars().map(|c| Logic::from_char(c).unwrap()).collect())
            .collect()
    }

    /// IEEE 1164-1993 `and_table`, transcribed from the standard package
    /// body (operands in `U X 0 1 Z W L H -` order).
    fn ieee_and() -> Vec<Vec<Logic>> {
        table([
            "UU0UUU0UU", // U
            "UX0XXX0XX", // X
            "000000000", // 0
            "UX01XX01X", // 1
            "UX0XXX0XX", // Z
            "UX0XXX0XX", // W
            "000000000", // L
            "UX01XX01X", // H
            "UX0XXX0XX", // -
        ])
    }

    /// IEEE 1164-1993 `or_table`.
    fn ieee_or() -> Vec<Vec<Logic>> {
        table([
            "UUU1UUU1U", // U
            "UXX1XXX1X", // X
            "UX01XX01X", // 0
            "111111111", // 1
            "UXX1XXX1X", // Z
            "UXX1XXX1X", // W
            "UX01XX01X", // L
            "111111111", // H
            "UXX1XXX1X", // -
        ])
    }

    /// IEEE 1164-1993 `xor_table`.
    fn ieee_xor() -> Vec<Vec<Logic>> {
        table([
            "UUUUUUUUU", // U
            "UXXXXXXXX", // X
            "UX01XX01X", // 0
            "UX10XX10X", // 1
            "UXXXXXXXX", // Z
            "UXXXXXXXX", // W
            "UX01XX01X", // L
            "UX10XX10X", // H
            "UXXXXXXXX", // -
        ])
    }

    /// IEEE 1164-1993 `resolution_table`.
    fn ieee_resolve() -> Vec<Vec<Logic>> {
        table([
            "UUUUUUUUU", // U
            "UXXXXXXXX", // X
            "UX0X0000X", // 0
            "UXX11111X", // 1
            "UX01ZWLHX", // Z
            "UX01WWWWX", // W
            "UX01LWLWX", // L
            "UX01HWWHX", // H
            "UXXXXXXXX", // -
        ])
    }

    /// IEEE 1164-1993 `not_table` (`U X 0 1 Z W L H -` → `U X 1 0 X X 1 0 X`).
    fn ieee_not() -> Vec<Logic> {
        "UX10XX10X"
            .chars()
            .map(|c| Logic::from_char(c).unwrap())
            .collect()
    }

    #[test]
    fn and_matches_ieee_1164_over_all_81_pairs() {
        let t = ieee_and();
        for a in Logic::ALL {
            for b in Logic::ALL {
                assert_eq!(a & b, t[a.index()][b.index()], "and({a},{b})");
            }
        }
    }

    #[test]
    fn or_matches_ieee_1164_over_all_81_pairs() {
        let t = ieee_or();
        for a in Logic::ALL {
            for b in Logic::ALL {
                assert_eq!(a | b, t[a.index()][b.index()], "or({a},{b})");
            }
        }
    }

    #[test]
    fn xor_matches_ieee_1164_over_all_81_pairs() {
        let t = ieee_xor();
        for a in Logic::ALL {
            for b in Logic::ALL {
                assert_eq!(a ^ b, t[a.index()][b.index()], "xor({a},{b})");
            }
        }
    }

    #[test]
    fn not_matches_ieee_1164_over_all_values() {
        let t = ieee_not();
        for a in Logic::ALL {
            assert_eq!(!a, t[a.index()], "not({a})");
        }
    }

    #[test]
    fn resolve_matches_ieee_1164_over_all_81_pairs() {
        let t = ieee_resolve();
        for a in Logic::ALL {
            for b in Logic::ALL {
                assert_eq!(a.resolve(b), t[a.index()][b.index()], "resolve({a},{b})");
            }
        }
    }

    #[test]
    fn planes_encoding_round_trips_and_defaults_to_uninitialized() {
        assert_eq!(LogicPlanes::new(), LogicPlanes::default());
        for lane in 0..LANES {
            assert_eq!(LogicPlanes::new().lane(lane), Logic::Uninitialized);
        }
        // splat + set_lane + lane round-trip every value in every position.
        for v in Logic::ALL {
            let s = LogicPlanes::splat(v);
            for lane in 0..LANES {
                assert_eq!(s.lane(lane), v);
            }
        }
        let mut w = LogicPlanes::splat(Logic::WeakOne);
        for (lane, v) in Logic::ALL.iter().cycle().take(LANES).enumerate() {
            w.set_lane(lane, *v);
        }
        for (lane, v) in Logic::ALL.iter().cycle().take(LANES).enumerate() {
            assert_eq!(w.lane(lane), *v);
        }
        // Plane pattern 0 is reserved for Uninitialized.
        assert_eq!(LogicPlanes::splat(Logic::Uninitialized).planes(), [0; 4]);
    }

    /// Every 9×9 operand pair, packed across two 64-lane words (81 pairs,
    /// lane k of word w holds pair 64·w + k).
    #[allow(clippy::type_complexity)]
    fn all_pairs_packed() -> Vec<(LogicPlanes, LogicPlanes, Vec<(Logic, Logic)>)> {
        let pairs: Vec<(Logic, Logic)> = Logic::ALL
            .iter()
            .flat_map(|&a| Logic::ALL.iter().map(move |&b| (a, b)))
            .collect();
        pairs
            .chunks(LANES)
            .map(|chunk| {
                let a = LogicPlanes::from_lanes(&chunk.iter().map(|p| p.0).collect::<Vec<_>>());
                let b = LogicPlanes::from_lanes(&chunk.iter().map(|p| p.1).collect::<Vec<_>>());
                (a, b, chunk.to_vec())
            })
            .collect()
    }

    #[test]
    fn plane_kernels_equal_scalar_tables_over_all_81_pairs() {
        for (a, b, pairs) in all_pairs_packed() {
            let and = a.and(b);
            let or = a.or(b);
            let xor = a.xor(b);
            let not = a.not();
            let res = a.resolve(b);
            for (lane, &(x, y)) in pairs.iter().enumerate() {
                assert_eq!(and.lane(lane), x & y, "and({x},{y})");
                assert_eq!(or.lane(lane), x | y, "or({x},{y})");
                assert_eq!(xor.lane(lane), x ^ y, "xor({x},{y})");
                assert_eq!(not.lane(lane), !x, "not({x})");
                assert_eq!(res.lane(lane), x.resolve(y), "resolve({x},{y})");
            }
            // Unfilled tail lanes are Uninitialized on both sides, and every
            // kernel maps (U, U) to U — i.e. stays at plane pattern 0.
            for lane in pairs.len()..LANES {
                assert_eq!(and.lane(lane), Logic::Uninitialized);
                assert_eq!(res.lane(lane), Logic::Uninitialized);
            }
        }
    }

    #[test]
    fn high_low_masks_match_scalar_predicates_for_all_values() {
        for v in Logic::ALL {
            let s = LogicPlanes::splat(v);
            let expect = |b: bool| if b { u64::MAX } else { 0 };
            assert_eq!(s.is_high_mask(), expect(v.is_high()), "is_high({v})");
            assert_eq!(s.is_low_mask(), expect(v.is_low()), "is_low({v})");
        }
        // Mixed lanes: each predicate flags exactly its lanes.
        let w = LogicPlanes::from_lanes(&[Logic::One, Logic::Zero, Logic::WeakOne, Logic::HighZ]);
        assert_eq!(w.is_high_mask(), 0b0101);
        assert_eq!(w.is_low_mask(), 0b0010);
    }

    #[test]
    fn select_merges_lanes_by_mask() {
        let a = LogicPlanes::splat(Logic::One);
        let b = LogicPlanes::splat(Logic::HighZ);
        let m = 0xF0F0_F0F0_F0F0_F0F0u64;
        let merged = b.select(m, a);
        for lane in 0..LANES {
            let expect = if (m >> lane) & 1 == 1 {
                Logic::One
            } else {
                Logic::HighZ
            };
            assert_eq!(merged.lane(lane), expect, "lane {lane}");
        }
        // Identity edges.
        assert_eq!(b.select(0, a), b);
        assert_eq!(b.select(u64::MAX, a), a);
    }

    #[test]
    fn broadcast_lane_and_bool_mask_round_trip() {
        let mut w = LogicPlanes::splat(Logic::Zero);
        w.set_lane(63, Logic::WeakOne);
        assert_eq!(w.broadcast_lane(63), LogicPlanes::splat(Logic::WeakOne));
        assert_eq!(w.broadcast_lane(0), LogicPlanes::splat(Logic::Zero));

        // Every value from every probed lane, among lanes holding the others.
        for (i, &v) in Logic::ALL.iter().enumerate() {
            for lane in [0, 31, 63] {
                let mut w = LogicPlanes::from_lanes(
                    &(0..LANES)
                        .map(|k| Logic::ALL[(i + 1 + k) % 9])
                        .collect::<Vec<_>>(),
                );
                w.set_lane(lane, v);
                assert_eq!(
                    w.broadcast_lane(lane),
                    LogicPlanes::splat(v),
                    "{v} @ {lane}"
                );
            }
        }

        let ones = 0xDEAD_BEEF_0123_4567u64;
        let b = LogicPlanes::from_bool_mask(ones);
        for lane in 0..LANES {
            let expect = Logic::from_bool((ones >> lane) & 1 == 1);
            assert_eq!(b.lane(lane), expect, "lane {lane}");
        }
        assert_eq!(b.is_high_mask(), ones);
        assert_eq!(b.is_low_mask(), !ones);
    }

    #[test]
    fn diverged_mask_flags_exactly_the_differing_lanes() {
        let golden = LogicPlanes::splat(Logic::Zero);
        let mut faulty = golden;
        assert_eq!(faulty.diverged_mask(golden), 0);
        faulty.set_lane(0, Logic::One);
        faulty.set_lane(17, Logic::Unknown);
        faulty.set_lane(63, Logic::Uninitialized);
        assert_eq!(faulty.diverged_mask(golden), 1 | (1 << 17) | (1 << 63));
        // The mask is symmetric.
        assert_eq!(golden.diverged_mask(faulty), faulty.diverged_mask(golden));
    }

    #[test]
    fn x01_divergence_is_to_x01_inequality_over_all_pairs() {
        for (i, &reference) in Logic::ALL.iter().enumerate() {
            for lane in [0, 40, 63] {
                let mut w = LogicPlanes::from_lanes(
                    &(0..LANES)
                        .map(|k| Logic::ALL[(i + k) % 9])
                        .collect::<Vec<_>>(),
                );
                w.set_lane(lane, reference);
                let expected = (0..LANES)
                    .filter(|&k| w.lane(k).to_x01() != reference.to_x01())
                    .fold(0u64, |m, k| m | 1 << k);
                assert_eq!(w.x01_diverged_from(lane), expected, "{reference} @ {lane}");
            }
        }
    }
}
