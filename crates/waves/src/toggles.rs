//! What a digital run's comparison against the golden run reads off it.
//!
//! The skew-free digital comparison ([`DigitalStream`](crate::DigitalStream)
//! with zero skew) sees of a faulty wave only where its value, reduced to
//! X01, starts or stops differing from the golden wave's — and, per signal,
//! whether the faulty run recorded it at all. [`MismatchToggles`] is exactly
//! that, per digital slot: a run that differs from golden nowhere has none,
//! and a kernel that knows the golden value at every instant can note the
//! toggles as it goes instead of recording a trace to compare afterwards.

use crate::{DigitalSlot, DigitalWave, Time, ToggleStream, Trace};
use std::hash::{Hash, Hasher};

/// Per digital slot, the instants at which a run's X01 value starts or stops
/// differing from the golden run's, plus the slots the run never recorded
/// although the golden run did. Slots are the golden trace's.
///
/// Toggles are kept in `(time, slot)` order; a slot never toggles twice at
/// one instant. [`ToggleStream`] turns one slot's toggles into the
/// comparison [`DigitalStream`](crate::DigitalStream) makes of the two
/// waves.
///
/// # Examples
///
/// ```
/// use amsfi_waves::{Logic, MismatchToggles, Time, Trace};
///
/// let mut golden = Trace::new();
/// let mut faulty = Trace::new();
/// golden.record_digital("q", Time::ZERO, Logic::Zero)?;
/// faulty.record_digital("q", Time::ZERO, Logic::Zero)?;
/// faulty.record_digital("q", Time::from_ns(5), Logic::One)?;
/// faulty.record_digital("q", Time::from_ns(9), Logic::WeakZero)?;
///
/// let toggles = MismatchToggles::between(&golden, &faulty);
/// let q = golden.recorded_digital_slot("q").unwrap();
/// let at: Vec<Time> = toggles.of_slot(q).collect();
/// assert_eq!(at, [Time::from_ns(5), Time::from_ns(9)]); // 'L' reads as '0'
/// # Ok::<(), amsfi_waves::PushOutOfOrderError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MismatchToggles {
    /// The XOR of one mixed term per toggle and per silent slot: a function
    /// of the contents alone, in whatever order they were noted (undoing a
    /// toggle takes its term out again). Two lists that differ almost
    /// always differ here first, and hashing a list reads nothing else.
    digest: u64,
    /// Toggle instants in femtoseconds and their slots, side by side: plain
    /// integers, so that telling two runs' toggles apart is a memory
    /// compare.
    times: Vec<i64>,
    slots: Vec<u32>,
    /// Sorted.
    silent: Vec<DigitalSlot>,
}

impl MismatchToggles {
    /// No toggles: a run that classifies as the golden run does.
    pub const fn new() -> Self {
        MismatchToggles {
            digest: 0,
            times: Vec::new(),
            slots: Vec::new(),
            silent: Vec::new(),
        }
    }

    /// Notes that the comparison on `slot` flips at `t`, which must not
    /// precede an instant already noted. A flip at an instant the slot
    /// already toggled at undoes that toggle — the same-instant overwrite
    /// of [`DigitalWave::push`].
    #[inline]
    pub fn flip(&mut self, slot: DigitalSlot, t: Time) {
        let (t, slot) = (t.as_fs(), slot.0);
        debug_assert!(
            self.times.last().is_none_or(|&last| last <= t),
            "toggles are noted in time order"
        );
        let mut at = self.times.len();
        while at > 0 && self.times[at - 1] == t && self.slots[at - 1] >= slot {
            at -= 1;
            if self.slots[at] == slot {
                self.times.remove(at);
                self.slots.remove(at);
                self.digest ^= term(t, slot);
                return;
            }
        }
        self.times.insert(at, t);
        self.slots.insert(at, slot);
        self.digest ^= term(t, slot);
    }

    /// Notes that the run never recorded on `slot` although the golden run
    /// did: a comparison that has no faulty wave to read.
    pub fn mark_silent(&mut self, slot: DigitalSlot) {
        if let Err(at) = self.silent.binary_search(&slot) {
            self.silent.insert(at, slot);
            self.digest ^= term(SILENT, slot.0);
        }
    }

    /// True when the run differs from golden on no slot.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty() && self.silent.is_empty()
    }

    /// Every toggle, `(time, slot)`, in time order.
    pub fn iter(&self) -> impl Iterator<Item = (Time, DigitalSlot)> + '_ {
        let times = self.times.iter().map(|&t| Time::from_fs(t));
        times.zip(self.slots.iter().map(|&s| DigitalSlot(s)))
    }

    /// Feeds every toggle to its slot's stream, `streams[slot.index()]`,
    /// where there is one.
    pub fn feed(&self, streams: &mut [Option<ToggleStream>]) {
        for (t, slot) in self.iter() {
            if let Some(Some(stream)) = streams.get_mut(slot.index()) {
                stream.toggle(t);
            }
        }
    }

    /// The toggles of one slot, in time order.
    pub fn of_slot(&self, slot: DigitalSlot) -> impl Iterator<Item = Time> + '_ {
        self.iter().filter(move |&(_, s)| s == slot).map(|(t, _)| t)
    }

    /// True when the run never recorded on `slot` although golden did.
    pub fn is_silent(&self, slot: DigitalSlot) -> bool {
        self.silent.binary_search(&slot).is_ok()
    }

    /// The toggles of `faulty` against `golden`, over `golden`'s digital
    /// slots (recorded or silent) and `faulty`'s waves of the same names:
    /// the reference a kernel noting toggles as it runs is held against.
    pub fn between(golden: &Trace, faulty: &Trace) -> Self {
        let mut out = MismatchToggles::new();
        let mut toggles = Vec::new();
        let silent = DigitalWave::new();
        // Slot order: `silent` comes out sorted.
        for (slot, name, g) in golden.digital_slots() {
            let f = faulty.digital(name).unwrap_or(&silent);
            if f.is_empty() && !g.is_empty() {
                out.silent.push(slot);
            }
            let mut times: Vec<Time> = g
                .transitions()
                .iter()
                .chain(f.transitions())
                .map(|&(t, _)| t)
                .collect();
            times.sort_unstable();
            times.dedup();
            let mut mismatched = false;
            for t in times {
                let now = g.value_at(t).to_x01() != f.value_at(t).to_x01();
                if now != mismatched {
                    toggles.push((t.as_fs(), slot.0));
                    mismatched = now;
                }
            }
        }
        toggles.sort_unstable();
        let terms = toggles.iter().map(|&(t, slot)| term(t, slot));
        let silent = out.silent.iter().map(|slot| term(SILENT, slot.0));
        out.digest = terms.chain(silent).fold(0, |digest, term| digest ^ term);
        (out.times, out.slots) = toggles.into_iter().unzip();
        out
    }
}

/// Equal lists hash equal, as [`PartialEq`] requires: the digest is a
/// function of the contents.
impl Hash for MismatchToggles {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

/// The instant a silent slot's digest term is taken at: no toggle's.
const SILENT: i64 = i64::MIN;

/// One toggle's (or silent slot's) digest term: the SplitMix64 finaliser
/// of instant and slot, so that terms XOR into a well-spread digest.
fn term(t: i64, slot: u32) -> u64 {
    let mut z = (t as u64).wrapping_add(u64::from(slot).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Logic;

    #[test]
    fn a_same_instant_flip_undoes_the_toggle_and_order_is_kept() {
        let mut trace = Trace::new();
        let (a, b, c) = (
            trace.digital_slot("a"),
            trace.digital_slot("b"),
            trace.digital_slot("c"),
        );
        let (t1, t2) = (Time::from_ns(1), Time::from_ns(2));
        let mut toggles = MismatchToggles::new();
        toggles.flip(c, t1);
        toggles.flip(b, t2);
        toggles.flip(a, t2);
        assert_eq!(
            toggles.iter().collect::<Vec<_>>(),
            [(t1, c), (t2, a), (t2, b)]
        );
        toggles.flip(b, t2);
        toggles.flip(c, t2);
        assert_eq!(
            toggles.iter().collect::<Vec<_>>(),
            [(t1, c), (t2, a), (t2, c)]
        );
        toggles.flip(a, t2);
        toggles.flip(c, t2);
        assert_eq!(toggles.of_slot(c).collect::<Vec<_>>(), [t1]);
        assert!(!toggles.is_empty());
        toggles.flip(c, t2);
        toggles.flip(c, t2);
        toggles.mark_silent(b);
        assert!(toggles.is_silent(b) && !toggles.is_silent(a));
    }

    #[test]
    fn the_digest_is_a_function_of_the_contents() {
        let mut trace = Trace::new();
        let (a, b) = (trace.digital_slot("a"), trace.digital_slot("b"));
        let (t1, t2) = (Time::from_ns(1), Time::from_ns(2));
        let mut noted = MismatchToggles::new();
        noted.flip(a, t1);
        noted.flip(b, t2);
        noted.flip(a, t2);
        noted.mark_silent(b);
        // Noted in another order, with a toggle made and undone.
        let mut again = MismatchToggles::new();
        again.mark_silent(b);
        again.flip(a, t1);
        again.flip(a, t2);
        again.flip(b, t2);
        again.flip(b, t2);
        assert_ne!(noted, again);
        again.flip(b, t2);
        assert_eq!(noted, again);
        assert_eq!(noted.digest, again.digest);
        assert_ne!(noted.digest, MismatchToggles::new().digest);
    }

    #[test]
    fn between_reads_x01_and_silence() {
        let mut golden = Trace::new();
        let mut faulty = Trace::new();
        for (name, t, v) in [
            ("q", 0, Logic::Zero),
            ("q", 10, Logic::One),
            ("r", 3, Logic::One),
        ] {
            golden.record_digital(name, Time::from_ns(t), v).unwrap();
        }
        golden.digital_slot("idle");
        for (t, v) in [
            (0, Logic::WeakZero),
            (10, Logic::HighZ),
            (20, Logic::WeakOne),
        ] {
            faulty.record_digital("q", Time::from_ns(t), v).unwrap();
        }
        faulty
            .record_digital("idle", Time::from_ns(4), Logic::Unknown)
            .unwrap();
        let toggles = MismatchToggles::between(&golden, &faulty);
        let mut slot = |name| golden.digital_slot(name);
        let (q, r, idle) = (slot("q"), slot("r"), slot("idle"));
        assert_eq!(
            toggles.iter().collect::<Vec<_>>(),
            [
                (Time::from_ns(3), r),
                (Time::from_ns(10), q),
                (Time::from_ns(20), q)
            ]
        );
        assert!(toggles.is_silent(r) && !toggles.is_silent(q) && !toggles.is_silent(idle));
        assert!(MismatchToggles::between(&golden, &golden).is_empty());
        // The same list noted toggle by toggle is equal, digest included.
        let mut noted = MismatchToggles::new();
        noted.flip(r, Time::from_ns(3));
        noted.flip(q, Time::from_ns(10));
        noted.flip(q, Time::from_ns(20));
        noted.mark_silent(r);
        assert_eq!(noted, toggles);
    }
}
