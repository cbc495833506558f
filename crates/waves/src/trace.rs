//! A named collection of monitored waveforms — the output of one simulation
//! run, digital and analog signals together.
//!
//! Readers address signals by name; simulation kernels record through
//! *slots*. A slot is the index a name resolves to, once, when the signal
//! is monitored ([`Trace::digital_slot`] / [`Trace::analog_slot`]); every
//! recorded transition after that is [`Trace::push_digital`] /
//! [`Trace::push_analog`] — an index into a vector of waves, with no
//! string built, compared or hashed per time point.

use crate::{AnalogWave, DigitalWave, Logic, PushOutOfOrderError, Time};
use std::fmt::Write as _;
use std::sync::Arc;

/// Handle to one digital signal of a [`Trace`], from
/// [`Trace::digital_slot`]. Valid for that trace and every clone of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DigitalSlot(pub(crate) u32);

impl DigitalSlot {
    /// The slot's position among its trace's digital slots, in registration
    /// order: dense from zero, for tables indexed by slot.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to one analog signal of a [`Trace`], from
/// [`Trace::analog_slot`]. Valid for that trace and every clone of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnalogSlot(u32);

/// What the slot table needs of a waveform, digital or analog alike.
trait Wave: Default {
    type Value: Copy;

    /// The `(time, value)` records, sorted by time.
    fn records(&self) -> &[(Time, Self::Value)];

    /// A slot whose wave never recorded is invisible to every reader.
    fn is_silent(&self) -> bool {
        self.records().is_empty()
    }
}

impl Wave for DigitalWave {
    type Value = Logic;

    fn records(&self) -> &[(Time, Logic)] {
        self.transitions()
    }
}

impl Wave for AnalogWave {
    type Value = f64;

    fn records(&self) -> &[(Time, f64)] {
        self.samples()
    }
}

/// Waves of one kind: slot-indexed for recording, name-sorted for reading.
#[derive(Debug, Clone, Default)]
struct Table<W> {
    /// `(name, wave)` in registration order; a slot is an index here.
    /// Names are shared with clones: a fork's trace copies the golden
    /// waves, not the strings.
    slots: Vec<(Arc<str>, W)>,
    /// Slot indices sorted by name.
    by_name: Vec<u32>,
}

impl<W: Wave> Table<W> {
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.by_name
            .binary_search_by(|&slot| (*self.slots[slot as usize].0).cmp(name))
    }

    /// The slot of `name`, registering it (silent) if new.
    fn slot(&mut self, name: &str) -> u32 {
        match self.position(name) {
            Ok(at) => self.by_name[at],
            Err(at) => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 signals");
                self.slots.push((name.into(), W::default()));
                self.by_name.insert(at, slot);
                slot
            }
        }
    }

    fn wave_mut(&mut self, slot: u32) -> &mut W {
        &mut self.slots[slot as usize].1
    }

    /// The slot of `name`, if registered.
    fn slot_of(&self, name: &str) -> Option<u32> {
        self.position(name).ok().map(|at| self.by_name[at])
    }

    /// The wave behind `slot`, if it has recorded.
    fn recorded_at(&self, slot: u32) -> Option<&W> {
        let wave = &self.slots[slot as usize].1;
        (!wave.is_silent()).then_some(wave)
    }

    fn get(&self, name: &str) -> Option<&W> {
        self.recorded_at(self.slot_of(name)?)
    }

    /// `(name, wave)` of every signal that recorded, sorted by name.
    fn recorded(&self) -> impl Iterator<Item = (&str, &W)> {
        self.by_name.iter().filter_map(|&slot| {
            let (name, wave) = &self.slots[slot as usize];
            (!wave.is_silent()).then_some((&**name, wave))
        })
    }

    /// Payload vectors plus names of the signals that recorded.
    fn approx_bytes(&self) -> usize {
        self.recorded()
            .map(|(name, w)| name.len() + std::mem::size_of_val(w.records()))
            .sum()
    }

    /// Replaces same-named waves by `other`'s and adopts the rest.
    fn absorb(&mut self, other: Table<W>) {
        for (name, wave) in other.slots {
            if !wave.is_silent() {
                let slot = self.slot(&name);
                *self.wave_mut(slot) = wave;
            }
        }
    }
}

impl<W: Wave + PartialEq> PartialEq for Table<W> {
    fn eq(&self, other: &Self) -> bool {
        self.recorded().eq(other.recorded())
    }
}

/// The waveforms recorded by one simulation run.
///
/// Signals are keyed by hierarchical name (e.g. `"pll.vco_in"`). A `Trace`
/// is what the campaign engine compares between a golden run and each fault
/// injection run.
///
/// # Examples
///
/// Cold callers record by name:
///
/// ```
/// use amsfi_waves::{Logic, Time, Trace};
///
/// let mut trace = Trace::new();
/// trace.record_digital("clk", Time::ZERO, Logic::Zero)?;
/// trace.record_analog("vctrl", Time::ZERO, 2.5)?;
/// assert_eq!(trace.digital("clk").unwrap().value_at(Time::ZERO), Logic::Zero);
/// # Ok::<(), amsfi_waves::PushOutOfOrderError>(())
/// ```
///
/// A simulation kernel resolves each monitored name to a slot once and
/// records through it. Slots survive [`Clone`] (a forked run's trace is a
/// clone of the golden one), and a slot that never recorded is invisible:
/// it is not listed, not counted, not compared and not exported.
///
/// ```
/// use amsfi_waves::{Logic, Time, Trace};
///
/// let mut trace = Trace::new();
/// let clk = trace.digital_slot("clk");
/// let idle = trace.digital_slot("idle");
/// trace.push_digital(clk, Time::ZERO, Logic::Zero)?;
///
/// let mut fork = trace.clone();
/// fork.push_digital(clk, Time::from_ns(5), Logic::One)?;
/// assert_eq!(fork.digital("clk").unwrap().len(), 2);
/// assert_eq!(trace.digital_names().collect::<Vec<_>>(), ["clk"]);
/// assert!(trace.digital("idle").is_none());
/// # let _ = idle;
/// # Ok::<(), amsfi_waves::PushOutOfOrderError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    digital: Table<DigitalWave>,
    analog: Table<AnalogWave>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves a digital signal name to its slot, registering the name if
    /// it is new. Registration alone records nothing.
    pub fn digital_slot(&mut self, name: &str) -> DigitalSlot {
        DigitalSlot(self.digital.slot(name))
    }

    /// Resolves an analog signal name to its slot, registering the name if
    /// it is new. Registration alone records nothing.
    pub fn analog_slot(&mut self, name: &str) -> AnalogSlot {
        AnalogSlot(self.analog.slot(name))
    }

    /// Appends a transition to the digital signal behind `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`PushOutOfOrderError`] if `time` precedes the signal's last
    /// recorded transition.
    ///
    /// # Panics
    ///
    /// May panic if `slot` comes from an unrelated trace.
    pub fn push_digital(
        &mut self,
        slot: DigitalSlot,
        time: Time,
        value: Logic,
    ) -> Result<(), PushOutOfOrderError> {
        self.digital.wave_mut(slot.0).push(time, value)
    }

    /// Appends a sample to the analog signal behind `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`PushOutOfOrderError`] if `time` precedes the signal's last
    /// recorded sample.
    ///
    /// # Panics
    ///
    /// May panic if `slot` comes from an unrelated trace.
    pub fn push_analog(
        &mut self,
        slot: AnalogSlot,
        time: Time,
        value: f64,
    ) -> Result<(), PushOutOfOrderError> {
        self.analog.wave_mut(slot.0).push(time, value)
    }

    /// Appends a transition to the named digital signal, creating it if
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`PushOutOfOrderError`] if `time` precedes the signal's last
    /// recorded transition.
    pub fn record_digital(
        &mut self,
        name: &str,
        time: Time,
        value: Logic,
    ) -> Result<(), PushOutOfOrderError> {
        let slot = self.digital_slot(name);
        self.push_digital(slot, time, value)
    }

    /// Appends a sample to the named analog signal, creating it if needed.
    ///
    /// # Errors
    ///
    /// Returns [`PushOutOfOrderError`] if `time` precedes the signal's last
    /// recorded sample.
    pub fn record_analog(
        &mut self,
        name: &str,
        time: Time,
        value: f64,
    ) -> Result<(), PushOutOfOrderError> {
        let slot = self.analog_slot(name);
        self.push_analog(slot, time, value)
    }

    /// The named digital waveform, if recorded.
    pub fn digital(&self, name: &str) -> Option<&DigitalWave> {
        self.digital.get(name)
    }

    /// The named analog waveform, if recorded.
    pub fn analog(&self, name: &str) -> Option<&AnalogWave> {
        self.analog.get(name)
    }

    /// Names of all recorded digital signals, sorted.
    pub fn digital_names(&self) -> impl Iterator<Item = &str> {
        self.digital.recorded().map(|(name, _)| name)
    }

    /// Names of all recorded analog signals, sorted.
    pub fn analog_names(&self) -> impl Iterator<Item = &str> {
        self.analog.recorded().map(|(name, _)| name)
    }

    /// Number of recorded signals (digital + analog).
    pub fn len(&self) -> usize {
        self.digital.recorded().count() + self.analog.recorded().count()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The latest time appearing in any waveform.
    pub fn end_time(&self) -> Option<Time> {
        self.digital
            .recorded()
            .filter_map(|(_, w)| w.end_time())
            .chain(self.analog.recorded().filter_map(|(_, w)| w.end_time()))
            .max()
    }

    /// Merges another trace into this one. Signals with the same name are
    /// replaced by `other`'s waveform. Slots of `self` stay valid; slots of
    /// `other` do not carry over.
    pub fn absorb(&mut self, other: Trace) {
        self.digital.absorb(other.digital);
        self.analog.absorb(other.analog);
    }

    /// The digital wave behind `slot`, if it has recorded — what
    /// [`Trace::digital`] returns for the slot's name.
    ///
    /// # Panics
    ///
    /// May panic if `slot` comes from an unrelated trace.
    pub fn digital_at(&self, slot: DigitalSlot) -> Option<&DigitalWave> {
        self.digital.recorded_at(slot.0)
    }

    /// The slot of the named digital signal, if it has recorded: the slot
    /// behind which [`Trace::digital`] finds `name`.
    pub fn recorded_digital_slot(&self, name: &str) -> Option<DigitalSlot> {
        let slot = self.digital.slot_of(name)?;
        self.digital.recorded_at(slot).map(|_| DigitalSlot(slot))
    }

    /// Every digital slot, recorded or silent, in registration order, with
    /// its name and wave.
    pub(crate) fn digital_slots(&self) -> impl Iterator<Item = (DigitalSlot, &str, &DigitalWave)> {
        (0u32..)
            .zip(&self.digital.slots)
            .map(|(slot, (name, wave))| (DigitalSlot(slot), &**name, wave))
    }

    /// Approximate resident size of the recorded data in bytes: payload
    /// vectors plus signal names (map/allocator overhead excluded). Used
    /// for memory-telemetry counters such as the engine's shared
    /// golden-trace gauge.
    pub fn approx_bytes(&self) -> u64 {
        (self.digital.approx_bytes() + self.analog.approx_bytes()) as u64
    }

    /// Renders the analog signals as CSV sampled every `step` over
    /// `[from, to]`, one time column plus one column per signal, suitable for
    /// external plotting of the paper's figures.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or negative.
    pub fn analog_csv(&self, from: Time, to: Time, step: Time) -> String {
        assert!(step > Time::ZERO, "step must be positive");
        let mut out = String::from("time_s");
        for (name, _) in self.analog.recorded() {
            let _ = write!(out, ",{name}");
        }
        out.push('\n');
        let mut t = from;
        while t <= to {
            let _ = write!(out, "{}", t.as_secs_f64());
            for (_, wave) in self.analog.recorded() {
                let _ = write!(out, ",{}", wave.value_at(t));
            }
            out.push('\n');
            t += step;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_retrieves_both_kinds() {
        let mut tr = Trace::new();
        tr.record_digital("clk", Time::ZERO, Logic::One).unwrap();
        tr.record_digital("clk", Time::from_ns(10), Logic::Zero)
            .unwrap();
        tr.record_analog("vctrl", Time::ZERO, 2.5).unwrap();
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.digital("clk").unwrap().len(), 2);
        assert_eq!(tr.analog("vctrl").unwrap().value_at(Time::ZERO), 2.5);
        assert!(tr.digital("nope").is_none());
        assert_eq!(tr.end_time(), Some(Time::from_ns(10)));
    }

    #[test]
    fn names_are_sorted() {
        let mut tr = Trace::new();
        tr.record_analog("b", Time::ZERO, 0.0).unwrap();
        tr.record_analog("a", Time::ZERO, 0.0).unwrap();
        let names: Vec<&str> = tr.analog_names().collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut tr = Trace::new();
        tr.record_analog("v", Time::ZERO, 1.0).unwrap();
        tr.record_analog("v", Time::from_ns(10), 2.0).unwrap();
        let csv = tr.analog_csv(Time::ZERO, Time::from_ns(10), Time::from_ns(5));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,v");
        assert_eq!(lines.len(), 4); // header + t=0,5,10 ns
        assert!(lines[2].ends_with("1.5"));
    }

    #[test]
    fn out_of_order_record_is_an_error() {
        let mut tr = Trace::new();
        tr.record_digital("s", Time::from_ns(5), Logic::One)
            .unwrap();
        assert!(tr.record_digital("s", Time::ZERO, Logic::Zero).is_err());
    }

    #[test]
    fn absorb_merges_traces() {
        let mut a = Trace::new();
        a.record_digital("clk", Time::ZERO, Logic::One).unwrap();
        let mut b = Trace::new();
        b.record_analog("v", Time::ZERO, 1.0).unwrap();
        b.record_digital("clk", Time::ZERO, Logic::Zero).unwrap();
        a.absorb(b);
        assert_eq!(a.len(), 2);
        // The absorbed trace wins on name clashes.
        assert_eq!(a.digital("clk").unwrap().value_at(Time::ZERO), Logic::Zero);
    }
}
