//! Stimulus sources: clocks, constants and pre-scheduled waveforms.

use crate::component::{Component, EvalContext};
use crate::netlist::PortSpec;
use crate::word::{WordComponent, WordEvalContext};
use amsfi_waves::{Logic, LogicPlanes, LogicVector, Time};

/// A free-running clock generator.
///
/// The output starts low at time zero, rises at `start + period/2` and
/// toggles every half period thereafter.
///
/// # Examples
///
/// ```
/// use amsfi_digital::{cells::ClockGen, Netlist, Simulator};
/// use amsfi_waves::Time;
///
/// let mut net = Netlist::new();
/// let clk = net.signal("clk", 1);
/// net.add("ck", ClockGen::new(Time::from_ns(20)), &[], &[clk]);
/// let mut sim = Simulator::new(net);
/// sim.monitor_name("clk");
/// sim.run_until(Time::from_ns(100))?;
/// assert_eq!(sim.trace().digital("clk").unwrap().rising_edges().len(), 5);
/// # Ok::<(), amsfi_digital::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClockGen {
    period: Time,
    start: Time,
    value: Logic,
    fired: bool,
}

impl ClockGen {
    /// Creates a clock with the given period, starting immediately.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive.
    pub fn new(period: Time) -> Self {
        assert!(period > Time::ZERO, "clock period must be positive");
        ClockGen {
            period,
            start: Time::ZERO,
            value: Logic::Zero,
            fired: false,
        }
    }

    /// Delays the first half-period by `start`.
    #[must_use]
    pub fn with_start(mut self, start: Time) -> Self {
        self.start = start;
        self
    }

    /// The clock period.
    pub fn period(&self) -> Time {
        self.period
    }
}

impl Component for ClockGen {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let half = self.period / 2;
        if !self.fired {
            self.fired = true;
            ctx.drive_bit(0, Logic::Zero, Time::ZERO);
            ctx.wake(self.start + half);
        } else {
            self.value = if self.value == Logic::One {
                Logic::Zero
            } else {
                Logic::One
            };
            ctx.drive_bit(0, self.value, Time::ZERO);
            ctx.wake(half);
        }
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[], &[("clk", 1)])
    }

    fn word_component(&self) -> Option<Box<dyn WordComponent>> {
        Some(Box::new(WordClockGen {
            period: self.period,
            start: self.start,
            value: LogicPlanes::splat(self.value),
            fired: if self.fired { u64::MAX } else { 0 },
        }))
    }
}

/// The lanes whose bit of `flags` equals lane `reference`'s.
fn same_bit_as(flags: u64, reference: usize) -> u64 {
    if (flags >> reference) & 1 != 0 {
        flags
    } else {
        !flags
    }
}

/// Word-parallel clock: per-lane `fired` mask and a plane-valued level.
/// Lanes stay in lock step in practice (the clock has no inputs and no
/// mutant surface), but the masks keep per-lane semantics exact anyway.
#[derive(Debug)]
struct WordClockGen {
    period: Time,
    start: Time,
    value: LogicPlanes,
    fired: u64,
}

impl WordComponent for WordClockGen {
    fn eval(&mut self, ctx: &mut WordEvalContext<'_>) {
        let half = self.period / 2;
        let mask = ctx.eval_mask();
        let unfired = mask & !self.fired;
        if unfired != 0 {
            self.fired |= unfired;
            ctx.drive_bit_masked(0, LogicPlanes::splat(Logic::Zero), Time::ZERO, unfired);
            ctx.wake_masked(self.start + half, unfired);
        }
        let toggling = mask & !unfired;
        if toggling != 0 {
            // Toggle exactly the lanes currently at `One` (the scalar
            // toggle is an equality test, not `is_high`).
            let ones = !self.value.diverged_mask(LogicPlanes::splat(Logic::One));
            self.value = self
                .value
                .select(toggling, LogicPlanes::from_bool_mask(!ones));
            ctx.drive_bit_masked(0, self.value, Time::ZERO, toggling);
            ctx.wake_masked(half, toggling);
        }
    }

    fn lanes_equal_to(&mut self, reference: usize, candidates: u64) -> u64 {
        candidates
            & same_bit_as(self.fired, reference)
            & !self
                .value
                .diverged_mask(self.value.broadcast_lane(reference))
    }
}

/// Drives a constant vector from time zero.
#[derive(Debug, Clone)]
pub struct ConstVector {
    value: LogicVector,
}

impl ConstVector {
    /// Creates a constant source for `value`.
    pub fn new(value: LogicVector) -> Self {
        ConstVector { value }
    }

    /// Scalar convenience constructor.
    pub fn bit(value: Logic) -> Self {
        ConstVector {
            value: LogicVector::filled(value, 1),
        }
    }
}

impl Component for ConstVector {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        ctx.drive(0, &self.value, Time::ZERO);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[], &[("out", self.value.width())])
    }

    fn word_component(&self) -> Option<Box<dyn WordComponent>> {
        Some(Box::new(WordConstVector {
            value: self.value.iter().map(LogicPlanes::splat).collect(),
        }))
    }
}

/// Word-parallel constant source: the value pre-splatted into planes.
#[derive(Debug)]
struct WordConstVector {
    value: Vec<LogicPlanes>,
}

impl WordComponent for WordConstVector {
    fn eval(&mut self, ctx: &mut WordEvalContext<'_>) {
        ctx.drive(0, &self.value, Time::ZERO);
    }

    fn lanes_equal_to(&mut self, _reference: usize, candidates: u64) -> u64 {
        candidates
    }
}

/// Replays a pre-defined waveform: a list of `(time, value)` pairs scheduled
/// with transport semantics at power-on (the VHDL testbench idiom).
#[derive(Debug, Clone)]
pub struct Stimulus {
    width: usize,
    schedule: Vec<(Time, LogicVector)>,
    fired: bool,
}

impl Stimulus {
    /// Creates a stimulus from `(time, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty, not sorted by strictly increasing
    /// time, or mixes widths.
    pub fn new<I: IntoIterator<Item = (Time, LogicVector)>>(schedule: I) -> Self {
        let schedule: Vec<(Time, LogicVector)> = schedule.into_iter().collect();
        assert!(!schedule.is_empty(), "stimulus schedule is empty");
        let width = schedule[0].1.width();
        for pair in schedule.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "stimulus times must be strictly increasing"
            );
        }
        assert!(
            schedule.iter().all(|(_, v)| v.width() == width),
            "stimulus values must share one width"
        );
        Stimulus {
            width,
            schedule,
            fired: false,
        }
    }

    /// Builds a scalar stimulus from `(time, bool)` pairs.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Stimulus::new`].
    pub fn bits<I: IntoIterator<Item = (Time, bool)>>(schedule: I) -> Self {
        Self::new(
            schedule
                .into_iter()
                .map(|(t, b)| (t, LogicVector::filled(Logic::from_bool(b), 1))),
        )
    }
}

impl Component for Stimulus {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        if self.fired {
            return;
        }
        self.fired = true;
        for (t, v) in &self.schedule {
            ctx.drive_transport(0, v, *t);
        }
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[], &[("out", self.width)])
    }

    fn word_component(&self) -> Option<Box<dyn WordComponent>> {
        Some(Box::new(WordStimulus {
            schedule: self
                .schedule
                .iter()
                .map(|(t, v)| (*t, v.iter().map(LogicPlanes::splat).collect()))
                .collect(),
            fired: if self.fired { u64::MAX } else { 0 },
        }))
    }
}

/// Word-parallel stimulus: replays the schedule once per lane, on that
/// lane's first evaluation.
#[derive(Debug)]
struct WordStimulus {
    schedule: Vec<(Time, Vec<LogicPlanes>)>,
    fired: u64,
}

impl WordComponent for WordStimulus {
    fn eval(&mut self, ctx: &mut WordEvalContext<'_>) {
        let newly = ctx.eval_mask() & !self.fired;
        if newly == 0 {
            return;
        }
        self.fired |= newly;
        for (t, planes) in &self.schedule {
            ctx.drive_transport_masked(0, planes, *t, newly);
        }
    }

    fn lanes_equal_to(&mut self, reference: usize, candidates: u64) -> u64 {
        candidates & same_bit_as(self.fired, reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Netlist, Simulator};

    #[test]
    fn clock_duty_cycle_is_half() {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        let mut sim = Simulator::new(net);
        sim.monitor(clk);
        sim.run_until(Time::from_ns(100)).unwrap();
        let wave = sim.trace().digital("clk").unwrap();
        let rising = wave.rising_edges();
        let falling = wave.falling_edges();
        // Rises at 5, 15, ... and falls at 0, 10, 20, ...
        assert_eq!(rising[0], Time::from_ns(5));
        assert!(falling.contains(&Time::from_ns(10)));
        // High time between consecutive rise/fall is half the period.
        assert_eq!(falling[1] - rising[0], Time::from_ns(5));
    }

    #[test]
    fn clock_with_start_delay() {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        net.add(
            "ck",
            ClockGen::new(Time::from_ns(10)).with_start(Time::from_ns(100)),
            &[],
            &[clk],
        );
        let mut sim = Simulator::new(net);
        sim.monitor(clk);
        sim.run_until(Time::from_ns(120)).unwrap();
        let rising = sim.trace().digital("clk").unwrap().rising_edges();
        assert_eq!(rising[0], Time::from_ns(105));
    }

    #[test]
    fn stimulus_replays_schedule() {
        let mut net = Netlist::new();
        let s = net.signal("s", 1);
        net.add(
            "stim",
            Stimulus::bits([
                (Time::ZERO, false),
                (Time::from_ns(10), true),
                (Time::from_ns(30), false),
            ]),
            &[],
            &[s],
        );
        let mut sim = Simulator::new(net);
        sim.monitor(s);
        sim.run_until(Time::from_ns(50)).unwrap();
        let w = sim.trace().digital("s").unwrap();
        assert_eq!(w.value_at(Time::from_ns(5)), Logic::Zero);
        assert_eq!(w.value_at(Time::from_ns(20)), Logic::One);
        assert_eq!(w.value_at(Time::from_ns(40)), Logic::Zero);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn stimulus_rejects_unsorted() {
        let _ = Stimulus::bits([(Time::from_ns(10), true), (Time::ZERO, false)]);
    }

    #[test]
    fn const_vector_drives_value() {
        let mut net = Netlist::new();
        let v = net.signal("v", 8);
        net.add(
            "c",
            ConstVector::new(LogicVector::from_u64(0xA5, 8)),
            &[],
            &[v],
        );
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_ns(1)).unwrap();
        assert_eq!(sim.value(v).to_u64(), Some(0xA5));
    }
}
