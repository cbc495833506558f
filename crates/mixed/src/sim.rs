//! The lock-step mixed-mode co-simulation kernel.

use crate::boundary::{Digitizer, LevelDriver};
use crate::tape::{AnalogTape, TapedEdge};

/// Telemetry batching stride for the shared sync-step counter: the sync
/// loop touches the contended atomic once per this many steps.
const SYNC_METRICS_STRIDE: u32 = 64;

use amsfi_analog::{AnalogSolver, NodeId};
use amsfi_digital::{SignalId, SimError, Simulator};
use amsfi_waves::{
    Follow, ForkableSim, GuardViolation, LogicVector, SimBudget, SimObserver, SimTape, Time, Trace,
};
use std::sync::Arc;

/// Co-simulates a digital [`Simulator`] and an analog [`AnalogSolver`] with
/// synchronised time, exchanging values through [`LevelDriver`]s
/// (digital → analog) and [`Digitizer`]s (analog → digital).
///
/// Synchronisation contract:
///
/// * analog integration steps never bridge a pending digital event — the
///   kernel clamps each step to the digital simulator's next event time, so
///   a digital transition is visible to the analog side from the exact step
///   on which it occurs;
/// * digitizer crossings are interpolated *inside* a step and injected into
///   the digital event queue at the interpolated instant, so clock edges
///   derived from analog waveforms (the PLL's `F_out`) keep sub-step timing
///   accuracy.
///
/// # Examples
///
/// An analog sine squared up by a digitizer and counted by a digital
/// counter:
///
/// ```
/// use amsfi_analog::{blocks, AnalogCircuit, AnalogSolver, NodeKind};
/// use amsfi_digital::{cells, Netlist, Simulator};
/// use amsfi_mixed::MixedSimulator;
/// use amsfi_waves::{Logic, Time};
///
/// let mut ckt = AnalogCircuit::new();
/// let sine = ckt.node("sine", NodeKind::Voltage);
/// ckt.add("src", blocks::SineSource::new(10e6, 2.5, 2.5), &[], &[sine]);
///
/// let mut net = Netlist::new();
/// let clk = net.signal("clk", 1);
/// let rst = net.signal("rst", 1);
/// let en = net.signal("en", 1);
/// let q = net.signal("q", 8);
/// net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
/// net.add("e", cells::ConstVector::bit(Logic::One), &[], &[en]);
/// net.add("ctr", cells::Counter::new(8, Time::ZERO), &[clk, rst, en], &[q]);
///
/// let mut mixed = MixedSimulator::new(
///     Simulator::new(net),
///     AnalogSolver::new(ckt, Time::from_ns(2)),
/// );
/// mixed.bind_digitizer("sine", "clk", 2.5, 0.2);
/// mixed.run_until(Time::from_us(1))?;
/// // 10 MHz for 1 us: rising crossings at 0, 100 ns, ..., 1 us inclusive.
/// let q = mixed.digital().signal_id("q").unwrap();
/// assert_eq!(mixed.digital().value(q).to_u64(), Some(11));
/// # Ok::<(), amsfi_digital::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MixedSimulator {
    digital: Simulator,
    analog: AnalogSolver,
    now: Time,
    drivers: Vec<LevelDriver>,
    digitizers: Vec<Digitizer>,
    seeded: bool,
    budget: SimBudget,
    observer: SimObserver,
    /// Each digitized node's value at the start of the sync step in flight
    /// (scratch: refilled every step).
    prev: Vec<f64>,
    /// The tape this run's analog half was replayed from, once
    /// [`MixedSimulator::follow`] has run: `analog` then still stands at
    /// the fork point and the tape's waves are this run's analog trace.
    followed: Option<Arc<AnalogTape>>,
}

impl MixedSimulator {
    /// Couples a digital simulator and an analog solver, both at time zero.
    pub fn new(digital: Simulator, analog: AnalogSolver) -> Self {
        MixedSimulator {
            digital,
            analog,
            now: Time::ZERO,
            drivers: Vec::new(),
            digitizers: Vec::new(),
            seeded: false,
            budget: SimBudget::unlimited(),
            observer: SimObserver::default(),
            prev: Vec::new(),
            followed: None,
        }
    }

    /// Installs a [`SimBudget`] on the co-simulation loop. Every
    /// synchronisation step counts as one budget step; the analog solver's
    /// proposed timestep is checked against the budget's `min_dt` floor
    /// *before* event clamping (so digital activity cannot mask a collapsing
    /// analog step), and every analog node is scanned for non-finite values
    /// after each integration step.
    ///
    /// The two halves keep their own (unlimited) budgets: installing the
    /// budget here avoids double-counting steps across the three kernels.
    /// A metric registry attached to the budget *is* propagated to both
    /// sub-kernels (metrics-only budgets never arm a guard), so solver
    /// steps, proposed timesteps and digital events are recorded in mixed
    /// mode too.
    pub fn set_budget(&mut self, budget: SimBudget) {
        if let Some(metrics) = budget.metrics() {
            let analog_budget = self
                .analog
                .budget()
                .clone()
                .with_metrics(std::sync::Arc::clone(metrics));
            self.analog.set_budget(analog_budget);
            let digital_budget = self
                .digital
                .budget()
                .clone()
                .with_metrics(std::sync::Arc::clone(metrics));
            self.digital.set_budget(digital_budget);
        }
        self.budget = budget;
    }

    /// The installed budget.
    pub fn budget(&self) -> &SimBudget {
        &self.budget
    }

    /// Enables or disables crossing-time interpolation on every digitizer
    /// (an accuracy-vs-nothing ablation: disabling quantises analog-derived
    /// clock edges to the synchronisation grid). Enabled by default.
    pub fn set_edge_interpolation(&mut self, enabled: bool) {
        for dz in &mut self.digitizers {
            dz.set_interpolation(enabled);
        }
    }

    /// Connects digital `signal` to analog voltage `node` with the given
    /// rails (digital → analog).
    pub fn bind_driver_ids(&mut self, signal: SignalId, node: NodeId, v_low: f64, v_high: f64) {
        self.drivers
            .push(LevelDriver::new(signal, node, v_low, v_high));
    }

    /// Connects bit `bit` of a digital bus to analog voltage `node` — one
    /// leg of a level-driven DAC.
    ///
    /// # Panics
    ///
    /// Panics if either name does not exist.
    pub fn bind_driver_bit(
        &mut self,
        signal: &str,
        bit: usize,
        node: &str,
        v_low: f64,
        v_high: f64,
    ) {
        let sig = self
            .digital
            .signal_id(signal)
            .unwrap_or_else(|| panic!("no digital signal named {signal:?}"));
        let nd = self
            .analog
            .node_id(node)
            .unwrap_or_else(|| panic!("no analog node named {node:?}"));
        self.drivers
            .push(LevelDriver::for_bit(sig, bit, nd, v_low, v_high));
    }

    /// Name-based form of [`MixedSimulator::bind_driver_ids`].
    ///
    /// # Panics
    ///
    /// Panics if either name does not exist.
    pub fn bind_driver(&mut self, signal: &str, node: &str, v_low: f64, v_high: f64) {
        let sig = self
            .digital
            .signal_id(signal)
            .unwrap_or_else(|| panic!("no digital signal named {signal:?}"));
        let nd = self
            .analog
            .node_id(node)
            .unwrap_or_else(|| panic!("no analog node named {node:?}"));
        self.bind_driver_ids(sig, nd, v_low, v_high);
    }

    /// Connects analog `node` to digital `signal` through a threshold
    /// digitizer (analog → digital). The signal must have no component
    /// driver.
    pub fn bind_digitizer_ids(
        &mut self,
        node: NodeId,
        signal: SignalId,
        threshold: f64,
        hysteresis: f64,
    ) {
        self.digitizers
            .push(Digitizer::new(node, signal, threshold, hysteresis));
    }

    /// Name-based form of [`MixedSimulator::bind_digitizer_ids`].
    ///
    /// # Panics
    ///
    /// Panics if either name does not exist.
    pub fn bind_digitizer(&mut self, node: &str, signal: &str, threshold: f64, hysteresis: f64) {
        let nd = self
            .analog
            .node_id(node)
            .unwrap_or_else(|| panic!("no analog node named {node:?}"));
        let sig = self
            .digital
            .signal_id(signal)
            .unwrap_or_else(|| panic!("no digital signal named {signal:?}"));
        self.bind_digitizer_ids(nd, sig, threshold, hysteresis);
    }

    /// Current synchronised simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The digital half.
    pub fn digital(&self) -> &Simulator {
        &self.digital
    }

    /// Mutable access to the digital half (for mutant injection mid-run).
    /// The half keeps note of what is written into it this way; see
    /// [`MixedSimulator::analog_is_clean`].
    pub fn digital_mut(&mut self) -> &mut Simulator {
        &mut self.digital
    }

    /// The analog half.
    pub fn analog(&self) -> &AnalogSolver {
        &self.analog
    }

    /// Mutable access to the analog half (for parametric faults mid-run).
    /// A reconfigured block or a forced node is noted (see
    /// [`MixedSimulator::analog_is_clean`]).
    pub fn analog_mut(&mut self) -> &mut AnalogSolver {
        &mut self.analog
    }

    /// The union of both domains' traces. After [`MixedSimulator::follow`]
    /// the analog half's is the tape's: the waves the leader recorded.
    pub fn merged_trace(&self) -> Trace {
        let analog = match &self.followed {
            Some(tape) => &tape.waves,
            None => self.analog.trace(),
        };
        let mut t = self.digital.trace().clone();
        t.absorb(analog.clone());
        t
    }

    /// Whether the analog half is provably the fault-free one: nothing in
    /// it was written from outside ([`AnalogSolver::touched`]), and
    /// nothing written into the digital half from outside can propagate to
    /// a signal a level driver reads
    /// ([`Simulator::outside_writes_reach`]). The analog half of such a run
    /// depends on the fault only through the synchronisation grid — where
    /// the digital half's events cut the solver's steps.
    pub fn analog_is_clean(&self) -> bool {
        if self.analog.touched() {
            return false;
        }
        let driven: Vec<SignalId> = self.drivers.iter().map(|d| d.signal).collect();
        !self.digital.outside_writes_reach(&driven)
    }

    /// Whether this run may record its analog half for others or take it
    /// from a recording: the half is clean, nobody watches it grow (an
    /// observer's watermark contract is about a trace in the making), and
    /// the run is an ordinary one past its first seeding.
    fn may_share_analog(&self) -> bool {
        let watched = self.observer.is_watching();
        self.seeded && !watched && self.followed.is_none() && self.analog_is_clean()
    }

    /// Runs both domains, synchronised, until `t_end`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the digital kernel (delta overflow) and
    /// reports [`SimError::Guard`] when the installed [`SimBudget`] trips:
    /// the step budget or deadline is exhausted, the analog solver proposes
    /// a timestep below the `min_dt` floor, or an analog node goes
    /// non-finite — or when the installed [`SimObserver`] retires the run.
    ///
    /// # Panics
    ///
    /// Panics when asked to run on after [`MixedSimulator::follow`]: the
    /// analog half was never advanced.
    pub fn run_until(&mut self, t_end: Time) -> Result<(), SimError> {
        self.sync_loop(t_end, None)
    }

    /// [`MixedSimulator::run_until`] that, when the analog half
    /// [is clean](MixedSimulator::analog_is_clean) and unobserved, records
    /// it on the way: the tape any other fork of the same snapshot with a
    /// clean analog half may [`follow`](MixedSimulator::follow). `None`
    /// when this run cannot prove that much; it has advanced all the same.
    ///
    /// # Errors
    ///
    /// As [`MixedSimulator::run_until`]; a failed run returns no tape.
    pub fn lead_to(&mut self, t_end: Time) -> Result<Option<Arc<AnalogTape>>, SimError> {
        if !self.may_share_analog() {
            return self.run_until(t_end).map(|()| None);
        }
        let mut tape = AnalogTape::new(self.now, t_end);
        self.sync_loop(t_end, Some(&mut tape))?;
        tape.waves = self.analog.trace().clone();
        Ok(Some(Arc::new(tape)))
    }

    /// Advances from `tape`'s start to its end on the digital half alone:
    /// the synchronisation loop of [`MixedSimulator::run_until`] with the
    /// solver's step replaced by what `tape` recorded of it — the proposed
    /// timestep going in, the digitizer edges coming out.
    ///
    /// Sound when both runs were forked from one snapshot and both have a
    /// clean analog half: the two analog halves then integrate the same
    /// circuit from the same state under the same driver levels and differ
    /// at most in their step grids. That last part is not assumed. Every
    /// step recomputes where it lands from this run's own digital events
    /// and must hit the tape's instant, else the run stops with
    /// [`Follow::LeftGrid`]. [`Follow::Refused`] — the run is not at the
    /// tape's start, or may not share its analog half — leaves it untouched.
    ///
    /// After [`Follow::Done`] the run is spent: [`merged_trace`] is
    /// complete, the digital half stands at the tape's end, and the analog
    /// solver still at its start.
    ///
    /// [`merged_trace`]: MixedSimulator::merged_trace
    ///
    /// # Errors
    ///
    /// As [`MixedSimulator::run_until`], less the analog guards: the
    /// leader's run passed those.
    pub fn follow(&mut self, tape: &Arc<AnalogTape>) -> Result<Follow, SimError> {
        if self.now != tape.start || !self.may_share_analog() {
            return Ok(Follow::Refused);
        }
        self.digital.run_until(self.now)?;
        let mut edges = tape.edges.iter().peekable();
        for (k, &(landed, proposed)) in tape.steps.iter().enumerate() {
            self.note_sync_step(proposed)?;
            if self.sync_target(proposed, tape.end) != landed {
                return Ok(Follow::LeftGrid);
            }
            while let Some(edge) = edges.next_if(|edge| edge.step == k) {
                let value = LogicVector::filled(edge.level, 1);
                self.digital.inject_boundary(edge.signal, value, edge.at);
            }
            self.now = landed;
            self.digital.run_until(landed)?;
        }
        self.followed = Some(Arc::clone(tape));
        Ok(Follow::Done)
    }

    /// Counts one synchronisation step against the budget. The proposed
    /// step is inspected *before* the event clamp so a collapsing analog
    /// timestep is caught even when dense digital activity would shrink
    /// the step anyway.
    fn note_sync_step(&mut self, proposed: Time) -> Result<(), SimError> {
        self.budget.check_dt(proposed, self.now)?;
        self.budget.note_step(self.now)?;
        // Batched at the budget's local step count: one contended RMW
        // per SYNC_METRICS_STRIDE sync steps instead of one per step.
        if self
            .budget
            .steps_used()
            .is_multiple_of(u64::from(SYNC_METRICS_STRIDE))
        {
            if let Some(metrics) = self.budget.metrics() {
                metrics.sync_steps.add(u64::from(SYNC_METRICS_STRIDE));
            }
        }
        Ok(())
    }

    /// Where the synchronisation step starting now lands: the solver's
    /// proposal, cut at the horizon and at the next digital event.
    fn sync_target(&self, proposed: Time, t_end: Time) -> Time {
        let t_next = self.now.saturating_add(proposed).min(t_end);
        match self.digital.next_event_time() {
            Some(te) if te > self.now => t_next.min(te),
            _ => t_next,
        }
    }

    /// The synchronisation loop, recording the analog half onto `tape`
    /// when there is one.
    fn sync_loop(
        &mut self,
        t_end: Time,
        mut tape: Option<&mut AnalogTape>,
    ) -> Result<(), SimError> {
        assert!(
            self.followed.is_none() || t_end <= self.now,
            "a run that followed a tape is spent at the tape's end"
        );
        if !self.seeded {
            self.seeded = true;
            // Seed the digital side with the initial level of every
            // digitized node so boundary signals never start at 'U'.
            for dz in &mut self.digitizers {
                let level = dz.initial_level(self.analog.value(dz.node));
                self.digital
                    .inject_boundary(dz.signal, LogicVector::filled(level, 1), self.now);
            }
        }
        // Flush digital activity at the current instant (power-on deltas,
        // seeds) so next_event_time() looks strictly ahead.
        self.digital.run_until(self.now)?;
        while self.now < t_end {
            // Zero-order hold: analog boundary nodes follow the digital
            // values as of the step start.
            for d in &self.drivers {
                let level = d.level(self.digital.value(d.signal)[d.bit]);
                self.analog.drive_boundary(d.node, level);
            }
            let proposed = self.analog.propose_dt();
            self.note_sync_step(proposed)?;
            let t_next = self.sync_target(proposed, t_end);
            if let Some(tape) = tape.as_deref_mut() {
                if tape.steps.is_empty() {
                    tape.reserve(proposed);
                }
                tape.steps.push((t_next, proposed));
            }
            // Snapshot digitized nodes, integrate, then look for crossings.
            let t0 = self.now;
            self.prev.clear();
            self.prev
                .extend(self.digitizers.iter().map(|dz| self.analog.value(dz.node)));
            self.analog.step(t_next - t0);
            if self.budget.is_limited() {
                if let Some((signal, _)) = self.analog.first_non_finite() {
                    return Err(GuardViolation::NonFinite {
                        signal: signal.to_owned(),
                        t: t0,
                    }
                    .into());
                }
            }
            for (dz, &v0) in self.digitizers.iter_mut().zip(&self.prev) {
                let v1 = self.analog.value(dz.node);
                // An edge lands strictly inside `(t0, t_next]`: the digital
                // side, standing at `t0`, has not passed it.
                if let Some(edge) = dz.check(t0, v0, t_next, v1) {
                    if let Some(tape) = tape.as_deref_mut() {
                        tape.edges.push(TapedEdge {
                            step: tape.steps.len() - 1,
                            signal: dz.signal,
                            at: edge.at,
                            level: edge.level,
                        });
                    }
                    self.digital.inject_boundary(
                        dz.signal,
                        LogicVector::filled(edge.level, 1),
                        edge.at,
                    );
                }
            }
            self.now = t_next;
            self.digital.run_until(self.now)?;
            // Poll the observer at the end of the sync step. Finality
            // contract: both kernels have fully drained activity up to
            // `now`, and the next step's digitizer edges land strictly
            // after it; the watermark instant itself is still not
            // advertised as final.
            self.observer
                .poll(self.now, &[self.digital.trace(), self.analog.trace()])?;
        }
        self.observer
            .flush(self.now, &[self.digital.trace(), self.analog.trace()])?;
        Ok(())
    }
}

impl ForkableSim for MixedSimulator {
    type Error = SimError;

    /// Equivalence caveat: the synchronisation grid depends on where
    /// previous `advance_to` calls stopped (each stop clamps the step in
    /// flight), so fork-vs-scratch byte identity requires driving both runs
    /// through the same stop sequence. The campaign runner guarantees this
    /// by construction.
    fn advance_to(&mut self, t: Time) -> Result<(), SimError> {
        self.run_until(t)
    }

    fn current_time(&self) -> Time {
        self.now
    }

    fn snapshot_trace(&self) -> Trace {
        self.merged_trace()
    }

    fn install_budget(&mut self, budget: SimBudget) {
        self.set_budget(budget);
    }

    /// Installs a [`SimObserver`] polled (at its stride) at the end of each
    /// synchronisation step with the step boundary as the finality
    /// watermark, over a view of *both* kernels' traces. The observer stays
    /// on the co-simulation loop — the sub-kernels keep their own (empty)
    /// observers, so a view is never polled with only half the signals; a
    /// hook that returns `true` retires the run there. Replaces any
    /// previous observer.
    fn install_observer(&mut self, observer: SimObserver) {
        self.observer = observer;
    }

    fn lead_to(&mut self, t: Time) -> Result<Option<SimTape>, SimError> {
        let tape = MixedSimulator::lead_to(self, t)?;
        Ok(tape.map(|tape| tape as SimTape))
    }

    fn follow(&mut self, tape: &SimTape) -> Result<Follow, SimError> {
        match Arc::clone(tape).downcast::<AnalogTape>() {
            Ok(tape) => MixedSimulator::follow(self, &tape),
            Err(_) => Ok(Follow::Refused),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amsfi_analog::{blocks, AnalogCircuit, NodeKind};
    use amsfi_digital::{cells, Netlist};
    use amsfi_waves::{measure, Checkpoint, Logic};

    /// Analog sine → digitizer → digital counter.
    fn sine_counter(freq_hz: f64) -> MixedSimulator {
        let mut ckt = AnalogCircuit::new();
        ckt.node("sine", NodeKind::Voltage);
        let sine = ckt.node_id("sine").unwrap();
        ckt.add(
            "src",
            blocks::SineSource::new(freq_hz, 2.5, 2.5),
            &[],
            &[sine],
        );

        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let en = net.signal("en", 1);
        let q = net.signal("q", 16);
        net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
        net.add("e", cells::ConstVector::bit(Logic::One), &[], &[en]);
        net.add(
            "ctr",
            cells::Counter::new(16, Time::ZERO),
            &[clk, rst, en],
            &[q],
        );

        let mut mixed = MixedSimulator::new(
            Simulator::new(net),
            AnalogSolver::new(ckt, Time::from_ns(2)),
        );
        mixed.bind_digitizer("sine", "clk", 2.5, 0.2);
        mixed
    }

    #[test]
    fn digitized_sine_clocks_counter() {
        let mut mixed = sine_counter(10e6);
        mixed.run_until(Time::from_us(2)).unwrap();
        let q = mixed.digital().signal_id("q").unwrap();
        // 10 MHz over 2 us: 20 rising crossings (within one of rounding).
        let count = mixed.digital().value(q).to_u64().unwrap();
        assert!((19..=21).contains(&count), "count = {count}");
        assert_eq!(mixed.now(), Time::from_us(2));
    }

    #[test]
    fn digitizer_edge_timing_is_subsample_accurate() {
        let mut mixed = sine_counter(10e6);
        mixed.digital_mut().monitor_name("clk");
        mixed.run_until(Time::from_us(1)).unwrap();
        let w = mixed.digital().trace().digital("clk").unwrap();
        let periods: Vec<Time> = measure::periods(w).into_iter().map(|(_, p)| p).collect();
        assert!(periods.len() >= 8);
        // Skip the first period: the node's declared initial value (0 V)
        // differs from the source value at t = 0+ (2.5 V), so the very first
        // interpolated crossing is a startup artifact.
        for p in &periods[1..] {
            let err = (*p - Time::from_ns(100)).abs();
            // Base step is 2 ns (and the sine hint is ~3 ns); interpolation
            // must recover the 100 ns period to well under a step.
            assert!(err < Time::from_ps(100), "period {p}");
        }
    }

    #[test]
    fn driver_pushes_digital_level_into_analog() {
        // Digital clock drives an analog RC through a level driver.
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        net.add("ck", cells::ClockGen::new(Time::from_us(2)), &[], &[clk]);

        let mut ckt = AnalogCircuit::new();
        let vin = ckt.node("vin", NodeKind::Voltage);
        let vout = ckt.node("vout", NodeKind::Voltage);
        ckt.add("rc", blocks::RcLowPass::new(1e3, 1e-9), &[vin], &[vout]);

        let mut mixed = MixedSimulator::new(
            Simulator::new(net),
            AnalogSolver::new(ckt, Time::from_ns(20)),
        );
        mixed.bind_driver("clk", "vin", 0.0, 5.0);
        // Clock rises at 1 us; tau = 1 us. At 2 us the RC has charged ~63 %.
        mixed.run_until(Time::from_us(2)).unwrap();
        let v = mixed.analog().value(vout);
        let expect = 5.0 * (1.0 - (-1.0f64).exp());
        assert!((v - expect).abs() < 0.05, "v = {v}, expected {expect}");
    }

    #[test]
    fn digital_events_clamp_analog_steps() {
        // With a huge analog base step, the RC must still see the clock
        // edge exactly at 1 us because the kernel clamps to digital events.
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        net.add("ck", cells::ClockGen::new(Time::from_us(2)), &[], &[clk]);
        let mut ckt = AnalogCircuit::new();
        let vin = ckt.node("vin", NodeKind::Voltage);
        let vout = ckt.node("vout", NodeKind::Voltage);
        ckt.add("rc", blocks::RcLowPass::new(1e3, 1e-12), &[vin], &[vout]); // tau = 1 ns
        let mut mixed = MixedSimulator::new(
            Simulator::new(net),
            AnalogSolver::new(ckt, Time::from_us(10)), // absurdly coarse
        );
        mixed.bind_driver("clk", "vin", 0.0, 5.0);
        mixed
            .run_until(Time::from_us(1) + Time::from_ns(100))
            .unwrap();
        // 100 ns after the edge (100 tau), the fast RC has fully charged —
        // only possible if the edge landed at exactly 1 us.
        assert!((mixed.analog().value(vout) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn merged_trace_contains_both_domains() {
        let mut mixed = sine_counter(10e6);
        mixed.digital_mut().monitor_name("clk");
        mixed.analog_mut().monitor_name("sine");
        mixed.run_until(Time::from_us(1)).unwrap();
        let trace = mixed.merged_trace();
        assert!(trace.digital("clk").is_some());
        assert!(trace.analog("sine").is_some());
    }

    #[test]
    fn checkpoint_fork_equals_scratch_with_shared_stops() {
        let stop = Time::from_ns(437); // off every step grid on purpose
        let end = Time::from_us(2);

        let mut golden = sine_counter(10e6);
        golden.digital_mut().monitor_name("clk");
        golden.analog_mut().monitor_name("sine");
        golden.run_until(stop).unwrap();
        let cp = Checkpoint::capture(&golden);
        golden.run_until(end).unwrap();

        let mut scratch = sine_counter(10e6);
        scratch.digital_mut().monitor_name("clk");
        scratch.analog_mut().monitor_name("sine");
        scratch.run_until(stop).unwrap();
        scratch.run_until(end).unwrap();

        let mut fork = cp.fork();
        assert_eq!(fork.now(), stop);
        fork.run_until(end).unwrap();
        assert_eq!(fork.merged_trace(), scratch.merged_trace());
        assert_eq!(fork.merged_trace(), golden.merged_trace());
        let q = fork.digital().signal_id("q").unwrap();
        assert_eq!(fork.digital().value(q), scratch.digital().value(q));
    }

    /// A monitored [`sine_counter`] run to 437 ns (off every step grid),
    /// snapshotted there.
    fn counter_checkpoint() -> Checkpoint<MixedSimulator> {
        let mut golden = sine_counter(10e6);
        golden.digital_mut().monitor_name("clk");
        golden.digital_mut().monitor_name("q");
        golden.analog_mut().monitor_name("sine");
        golden.run_until(Time::from_ns(437)).unwrap();
        Checkpoint::capture(&golden)
    }

    /// A fork of `cp` with an SEU in bit `bit` of the counter.
    fn flipped(cp: &Checkpoint<MixedSimulator>, bit: usize) -> MixedSimulator {
        let mut fork = cp.fork();
        let ctr = fork.digital().component_id("ctr").unwrap();
        fork.digital_mut().flip_state(ctr, bit);
        fork
    }

    #[test]
    fn follower_replays_the_leaders_analog_half() {
        let cp = counter_checkpoint();
        let end = Time::from_us(2);
        let mut leader = flipped(&cp, 0);
        let tape = leader.lead_to(end).unwrap().expect("a clean analog half");
        assert_eq!((tape.start, tape.end), (cp.at(), end));
        // Leading is an ordinary run that also writes a tape.
        let mut plain = flipped(&cp, 0);
        plain.run_until(end).unwrap();
        assert_eq!(leader.merged_trace(), plain.merged_trace());
        assert_eq!(
            tape.steps.len() as u64,
            plain.analog().steps_taken() - cp.fork().analog().steps_taken()
        );

        // Another fault from the same snapshot: the same trace as the full
        // run, without one solver step.
        let mut follower = flipped(&cp, 3);
        assert_eq!(follower.follow(&tape).unwrap(), Follow::Done);
        let mut full = flipped(&cp, 3);
        full.run_until(end).unwrap();
        assert_eq!(follower.merged_trace(), full.merged_trace());
        assert_ne!(follower.merged_trace(), leader.merged_trace());
        assert_eq!(follower.now(), end);
        assert_eq!(
            follower.analog().steps_taken(),
            cp.fork().analog().steps_taken()
        );
        let q = full.digital().signal_id("q").unwrap();
        assert_eq!(follower.digital().value(q), full.digital().value(q));
    }

    #[test]
    fn a_run_that_cannot_prove_its_analog_half_clean_neither_leads_nor_follows() {
        let cp = counter_checkpoint();
        let end = Time::from_us(2);
        let tape = flipped(&cp, 0).lead_to(end).unwrap().expect("a tape");
        type Spoil = fn(&mut MixedSimulator);
        let spoils: [Spoil; 3] = [
            // Not at the tape's start.
            |sim| sim.run_until(Time::from_ns(500)).unwrap(),
            // Watched: the observer is promised a trace in the making.
            |sim| sim.install_observer(SimObserver::new(|_, _| false)),
            // A block reconfigured from outside.
            |sim| {
                let src = sim.analog().circuit().block_id("src").unwrap();
                let _ = sim.analog_mut().block_mut(src);
            },
        ];
        for (i, spoil) in spoils.into_iter().enumerate() {
            let mut sim = flipped(&cp, 1);
            spoil(&mut sim);
            let before = sim.now();
            assert_eq!(sim.follow(&tape).unwrap(), Follow::Refused, "spoil {i}");
            assert_eq!(sim.now(), before, "a refusal leaves the run where it was");
            // It still runs; only the start-time mismatch may lead afresh.
            assert_eq!(sim.lead_to(end).unwrap().is_some(), i == 0, "spoil {i}");
            assert_eq!(sim.now(), end);
        }
    }

    #[test]
    fn a_forced_node_spoils_the_analog_half_and_the_kernels_own_hold_does_not() {
        // Digital clock -> level driver -> RC -> digitizer -> counter: the
        // zero-order hold writes `vin` on every sync step of every run here.
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let fb = net.signal("fb", 1);
        let rst = net.signal("rst", 1);
        let en = net.signal("en", 1);
        let q = net.signal("q", 16);
        net.add("ck", cells::ClockGen::new(Time::from_ns(100)), &[], &[clk]);
        net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
        net.add("e", cells::ConstVector::bit(Logic::One), &[], &[en]);
        net.add(
            "ctr",
            cells::Counter::new(16, Time::ZERO),
            &[fb, rst, en],
            &[q],
        );
        let mut ckt = AnalogCircuit::new();
        let vin = ckt.node("vin", NodeKind::Voltage);
        let vout = ckt.node("vout", NodeKind::Voltage);
        ckt.add("rc", blocks::RcLowPass::new(1e3, 5e-12), &[vin], &[vout]);
        let mut golden = MixedSimulator::new(
            Simulator::new(net),
            AnalogSolver::new(ckt, Time::from_ns(2)),
        );
        golden.bind_driver("clk", "vin", 0.0, 5.0);
        golden.bind_digitizer("vout", "fb", 2.5, 0.2);
        golden.digital_mut().monitor_name("q");
        golden.analog_mut().monitor_name("vout");
        golden.run_until(Time::from_ns(437)).unwrap();
        let cp = Checkpoint::capture(&golden);
        let end = Time::from_us(2);

        // Untouched forks lead and follow, hold and all.
        let tape = flipped(&cp, 0).lead_to(end).unwrap().expect("a tape");
        let mut follower = flipped(&cp, 3);
        assert_eq!(follower.follow(&tape).unwrap(), Follow::Done);
        let mut full = flipped(&cp, 3);
        full.run_until(end).unwrap();
        assert_eq!(follower.merged_trace(), full.merged_trace());
        assert!(full.digital().value(q).to_u64().unwrap() > 10, "fb clocks");

        // A node forced from outside is a write the kernel cannot account
        // for: that fork shares nothing, in either direction.
        let mut poked = flipped(&cp, 3);
        assert!(poked.analog_is_clean());
        poked.analog_mut().set_value(vout, 1.0);
        assert!(!poked.analog_is_clean());
        assert_eq!(poked.follow(&tape).unwrap(), Follow::Refused);
        assert!(poked.lead_to(end).unwrap().is_none());
    }

    /// A divider whose clock-to-output delay depends on its state: an SEU
    /// moves its later events in time, and with them the sync grid.
    #[derive(Debug, Clone)]
    struct JitteryDivider {
        count: u64,
        prev_clk: Logic,
    }

    impl amsfi_digital::Component for JitteryDivider {
        fn eval(&mut self, ctx: &mut amsfi_digital::EvalContext<'_>) {
            let clk = ctx.input_bit(0);
            if self.prev_clk == Logic::Zero && clk == Logic::One {
                self.count = (self.count + 1) % 16;
                let delay = Time::from_ps(700 * (1 + self.count as i64 % 4));
                ctx.drive_bit(0, Logic::from_bool(self.count >= 8), delay);
            }
            self.prev_clk = clk;
        }

        fn state_bits(&self) -> usize {
            4
        }

        fn flip_state_bit(&mut self, bit: usize) {
            self.count ^= 1 << bit;
        }
    }

    #[test]
    fn follower_whose_events_move_leaves_the_grid() {
        let mut ckt = AnalogCircuit::new();
        let sine = ckt.node("sine", NodeKind::Voltage);
        ckt.add("src", blocks::SineSource::new(10e6, 2.5, 2.5), &[], &[sine]);
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let out = net.signal("out", 1);
        let div = net.add(
            "div",
            JitteryDivider {
                count: 0,
                prev_clk: Logic::Unknown,
            },
            &[clk],
            &[out],
        );
        let mut golden = MixedSimulator::new(
            Simulator::new(net),
            AnalogSolver::new(ckt, Time::from_ns(2)),
        );
        golden.bind_digitizer("sine", "clk", 2.5, 0.2);
        golden.digital_mut().monitor_name("out");
        golden.run_until(Time::from_ns(437)).unwrap();
        let cp = Checkpoint::capture(&golden);
        let end = Time::from_us(2);
        let fork = |bit| {
            let mut sim = cp.fork();
            sim.digital_mut().flip_state(div, bit);
            sim
        };

        let tape = fork(2).lead_to(end).unwrap().expect("no driver to reach");
        // The same fault again lands on every step of its own tape...
        assert_eq!(fork(2).follow(&tape).unwrap(), Follow::Done);
        // ...another count drives `out` 700 ps later, where the leader's
        // run had no event to cut a solver step at.
        let mut follower = fork(0);
        assert_eq!(follower.follow(&tape).unwrap(), Follow::LeftGrid);
        assert!(follower.now() < end);
    }

    #[test]
    fn step_budget_bounds_the_sync_loop() {
        let mut mixed = sine_counter(10e6);
        mixed.set_budget(SimBudget::unlimited().with_max_steps(5));
        let err = mixed.run_until(Time::from_us(2)).unwrap_err();
        assert!(matches!(
            err,
            SimError::Guard(GuardViolation::StepBudgetExhausted { .. })
        ));
        assert!(mixed.now() < Time::from_us(2));
    }

    #[test]
    fn a_hook_that_returns_true_retires_the_run_at_that_poll() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut calls = 0;
        let mut mixed = sine_counter(10e6);
        mixed.digital_mut().monitor_name("clk");
        mixed.install_observer(SimObserver::new(move |t, view| {
            calls += 1;
            assert!(
                view.digital("clk").is_some(),
                "the hook sees the digital half"
            );
            tx.send(t).unwrap();
            calls == 2
        }));
        let err = mixed.run_until(Time::from_us(2)).unwrap_err();
        let shown: Vec<Time> = rx.try_iter().collect();
        assert_eq!(shown.len(), 2, "the hook is not asked again");
        assert_eq!(
            err,
            SimError::Guard(GuardViolation::Retired { t: shown[1] })
        );
        assert_eq!(mixed.now(), shown[1], "the run stops at the poll's instant");
    }

    #[test]
    fn a_hook_that_never_retires_leaves_the_trace_as_an_unobserved_run() {
        let run = |watched: bool| {
            let mut mixed = sine_counter(10e6);
            mixed.digital_mut().monitor_name("clk");
            mixed.analog_mut().monitor_name("sine");
            if watched {
                mixed.install_observer(SimObserver::new(|_, _| false));
            }
            mixed.run_until(Time::from_us(2)).unwrap();
            mixed.merged_trace()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn min_dt_floor_detects_timestep_collapse() {
        // The sine source hints a ~3 ns step; a 1 us floor trips instantly,
        // even though digital event clamping would also shrink the step.
        let mut mixed = sine_counter(10e6);
        mixed.set_budget(SimBudget::unlimited().with_min_dt(Time::from_us(1)));
        let err = mixed.run_until(Time::from_us(1)).unwrap_err();
        match err {
            SimError::Guard(GuardViolation::TimestepCollapse { min_dt, .. }) => {
                assert_eq!(min_dt, Time::from_us(1));
            }
            other => panic!("expected timestep collapse, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_analog_node_trips_the_guard() {
        // A source that pushes the node to infinity mid-run.
        #[derive(Debug, Clone)]
        struct Bomb {
            at: Time,
        }
        impl amsfi_analog::AnalogBlock for Bomb {
            fn step(&mut self, ctx: &mut amsfi_analog::AnalogContext<'_>) {
                let v = if ctx.now() >= self.at {
                    f64::INFINITY
                } else {
                    1.0
                };
                ctx.set(0, v);
            }
        }
        let mut ckt = AnalogCircuit::new();
        let n = ckt.node("boom", NodeKind::Voltage);
        ckt.add(
            "bomb",
            Bomb {
                at: Time::from_ns(50),
            },
            &[],
            &[n],
        );
        let net = Netlist::new();
        let mut mixed = MixedSimulator::new(
            Simulator::new(net),
            AnalogSolver::new(ckt, Time::from_ns(2)),
        );
        mixed.set_budget(SimBudget::unlimited().with_max_steps(1_000_000));
        let err = mixed.run_until(Time::from_us(1)).unwrap_err();
        match err {
            SimError::Guard(GuardViolation::NonFinite { signal, .. }) => {
                assert_eq!(signal, "boom");
            }
            other => panic!("expected non-finite guard, got {other:?}"),
        }
    }

    #[test]
    fn seeding_gives_boundary_signals_a_defined_start() {
        let mut mixed = sine_counter(10e6);
        mixed.digital_mut().monitor_name("clk");
        mixed.run_until(Time::from_ns(100)).unwrap();
        let w = mixed.digital().trace().digital("clk").unwrap();
        // The node starts at 0 V: seeded to '0' at time zero (never 'U'),
        // then the rising sine drives it high within the first quarter
        // period (25 ns).
        assert_eq!(w.value_at(Time::ZERO), Logic::Zero);
        assert_eq!(w.value_at(Time::from_ns(30)), Logic::One);
    }
}
