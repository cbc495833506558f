//! The continuous-time integration engine.
//!
//! A fixed-base-step solver with *local refinement*: each block can bound the
//! step size through [`AnalogBlock::max_step`], so a picosecond current pulse
//! inside a 0.2 ms transient only slows the solver down while the pulse is
//! alive. Monitored nodes are recorded adaptively (on value change beyond a
//! threshold, or at a maximum interval) to keep campaign traces compact.
//!
//! [`AnalogBlock::max_step`]: crate::AnalogBlock::max_step

use crate::block::{AnalogBlock, AnalogContext, UnknownParamError};
use crate::circuit::{AnalogCircuit, BlockId, NodeId, NodeKind};

/// Telemetry batching stride for the shared solver-step counter: the hot
/// loop touches the contended atomic once per this many steps.
const SOLVER_METRICS_STRIDE: u32 = 64;

/// Telemetry sampling stride for the proposed-`dt` histogram: record every
/// N-th proposal (including the first) instead of all of them.
const DT_SAMPLE_STRIDE: u64 = 16;
use amsfi_waves::{AnalogSlot, ForkableSim, GuardViolation, SimBudget, SimObserver, Time, Trace};

#[derive(Debug, Clone)]
struct Monitor {
    node: NodeId,
    /// The node's slot in the solver's trace.
    slot: AnalogSlot,
    last_value: f64,
    last_time: Time,
    has_sample: bool,
}

/// Integrates an [`AnalogCircuit`] through time.
///
/// See [`AnalogCircuit`] for a complete example.
#[derive(Debug, Clone)]
pub struct AnalogSolver {
    circuit: AnalogCircuit,
    values: Vec<f64>,
    kinds: Vec<NodeKind>,
    now: Time,
    base_dt: Time,
    monitors: Vec<Monitor>,
    trace: Trace,
    record_epsilon: f64,
    record_interval: Time,
    steps_taken: u64,
    budget: SimBudget,
    observer: SimObserver,
    /// Set once a block was reconfigured or a node forced from outside the
    /// circuit.
    touched: bool,
}

impl AnalogSolver {
    /// Creates a solver with the given base step size.
    ///
    /// # Panics
    ///
    /// Panics if `base_dt` is not positive.
    pub fn new(circuit: AnalogCircuit, base_dt: Time) -> Self {
        assert!(base_dt > Time::ZERO, "base step must be positive");
        let values: Vec<f64> = circuit.nodes.iter().map(|n| n.initial).collect();
        let kinds: Vec<NodeKind> = circuit.nodes.iter().map(|n| n.kind).collect();
        AnalogSolver {
            circuit,
            values,
            kinds,
            now: Time::ZERO,
            base_dt,
            monitors: Vec::new(),
            trace: Trace::new(),
            record_epsilon: 1e-3,
            record_interval: Time::from_ns(100),
            steps_taken: 0,
            budget: SimBudget::unlimited(),
            observer: SimObserver::default(),
            touched: false,
        }
    }

    /// Whether the circuit was written to from outside since the solver was
    /// built — [`set_param`](AnalogSolver::set_param), a block handed out
    /// by [`block_mut`](AnalogSolver::block_mut) (an armed saboteur), or a
    /// node forced with [`set_value`](AnalogSolver::set_value).
    /// `false` means the circuit still is the one it was built as: the
    /// mixed kernel shares its integration between forks only then.
    pub fn touched(&self) -> bool {
        self.touched
    }

    /// Marks a node for tracing. Samples are recorded when the value moves
    /// by more than the recording epsilon or the recording interval elapses.
    pub fn monitor(&mut self, node: NodeId) {
        let slot = self.trace.analog_slot(self.circuit.node_name(node));
        self.monitors.push(Monitor {
            node,
            slot,
            last_value: 0.0,
            last_time: Time::ZERO,
            has_sample: false,
        });
    }

    /// Like [`AnalogSolver::monitor`], resolving the node by name.
    ///
    /// # Panics
    ///
    /// Panics if no node has that name.
    pub fn monitor_name(&mut self, name: &str) {
        let id = self
            .circuit
            .node_id(name)
            .unwrap_or_else(|| panic!("no analog node named {name:?}"));
        self.monitor(id);
    }

    /// Tunes adaptive trace recording: a sample is stored when the value
    /// moves by more than `epsilon` since the last stored sample, or when
    /// `interval` has elapsed.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or `interval` is not positive.
    pub fn set_recording(&mut self, epsilon: f64, interval: Time) {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        assert!(interval > Time::ZERO, "interval must be positive");
        self.record_epsilon = epsilon;
        self.record_interval = interval;
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The instantaneous value of a node.
    pub fn value(&self, node: NodeId) -> f64 {
        self.values[node.0]
    }

    /// Forces a voltage node to a value: a write from outside the circuit,
    /// noted like a reconfigured block ([`AnalogSolver::touched`]).
    ///
    /// # Panics
    ///
    /// Panics if the node is a current node.
    pub fn set_value(&mut self, node: NodeId, volts: f64) {
        self.touched = true;
        self.drive_boundary(node, volts);
    }

    /// The mixed kernel's zero-order hold of a digital-to-analog boundary
    /// node: [`AnalogSolver::set_value`] without the note, because the
    /// level it writes is part of the co-simulation, not a fault.
    #[doc(hidden)]
    pub fn drive_boundary(&mut self, node: NodeId, volts: f64) {
        assert_eq!(
            self.kinds[node.0],
            NodeKind::Voltage,
            "cannot force a current node"
        );
        self.values[node.0] = volts;
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &AnalogCircuit {
        &self.circuit
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the solver and returns its trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Total integration steps taken (a throughput statistic).
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Looks up a node by name (delegates to the circuit).
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.circuit.node_id(name)
    }

    /// Applies a parametric fault: sets `param` of block `block`.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownParamError`] if the block has no such parameter.
    pub fn set_param(
        &mut self,
        block: BlockId,
        param: &str,
        value: f64,
    ) -> Result<(), UnknownParamError> {
        self.touched = true;
        self.circuit.blocks[block.0].block.set_param(param, value)
    }

    /// Mutable access to a block instance, for reconfiguring saboteurs
    /// after the circuit has been lowered into the solver (downcast via
    /// [`AnalogBlockClone::as_any_mut`](crate::AnalogBlockClone::as_any_mut)).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn block_mut(&mut self, block: BlockId) -> &mut dyn AnalogBlock {
        self.touched = true;
        &mut *self.circuit.blocks[block.0].block
    }

    /// The step the solver would take at `now`: the base step clamped by
    /// every block's [`max_step`](crate::AnalogBlock::max_step) hint.
    pub fn propose_dt(&self) -> Time {
        let mut dt = self.base_dt;
        for decl in &self.circuit.blocks {
            if let Some(hint) = decl.block.max_step(self.now) {
                dt = dt.min(hint.max(Time::RESOLUTION));
            }
        }
        // Sampled 1-in-16 (keyed off the step count, so the very first
        // proposal is always recorded): the distribution is what matters,
        // and per-proposal atomic RMWs on the shared registry are the
        // dominant telemetry cost under multi-worker contention.
        if self.steps_taken.is_multiple_of(DT_SAMPLE_STRIDE) {
            if let Some(metrics) = self.budget.metrics() {
                metrics.proposed_dt_fs.observe(dt.as_fs().max(0) as u64);
            }
        }
        dt
    }

    /// Advances exactly one integration step of size `dt` (no subdivision).
    /// The mixed-mode kernel drives the solver through this method so that
    /// digital events land on step boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn step(&mut self, dt: Time) {
        assert!(dt > Time::ZERO, "step must be positive");
        // Current nodes accumulate fresh contributions each step.
        for (i, kind) in self.kinds.iter().enumerate() {
            if *kind == NodeKind::Current {
                self.values[i] = 0.0;
            }
        }
        for decl in &mut self.circuit.blocks {
            let mut ctx = AnalogContext::new(
                self.now,
                dt,
                &mut self.values,
                &self.kinds,
                &decl.inputs,
                &decl.outputs,
            );
            decl.block.step(&mut ctx);
        }
        self.now += dt;
        self.steps_taken += 1;
        // Batched: one contended RMW per SOLVER_METRICS_STRIDE steps. The
        // tail (< stride, per attempt) is noise on a throughput counter.
        if self
            .steps_taken
            .is_multiple_of(u64::from(SOLVER_METRICS_STRIDE))
        {
            if let Some(metrics) = self.budget.metrics() {
                metrics.solver_steps.add(u64::from(SOLVER_METRICS_STRIDE));
            }
        }
        self.record();
    }

    /// Installs a per-attempt [`SimBudget`] observed by
    /// [`AnalogSolver::advance`] (and through it `ForkableSim::advance_to`).
    /// Replaces any previous budget, including one cloned in through a
    /// checkpoint fork.
    pub fn set_budget(&mut self, budget: SimBudget) {
        self.budget = budget;
    }

    /// The installed budget (default: unlimited).
    pub fn budget(&self) -> &SimBudget {
        &self.budget
    }

    /// The first node currently holding a NaN or infinite value, if any —
    /// the solver-level divergence probe the guards (and the mixed-mode
    /// kernel) scan after every step.
    pub fn first_non_finite(&self) -> Option<(&str, f64)> {
        self.values
            .iter()
            .enumerate()
            .find(|&(_, v)| !v.is_finite())
            .map(|(i, &v)| (self.circuit.node_name(NodeId(i)), v))
    }

    /// Runs until `t_end`, choosing step sizes adaptively.
    ///
    /// The *unguarded* loop: it ignores the installed budget, for direct
    /// solver studies that want the raw kernel. Campaigns drive the solver
    /// through [`AnalogSolver::advance`] (or `ForkableSim::advance_to`),
    /// which enforces the budget.
    pub fn run_until(&mut self, t_end: Time) {
        while self.now < t_end {
            let dt = self.propose_dt().min(t_end - self.now);
            self.step(dt);
        }
    }

    /// Runs until `t_end` under the installed [`SimBudget`]: each iteration
    /// checks the proposed timestep against the `min_dt` floor, counts one
    /// step against the step budget (which also observes cancellation and
    /// the wall-clock deadline), and scans the node vector for NaN/Inf
    /// after stepping.
    ///
    /// # Errors
    ///
    /// The first [`GuardViolation`] encountered (a retirement included); the
    /// solver stops at the step where the guard fired.
    pub fn advance(&mut self, t_end: Time) -> Result<(), GuardViolation> {
        while self.now < t_end {
            let proposed = self.propose_dt();
            self.budget.check_dt(proposed, self.now)?;
            self.budget.note_step(self.now)?;
            let dt = proposed.min(t_end - self.now);
            self.step(dt);
            if let Some((signal, _)) = self.first_non_finite() {
                return Err(GuardViolation::NonFinite {
                    signal: signal.to_owned(),
                    t: self.now,
                });
            }
            self.observer.poll(self.now, &[&self.trace])?;
        }
        self.observer.flush(self.now, &[&self.trace])
    }

    fn record(&mut self) {
        for m in &mut self.monitors {
            let v = self.values[m.node.0];
            let due = !m.has_sample
                || (v - m.last_value).abs() > self.record_epsilon
                || self.now - m.last_time >= self.record_interval;
            if due {
                self.trace
                    .push_analog(m.slot, self.now, v)
                    .expect("solver time is monotonic");
                m.last_value = v;
                m.last_time = self.now;
                m.has_sample = true;
            }
        }
    }
}

impl ForkableSim for AnalogSolver {
    type Error = GuardViolation;

    /// Equivalence caveat: with adaptive stepping, the *stop sequence*
    /// shapes the step grid (the last step before each stop is clamped), so
    /// fork-vs-scratch byte identity requires driving both runs through the
    /// same stops. The campaign runner guarantees this by construction.
    fn advance_to(&mut self, t: Time) -> Result<(), GuardViolation> {
        self.advance(t)
    }

    fn current_time(&self) -> Time {
        self.now
    }

    fn snapshot_trace(&self) -> Trace {
        self.trace.clone()
    }

    fn install_budget(&mut self, budget: SimBudget) {
        self.set_budget(budget);
    }

    /// Installs a [`SimObserver`] polled (at its stride) after each guarded
    /// integration step in [`AnalogSolver::advance`], with the post-step
    /// time as the finality watermark: every trace record strictly below it
    /// is frozen; a hook that returns `true` retires the run there. Replaces
    /// any previous observer.
    fn install_observer(&mut self, observer: SimObserver) {
        self.observer = observer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{AnalogBlock, AnalogContext};
    use crate::circuit::NodeKind;
    use amsfi_waves::Checkpoint;

    /// dv/dt = k (a ramp) — exact under any stepping.
    #[derive(Debug, Clone)]
    struct Ramp {
        k: f64,
        v: f64,
    }

    impl AnalogBlock for Ramp {
        fn step(&mut self, ctx: &mut AnalogContext<'_>) {
            self.v += self.k * ctx.dt_secs();
            ctx.set(0, self.v);
        }
    }

    /// Requests tiny steps inside a window.
    #[derive(Debug, Clone)]
    struct Fussy {
        from: Time,
        to: Time,
    }

    impl AnalogBlock for Fussy {
        fn step(&mut self, _ctx: &mut AnalogContext<'_>) {}
        fn max_step(&self, now: Time) -> Option<Time> {
            if now >= self.from && now < self.to {
                Some(Time::from_ps(10))
            } else if now < self.from {
                // Do not step across the start of the window.
                Some(self.from - now)
            } else {
                None
            }
        }
    }

    /// Sums a constant current into a node.
    #[derive(Debug, Clone)]
    struct CurrentSource(f64);

    impl AnalogBlock for CurrentSource {
        fn step(&mut self, ctx: &mut AnalogContext<'_>) {
            ctx.contribute(0, self.0);
        }
    }

    #[test]
    fn ramp_integrates_exactly() {
        let mut ckt = AnalogCircuit::new();
        let out = ckt.node("out", NodeKind::Voltage);
        ckt.add("ramp", Ramp { k: 1e6, v: 0.0 }, &[], &[out]);
        let mut solver = AnalogSolver::new(ckt, Time::from_ns(10));
        solver.run_until(Time::from_us(1));
        assert!((solver.value(out) - 1.0).abs() < 1e-9);
        assert_eq!(solver.now(), Time::from_us(1));
    }

    #[test]
    fn max_step_hint_refines_locally() {
        let mut ckt = AnalogCircuit::new();
        let out = ckt.node("out", NodeKind::Voltage);
        ckt.add("ramp", Ramp { k: 1.0, v: 0.0 }, &[], &[out]);
        ckt.add(
            "fussy",
            Fussy {
                from: Time::from_ns(100),
                to: Time::from_ns(101),
            },
            &[],
            &[],
        );
        let mut coarse = AnalogSolver::new(ckt.clone(), Time::from_ns(10));
        coarse.run_until(Time::from_ns(99));
        let steps_before = coarse.steps_taken();
        coarse.run_until(Time::from_ns(102));
        // The 1 ns window at 10 ps resolution takes ~100 extra steps.
        assert!(
            coarse.steps_taken() - steps_before > 50,
            "refinement did not kick in: {} steps",
            coarse.steps_taken() - steps_before
        );
    }

    #[test]
    fn current_node_sums_contributions_per_step() {
        let mut ckt = AnalogCircuit::new();
        let node = ckt.node("i", NodeKind::Current);
        ckt.add("s1", CurrentSource(1e-3), &[], &[node]);
        ckt.add("s2", CurrentSource(2e-3), &[], &[node]);
        let mut solver = AnalogSolver::new(ckt, Time::from_ns(1));
        solver.run_until(Time::from_ns(10));
        // Contributions do not accumulate across steps: always 3 mA.
        assert!((solver.value(node) - 3e-3).abs() < 1e-12);
    }

    #[test]
    fn initial_values_are_honoured() {
        let mut ckt = AnalogCircuit::new();
        let hold = ckt.node_with_initial("hold", NodeKind::Voltage, 2.5);
        let mut solver = AnalogSolver::new(ckt, Time::from_ns(1));
        assert_eq!(solver.value(hold), 2.5);
        solver.run_until(Time::from_ns(5));
        // No block writes it: the voltage node holds its value.
        assert_eq!(solver.value(hold), 2.5);
    }

    #[test]
    fn monitoring_records_changes_and_heartbeats() {
        let mut ckt = AnalogCircuit::new();
        let out = ckt.node("out", NodeKind::Voltage);
        ckt.add("ramp", Ramp { k: 1e6, v: 0.0 }, &[], &[out]);
        let mut solver = AnalogSolver::new(ckt, Time::from_ns(10));
        solver.monitor_name("out");
        solver.set_recording(0.05, Time::from_us(10));
        solver.run_until(Time::from_us(1));
        let wave = solver.trace().analog("out").unwrap();
        // 1 V total swing at 0.05 V epsilon: roughly 20 samples, far fewer
        // than the 100 steps taken.
        assert!(
            wave.len() >= 15 && wave.len() <= 40,
            "{} samples",
            wave.len()
        );
        // Interpolated mid-point is close to the true ramp.
        let mid = wave.value_at(Time::from_fs(500_000_000));
        assert!((mid - 0.5).abs() < 0.06, "mid = {mid}");
    }

    #[test]
    fn set_value_forces_voltage_nodes_only() {
        let mut ckt = AnalogCircuit::new();
        let v = ckt.node("v", NodeKind::Voltage);
        let mut solver = AnalogSolver::new(ckt, Time::from_ns(1));
        solver.set_value(v, 4.2);
        assert_eq!(solver.value(v), 4.2);
    }

    #[test]
    #[should_panic(expected = "cannot force a current node")]
    fn set_value_rejects_current_nodes() {
        let mut ckt = AnalogCircuit::new();
        let i = ckt.node("i", NodeKind::Current);
        let mut solver = AnalogSolver::new(ckt, Time::from_ns(1));
        solver.set_value(i, 1.0);
    }

    fn ramp_bench() -> AnalogSolver {
        let mut ckt = AnalogCircuit::new();
        let out = ckt.node("out", NodeKind::Voltage);
        ckt.add("ramp", Ramp { k: 1e6, v: 0.0 }, &[], &[out]);
        let mut solver = AnalogSolver::new(ckt, Time::from_ns(10));
        solver.monitor_name("out");
        solver.set_recording(0.01, Time::from_ns(50));
        solver
    }

    #[test]
    fn checkpoint_fork_equals_scratch_with_shared_stops() {
        // Both runs pause at the same instant: the adaptive grid then
        // matches step for step and the traces are byte-identical.
        let stop = Time::from_ns(333); // off the 10 ns grid on purpose
        let end = Time::from_us(1);

        let mut golden = ramp_bench();
        golden.run_until(stop);
        let cp = Checkpoint::capture(&golden);
        golden.run_until(end);

        let mut scratch = ramp_bench();
        scratch.run_until(stop);
        scratch.run_until(end);

        let mut fork = cp.fork();
        assert_eq!(fork.now(), stop);
        fork.run_until(end);
        assert_eq!(fork.trace(), scratch.trace());
        assert_eq!(fork.trace(), golden.trace());
        assert_eq!(fork.steps_taken(), scratch.steps_taken());
    }

    #[test]
    fn advance_honours_the_step_budget() {
        let mut solver = ramp_bench();
        solver.set_budget(SimBudget::unlimited().with_max_steps(10));
        // 10 ns base step: 10 steps reach exactly 100 ns; the 11th trips.
        solver.advance(Time::from_ns(100)).unwrap();
        let err = solver.advance(Time::from_us(1)).unwrap_err();
        assert!(
            matches!(err, GuardViolation::StepBudgetExhausted { steps: 11, .. }),
            "{err}"
        );
        assert_eq!(solver.now(), Time::from_ns(100), "stopped where it tripped");
        // An unguarded run_until is unaffected by the budget.
        solver.run_until(Time::from_us(1));
        assert_eq!(solver.now(), Time::from_us(1));
    }

    #[test]
    fn advance_detects_timestep_collapse() {
        let mut ckt = AnalogCircuit::new();
        let out = ckt.node("out", NodeKind::Voltage);
        ckt.add("ramp", Ramp { k: 1e6, v: 0.0 }, &[], &[out]);
        ckt.add(
            "fussy",
            Fussy {
                from: Time::from_ns(50),
                to: Time::from_ns(60),
            },
            &[],
            &[],
        );
        let mut solver = AnalogSolver::new(ckt, Time::from_ns(10));
        solver.set_budget(SimBudget::unlimited().with_min_dt(Time::from_ns(1)));
        let err = solver.advance(Time::from_us(1)).unwrap_err();
        match err {
            GuardViolation::TimestepCollapse { dt, min_dt, .. } => {
                assert_eq!(dt, Time::from_ps(10));
                assert_eq!(min_dt, Time::from_ns(1));
            }
            other => panic!("expected collapse, got {other}"),
        }
    }

    #[test]
    fn advance_detects_non_finite_nodes() {
        #[derive(Debug, Clone)]
        struct Poison {
            after: Time,
        }
        impl AnalogBlock for Poison {
            fn step(&mut self, ctx: &mut AnalogContext<'_>) {
                let v = if ctx.now() >= self.after {
                    f64::NAN
                } else {
                    1.0
                };
                ctx.set(0, v);
            }
        }
        let mut ckt = AnalogCircuit::new();
        let out = ckt.node("victim", NodeKind::Voltage);
        ckt.add(
            "poison",
            Poison {
                after: Time::from_ns(40),
            },
            &[],
            &[out],
        );
        let mut solver = AnalogSolver::new(ckt, Time::from_ns(10));
        let err = solver.advance(Time::from_us(1)).unwrap_err();
        match err {
            GuardViolation::NonFinite { signal, t } => {
                assert_eq!(signal, "victim");
                assert_eq!(t, Time::from_ns(50));
            }
            other => panic!("expected non-finite, got {other}"),
        }
        assert_eq!(solver.first_non_finite().map(|(n, _)| n), Some("victim"));
    }

    #[test]
    fn install_budget_replaces_a_forked_budget() {
        let mut solver = ramp_bench();
        solver.set_budget(SimBudget::unlimited().with_max_steps(5));
        solver.advance(Time::from_ns(50)).unwrap();
        // The fork inherits the consumed budget; a fresh install resets it.
        let mut fork = Checkpoint::capture(&solver).fork();
        assert_eq!(fork.budget().steps_used(), 5);
        fork.install_budget(SimBudget::unlimited().with_max_steps(5));
        assert_eq!(fork.budget().steps_used(), 0);
        fork.advance(Time::from_ns(100)).unwrap();
    }

    #[test]
    fn block_mut_downcasts_to_the_concrete_block() {
        let mut ckt = AnalogCircuit::new();
        let out = ckt.node("out", NodeKind::Voltage);
        let id = ckt.add("ramp", Ramp { k: 1e6, v: 0.0 }, &[], &[out]);
        let mut solver = AnalogSolver::new(ckt, Time::from_ns(10));
        let ramp = solver
            .block_mut(id)
            .as_any_mut()
            .downcast_mut::<Ramp>()
            .expect("concrete type");
        ramp.k = 2e6;
        solver.run_until(Time::from_us(1));
        assert!((solver.value(out) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn param_injection_reaches_blocks() {
        #[derive(Debug, Clone)]
        struct Gain {
            k: f64,
        }
        impl AnalogBlock for Gain {
            fn step(&mut self, ctx: &mut AnalogContext<'_>) {
                let v = ctx.input(0) * self.k;
                ctx.set(0, v);
            }
            fn params(&self) -> Vec<(&'static str, f64)> {
                vec![("k", self.k)]
            }
            fn set_param(&mut self, name: &str, value: f64) -> Result<(), UnknownParamError> {
                match name {
                    "k" => {
                        self.k = value;
                        Ok(())
                    }
                    other => Err(UnknownParamError {
                        name: other.to_owned(),
                    }),
                }
            }
        }
        let mut ckt = AnalogCircuit::new();
        let vin = ckt.node_with_initial("vin", NodeKind::Voltage, 1.0);
        let vout = ckt.node("vout", NodeKind::Voltage);
        let amp = ckt.add("amp", Gain { k: 2.0 }, &[vin], &[vout]);
        let mut solver = AnalogSolver::new(ckt, Time::from_ns(1));
        solver.run_until(Time::from_ns(2));
        assert_eq!(solver.value(vout), 2.0);
        solver.set_param(amp, "k", 3.0).unwrap();
        solver.run_until(Time::from_ns(4));
        assert_eq!(solver.value(vout), 3.0);
        assert!(solver.set_param(amp, "zeta", 1.0).is_err());
    }

    #[test]
    fn a_hook_that_returns_true_retires_the_run_at_that_poll() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut calls = 0;
        let mut solver = ramp_bench();
        solver.install_observer(SimObserver::new(move |t, _| {
            calls += 1;
            tx.send(t).unwrap();
            calls == 2
        }));
        let err = solver.advance(Time::from_us(10)).unwrap_err();
        let shown: Vec<Time> = rx.try_iter().collect();
        assert_eq!(shown.len(), 2, "the hook is not asked again");
        assert_eq!(err, GuardViolation::Retired { t: shown[1] });
        assert_eq!(
            solver.now(),
            shown[1],
            "the run stops at the poll's instant"
        );
    }

    #[test]
    fn a_hook_that_never_retires_leaves_the_trace_as_an_unobserved_run() {
        let mut plain = ramp_bench();
        plain.advance(Time::from_us(10)).unwrap();
        let mut watched = ramp_bench();
        watched.install_observer(SimObserver::new(|_, _| false));
        watched.advance(Time::from_us(10)).unwrap();
        assert_eq!(watched.trace(), plain.trace());
        assert_eq!(watched.steps_taken(), plain.steps_taken());
    }
}
