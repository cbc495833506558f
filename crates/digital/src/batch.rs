//! Bit-parallel (lock-step) digital fault simulation: one golden machine
//! plus up to [`LANES`] mutant lanes advancing through the event/delta
//! scheduler in lock step.
//!
//! This is the PPSFP-inspired batching of ROADMAP item 2. Lanes share the
//! golden prefix (a lane is cloned from the golden machine at its injection
//! instant, exactly where the scalar forked runner injects), then advance
//! chunk by chunk on a common stop grid. Two mechanisms retire a lane
//! before the horizon:
//!
//! * **Reconvergence seal** — when a lane's *complete* machine state
//!   (simulation clock, every signal value, every component's memorised
//!   state, and the normalised pending-event queue) is exactly equal to
//!   the golden machine's at a stop, its future is the golden future. The
//!   lane stops simulating and its trace is completed with the golden
//!   suffix ([`Trace::splice_golden_suffix`]), which reproduces byte for
//!   byte what simulating to the horizon would have recorded.
//! * **Per-lane abort** — a lane whose budget trips (step budget,
//!   cancellation by an online classifier, numerical guard) or whose
//!   simulation errors is retired as [`LaneOutcome::Failed`] without
//!   disturbing the other lanes; the campaign engine decides what to do
//!   with it (sealed verdict, quarantine, or scalar fallback).
//!
//! The live divergence mask is tracked with [`LogicPlanes`]: per stop, the
//! monitored signal values of all lanes are packed bit-sliced (lane `l` of
//! the planes word is lane `l` of the batch) and compared against the
//! golden values with one plane-XOR per signal bit. Only lanes whose mask
//! bit is clear — observably identical to golden — pay for the exact seal
//! comparison (`Simulator::lockstep_state_eq`), which checks its cheap
//! legs first and stops at the first difference.

use crate::sim::{ComponentStates, SimError, Simulator};
use amsfi_waves::{KernelMetrics, LogicPlanes, Time, Trace, LANES};
use std::sync::Arc;

/// How one mutant lane ended.
#[derive(Debug)]
pub enum LaneOutcome {
    /// The lane produced a full-horizon trace. `sealed_at` is the instant
    /// its state reconverged with the golden machine's, if it did; the
    /// trace is then the lane prefix spliced with the golden suffix and is
    /// byte-identical to a full scalar run of the same fault case.
    Completed {
        /// The lane's full-length trace.
        trace: Trace,
        /// Reconvergence-seal instant, `None` if the lane ran to the end.
        sealed_at: Option<Time>,
    },
    /// The lane produced a full-horizon trace that is the golden trace
    /// ([`BatchReport::golden`]), transition for transition: its fault never
    /// showed on a monitored signal, so no trace was built for it. Only the
    /// word-parallel kernel reports this; the lane-cloned kernel hands such a
    /// lane back as [`LaneOutcome::Completed`] with an equal trace.
    Clean {
        /// Reconvergence-seal instant, `None` if the lane ran to the end.
        sealed_at: Option<Time>,
    },
    /// The lane's simulation failed: guard trip, cooperative cancellation
    /// (early abort), delta overflow, or injection error. Other lanes are
    /// unaffected.
    Failed {
        /// Display form of the lane's error.
        error: String,
    },
}

/// What [`BatchSimulator::run`] returns.
#[derive(Debug)]
pub struct BatchReport {
    /// The golden machine's trace over the full horizon.
    pub golden: Trace,
    /// Per-lane outcomes, indexed like the `add_lane` calls.
    pub outcomes: Vec<LaneOutcome>,
}

impl BatchReport {
    /// The full-horizon trace of lane `lane` — for a
    /// [`LaneOutcome::Clean`] lane that is the golden trace — or `None`
    /// if the lane failed.
    pub fn lane_trace(&self, lane: usize) -> Option<&Trace> {
        match &self.outcomes[lane] {
            LaneOutcome::Completed { trace, .. } => Some(trace),
            LaneOutcome::Clean { .. } => Some(&self.golden),
            LaneOutcome::Failed { .. } => None,
        }
    }
}

enum LaneState {
    /// Waiting for the golden machine to reach the injection instant.
    Pending,
    /// Simulating lock-step with the golden machine.
    Running(Box<Simulator>),
    /// Reconverged with golden at `at`; the trace still needs the golden
    /// suffix spliced in once the golden run finishes.
    Sealed { trace: Trace, at: Time },
    /// Retired with an error.
    Failed(String),
}

struct Lane {
    inject_at: Time,
    state: LaneState,
}

/// A golden machine plus up to [`LANES`] mutant lanes in lock step.
///
/// # Examples
///
/// ```
/// use amsfi_digital::{cells, BatchSimulator, LaneOutcome, Netlist, Simulator};
/// use amsfi_waves::{Time, Trace};
///
/// fn build() -> Simulator {
///     let mut net = Netlist::new();
///     let clk = net.signal("clk", 1);
///     let rst = net.signal("rst", 1);
///     let en = net.signal("en", 1);
///     let q = net.signal("q", 8);
///     net.add("ck", cells::ClockGen::new(Time::from_ns(20)), &[], &[clk]);
///     net.add("r", cells::ConstVector::bit(amsfi_waves::Logic::Zero), &[], &[rst]);
///     net.add("e", cells::ConstVector::bit(amsfi_waves::Logic::One), &[], &[en]);
///     net.add("ctr", cells::Counter::new(8, Time::ZERO), &[clk, rst, en], &[q]);
///     let mut sim = Simulator::new(net);
///     sim.monitor_name("q");
///     sim
/// }
///
/// // Scalar reference for one fault case: flip counter bit 7 at 100 ns.
/// let targets = build().mutant_targets();
/// let ctr = targets.iter().find(|t| t.component_name == "ctr").unwrap();
/// let mut scalar = build();
/// scalar.run_until(Time::from_ns(100))?;
/// scalar.flip_state(ctr.component, ctr.bit);
/// scalar.run_until(Time::from_us(2))?;
/// let scalar_trace = scalar.into_trace();
///
/// // Same case as a batch lane.
/// let mut batch = BatchSimulator::new(build(), Time::from_us(2));
/// batch.add_lane(Time::from_ns(100));
/// let report = batch.run(
///     |_lane, sim| {
///         sim.flip_state(ctr.component, ctr.bit);
///         Ok(())
///     },
///     |_lane, _sim| {},
/// )?;
/// assert!(matches!(report.outcomes[0], LaneOutcome::Completed { .. }));
/// assert_eq!(report.lane_trace(0), Some(&scalar_trace));
/// # Ok::<(), amsfi_digital::SimError>(())
/// ```
pub struct BatchSimulator {
    golden: Simulator,
    t_end: Time,
    seal_stride: Option<Time>,
    lanes: Vec<Lane>,
    metrics: Option<Arc<KernelMetrics>>,
    /// The golden machine's rendered component states, reused by every
    /// seal probe.
    golden_states: ComponentStates,
}

impl std::fmt::Debug for BatchSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSimulator")
            .field("t_end", &self.t_end)
            .field("lanes", &self.lanes.len())
            .finish_non_exhaustive()
    }
}

impl BatchSimulator {
    /// Wraps a fault-free simulator (monitoring already attached, budget
    /// already installed) as the golden machine of a batch run to `t_end`.
    ///
    /// The default seal-check stride is `(t_end - now) / 64`; override
    /// with [`BatchSimulator::with_seal_stride`].
    pub fn new(golden: Simulator, t_end: Time) -> Self {
        BatchSimulator {
            golden,
            t_end,
            seal_stride: None,
            lanes: Vec::new(),
            metrics: None,
            golden_states: ComponentStates::default(),
        }
    }

    /// Sets the spacing of intermediate lock-step stops, where lane
    /// advancement pauses for divergence probing and seal checks. Digital
    /// simulation is call-granularity invariant, so the stride affects
    /// only how early seals are *detected*, never simulation results.
    #[must_use]
    pub fn with_seal_stride(mut self, stride: Time) -> Self {
        assert!(stride > Time::ZERO, "seal stride must be positive");
        self.seal_stride = Some(stride);
        self
    }

    /// Feeds the lanes-active histogram and lane-seal counter.
    pub fn set_metrics(&mut self, metrics: Arc<KernelMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Adds a mutant lane injected at `inject_at` (clamped to the horizon)
    /// and returns its lane id.
    ///
    /// # Panics
    ///
    /// Panics when the batch already holds [`LANES`] lanes.
    pub fn add_lane(&mut self, inject_at: Time) -> usize {
        assert!(
            self.lanes.len() < LANES,
            "a batch holds at most {LANES} lanes"
        );
        self.lanes.push(Lane {
            inject_at: inject_at.min(self.t_end),
            state: LaneState::Pending,
        });
        self.lanes.len() - 1
    }

    /// The lock-step stop grid: every injection instant, seal-check
    /// points, and the horizon. Ascending and deduplicated.
    fn stops(&self) -> Vec<Time> {
        let mut stops: Vec<Time> = self.lanes.iter().map(|l| l.inject_at).collect();
        let start = self.golden.now();
        let stride = self.seal_stride.unwrap_or_else(|| {
            let span = self.t_end - start;
            (span / 64).max(Time::from_fs(1))
        });
        let mut t = start + stride;
        while t < self.t_end {
            stops.push(t);
            t += stride;
        }
        stops.push(self.t_end);
        stops.sort_unstable();
        stops.dedup();
        stops.retain(|&t| t >= start);
        stops
    }

    /// Runs the batch to the horizon.
    ///
    /// `inject(lane, sim)` arms lane `lane`'s fault on a simulator
    /// positioned exactly at its injection instant — the same contract as
    /// the scalar forked runner's inject closure, which is what makes lane
    /// traces byte-identical to scalar runs. `setup(lane, sim)` runs first
    /// on the freshly cloned lane and is where per-lane budgets and
    /// observers are installed.
    ///
    /// # Errors
    ///
    /// Only a *golden* simulation failure is an error: nothing can be
    /// compared against a broken golden machine. Per-lane failures are
    /// reported in the lane's [`LaneOutcome`] and never abort the batch.
    pub fn run(
        mut self,
        mut inject: impl FnMut(usize, &mut Simulator) -> Result<(), String>,
        mut setup: impl FnMut(usize, &mut Simulator),
    ) -> Result<BatchReport, SimError> {
        let stops = self.stops();
        let monitored = self.golden.monitored_signals();
        for &t in &stops {
            self.golden.run_until(t)?;

            // Activate lanes whose injection instant this stop is. The
            // clone carries the golden trace prefix, exactly like a
            // scalar run that recorded from time zero.
            for lane_id in 0..self.lanes.len() {
                let lane = &mut self.lanes[lane_id];
                if !matches!(lane.state, LaneState::Pending) || lane.inject_at != t {
                    continue;
                }
                let mut sim = self.golden.clone();
                setup(lane_id, &mut sim);
                lane.state = match inject(lane_id, &mut sim) {
                    Ok(()) => LaneState::Running(Box::new(sim)),
                    Err(e) => LaneState::Failed(e),
                };
            }

            // Advance every running lane to the stop; a failure retires
            // only that lane.
            for lane in &mut self.lanes {
                if let LaneState::Running(sim) = &mut lane.state {
                    if let Err(e) = sim.run_until(t) {
                        lane.state = LaneState::Failed(e.to_string());
                    }
                }
            }

            self.seal_reconverged(&monitored, t);

            let active = self
                .lanes
                .iter()
                .filter(|l| matches!(l.state, LaneState::Running(_) | LaneState::Pending))
                .count();
            if let Some(metrics) = &self.metrics {
                metrics.lanes_active.observe(active as u64);
            }
            if active == 0 {
                break;
            }
        }
        // The golden machine must reach the horizon even if every lane
        // retired early: sealed traces splice in its suffix.
        self.golden.run_until(self.t_end)?;

        let golden_trace = self.golden.into_trace();
        let outcomes = self
            .lanes
            .into_iter()
            .map(|lane| match lane.state {
                LaneState::Pending => unreachable!("stop grid covers every injection instant"),
                LaneState::Running(sim) => LaneOutcome::Completed {
                    trace: sim.into_trace(),
                    sealed_at: None,
                },
                LaneState::Sealed { mut trace, at } => {
                    trace.splice_golden_suffix(&golden_trace, at);
                    LaneOutcome::Completed {
                        trace,
                        sealed_at: Some(at),
                    }
                }
                LaneState::Failed(error) => LaneOutcome::Failed { error },
            })
            .collect();
        Ok(BatchReport {
            golden: golden_trace,
            outcomes,
        })
    }

    /// Seals every running lane whose machine state has reconverged with
    /// the golden machine's at stop `t`.
    fn seal_reconverged(&mut self, monitored: &[crate::netlist::SignalId], t: Time) {
        // Cheap plane-sliced divergence probe over the monitored signals:
        // lane `l` occupies planes lane `l`. A set bit proves divergence,
        // so only clear-bit lanes are seal candidates.
        let mut diverged = 0u64;
        for &sig in monitored {
            let golden_value = self.golden.value(sig);
            for bit in 0..golden_value.width() {
                let golden_bit = golden_value.get(bit).expect("bit in range");
                let golden_planes = LogicPlanes::splat(golden_bit);
                let mut lane_planes = golden_planes;
                for (lane_id, lane) in self.lanes.iter().enumerate() {
                    if let LaneState::Running(sim) = &lane.state {
                        lane_planes
                            .set_lane(lane_id, sim.value(sig).get(bit).expect("bit in range"));
                    }
                }
                diverged |= lane_planes.diverged_mask(golden_planes);
            }
        }

        let mut golden_rendered = false;
        for lane_id in 0..self.lanes.len() {
            if diverged & (1 << lane_id) != 0 {
                continue;
            }
            let LaneState::Running(sim) = &self.lanes[lane_id].state else {
                continue;
            };
            if !golden_rendered {
                self.golden.render_component_states(&mut self.golden_states);
                golden_rendered = true;
            }
            if !sim.lockstep_state_eq(&self.golden, &self.golden_states) {
                continue;
            }
            let LaneState::Running(sim) =
                std::mem::replace(&mut self.lanes[lane_id].state, LaneState::Pending)
            else {
                unreachable!("matched Running above");
            };
            self.lanes[lane_id].state = LaneState::Sealed {
                trace: sim.into_trace(),
                at: t,
            };
            if let Some(metrics) = &self.metrics {
                metrics.lane_seals.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{ClockGen, ConstVector, Counter};
    use crate::{DigitalSaboteur, Netlist};
    use amsfi_faults::{DigitalFault, DigitalFaultKind};
    use amsfi_waves::{Logic, SimBudget};

    /// Clocked 8-bit counter with a saboteur on `en`: SET pulses on the
    /// enable either suppress counts (sampled) or wash out (unsampled),
    /// giving both permanently-diverged and reconverging lanes.
    fn build() -> Simulator {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let en = net.signal("en", 1);
        let q = net.signal("q", 8);
        net.add("ck", ClockGen::new(Time::from_ns(20)), &[], &[clk]);
        net.add("r", ConstVector::bit(Logic::Zero), &[], &[rst]);
        net.add("e", ConstVector::bit(Logic::One), &[], &[en]);
        net.add("ctr", Counter::new(8, Time::ZERO), &[clk, rst, en], &[q]);
        let mut sim = Simulator::new(net);
        sim.monitor_name("q");
        sim
    }

    fn counter_target(sim: &Simulator) -> crate::MutantTarget {
        sim.mutant_targets()
            .into_iter()
            .find(|t| t.component_name == "ctr")
            .expect("counter present")
    }

    fn scalar_flip(at: Time, bit: usize, t_end: Time) -> Trace {
        let mut sim = build();
        let target = counter_target(&sim);
        sim.run_until(at).unwrap();
        sim.flip_state(target.component, bit);
        sim.run_until(t_end).unwrap();
        sim.into_trace()
    }

    #[test]
    fn lanes_match_scalar_traces_byte_for_byte() {
        const T_END: Time = Time::from_us(4);
        let times = [Time::from_ns(105), Time::from_ns(330), Time::from_us(1)];
        let bits = [0usize, 3, 7];

        let mut batch = BatchSimulator::new(build(), T_END);
        let target = counter_target(&batch.golden);
        let mut cases = Vec::new();
        for &at in &times {
            for &bit in &bits {
                batch.add_lane(at);
                cases.push((at, bit));
            }
        }
        let report = batch
            .run(
                |lane, sim| {
                    sim.flip_state(target.component, cases[lane].1);
                    Ok(())
                },
                |_, _| {},
            )
            .unwrap();

        for (lane, &(at, bit)) in cases.iter().enumerate() {
            let scalar = scalar_flip(at, bit, T_END);
            assert_eq!(
                report.lane_trace(lane),
                Some(&scalar),
                "lane {lane} (flip bit {bit} @ {at})"
            );
        }
    }

    #[test]
    fn washed_out_pulse_reconverges_and_seals() {
        // A SET pulse on `en` that lands entirely between sampling edges:
        // the waveform corruption washes out, the saboteur retires to the
        // pristine transparent state, and the lane's full machine state
        // equals the golden machine's — it must seal and still produce a
        // byte-identical trace via the golden-suffix splice.
        const T_END: Time = Time::from_us(4);
        let fault = DigitalFault::new(
            DigitalFaultKind::SetPulse {
                width: Time::from_ns(4),
            },
            Time::from_ns(42),
        );

        fn build_sab(fault: Option<DigitalFault>) -> Simulator {
            let mut net = Netlist::new();
            let clk = net.signal("clk", 1);
            let rst = net.signal("rst", 1);
            let en = net.signal("en", 1);
            let q = net.signal("q", 8);
            net.add("ck", ClockGen::new(Time::from_ns(20)), &[], &[clk]);
            net.add("r", ConstVector::bit(Logic::Zero), &[], &[rst]);
            net.add("e", ConstVector::bit(Logic::One), &[], &[en]);
            net.add("ctr", Counter::new(8, Time::ZERO), &[clk, rst, en], &[q]);
            let mut sab = DigitalSaboteur::new(1);
            if let Some(f) = fault {
                sab = sab.with_fault(f);
            }
            net.insert_saboteur(en, Box::new(sab));
            let mut sim = Simulator::new(net);
            sim.monitor_name("q");
            sim
        }

        // Scalar reference: pre-armed saboteur, one straight run.
        let mut scalar = build_sab(Some(fault.clone()));
        scalar.run_until(T_END).unwrap();
        let scalar_trace = scalar.into_trace();

        // Batch: the golden machine carries a transparent saboteur; the
        // lane arms it in place ahead of the injection instant.
        let mut batch =
            BatchSimulator::new(build_sab(None), T_END).with_seal_stride(Time::from_ns(50));
        let lane = batch.add_lane(Time::ZERO);
        let report = batch
            .run(
                |_, sim| {
                    let sab = sim.component_id("saboteur(en)").expect("saboteur present");
                    sim.component_mut(sab)
                        .as_any_mut()
                        .downcast_mut::<DigitalSaboteur>()
                        .expect("saboteur type")
                        .arm(fault.clone());
                    sim.wake_component(sab, fault.at);
                    Ok(())
                },
                |_, _| {},
            )
            .unwrap();

        match &report.outcomes[lane] {
            LaneOutcome::Completed { trace, sealed_at } => {
                assert_eq!(trace, &scalar_trace);
                let sealed = sealed_at.expect("washed-out pulse must seal");
                assert!(sealed < Time::from_us(1), "sealed late: {sealed}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn guard_trip_retires_only_that_lane() {
        const T_END: Time = Time::from_us(2);
        let mut batch = BatchSimulator::new(build(), T_END);
        let target = counter_target(&batch.golden);
        let strict = batch.add_lane(Time::from_ns(100));
        let free = batch.add_lane(Time::from_ns(100));
        let report = batch
            .run(
                |_, sim| {
                    sim.flip_state(target.component, 7);
                    Ok(())
                },
                |lane, sim| {
                    if lane == strict {
                        sim.set_budget(SimBudget::unlimited().with_max_steps(3));
                    }
                },
            )
            .unwrap();
        assert!(
            matches!(&report.outcomes[strict], LaneOutcome::Failed { error } if error.contains("step-budget-exhausted")),
            "strict lane must trip its budget"
        );
        let scalar = scalar_flip(Time::from_ns(100), 7, T_END);
        assert_eq!(report.lane_trace(free), Some(&scalar));
    }
}
