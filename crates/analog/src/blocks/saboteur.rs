//! The analog saboteur: the paper's Section 4.2 generic current-pulse
//! injector.
//!
//! The VHDL-AMS saboteur of the paper's Fig. 4 injects a current pulse "on
//! nodes specified as *current quantities* by using a current summation on
//! the node". [`AnalogSaboteur`] does the same: it contributes the pulse
//! current to a current node, superposed with the normal current from the
//! functional blocks. Its `max_step` hint forces picosecond refinement while
//! the pulse is alive, so a 40 ps rise time is resolved inside a 0.2 ms
//! transient at negligible cost.

use crate::block::{AnalogBlock, AnalogContext};
use crate::{AnalogSolver, BlockId};
use amsfi_faults::PulseShape;
use amsfi_waves::Time;
use std::sync::Arc;

/// A current-pulse saboteur for analog interconnect nodes.
///
/// Add it to the circuit with its single output bound to the *current* node
/// under attack (e.g. the PLL's filter input). With no pulse armed it
/// contributes nothing — instrumented and pristine circuits are identical.
///
/// # Examples
///
/// ```
/// use amsfi_analog::{blocks, AnalogCircuit, AnalogSolver, NodeKind};
/// use amsfi_faults::TrapezoidPulse;
/// use amsfi_waves::Time;
///
/// let mut ckt = AnalogCircuit::new();
/// let iin = ckt.node("iin", NodeKind::Current);
/// // The paper's Fig. 6 pulse at t = 100 ns.
/// let pulse = TrapezoidPulse::from_ma_ps(10.0, 100, 300, 500)?;
/// ckt.add(
///     "sab",
///     blocks::AnalogSaboteur::new().with_pulse(pulse, Time::from_ns(100)),
///     &[],
///     &[iin],
/// );
/// let mut solver = AnalogSolver::new(ckt, Time::from_ns(1));
/// solver.run_until(Time::from_ns(100) + Time::from_ps(300));
/// // Mid-plateau: the full 10 mA flows into the node.
/// assert!((solver.value(iin) - 10e-3).abs() < 1e-4);
/// # Ok::<(), amsfi_faults::InvalidPulseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnalogSaboteur {
    pulse: Option<(Arc<dyn PulseShape>, Time)>,
    /// Fraction of the pulse support used as the refined step size.
    refinement: i64,
}

impl AnalogSaboteur {
    /// Creates a disarmed (transparent) saboteur.
    pub fn new() -> Self {
        AnalogSaboteur {
            pulse: None,
            refinement: 64,
        }
    }

    /// Arms the saboteur: inject `pulse` starting at `at`.
    #[must_use]
    pub fn with_pulse<P: PulseShape + 'static>(mut self, pulse: P, at: Time) -> Self {
        self.pulse = Some((Arc::new(pulse), at));
        self
    }

    /// Arms with an already-boxed pulse (for heterogeneous campaigns).
    #[must_use]
    pub fn with_pulse_arc(mut self, pulse: Arc<dyn PulseShape>, at: Time) -> Self {
        self.pulse = Some((pulse, at));
        self
    }

    /// Arms (or re-arms) the saboteur in place: inject `pulse` starting at
    /// `at`. The in-place form of [`AnalogSaboteur::with_pulse_arc`], for
    /// saboteurs already lowered into a solver — campaigns build the
    /// circuit once, disarmed, then arm the per-case pulse through
    /// [`AnalogSolver::arm_saboteur`].
    pub fn arm(&mut self, pulse: Arc<dyn PulseShape>, at: Time) {
        self.pulse = Some((pulse, at));
    }

    /// The armed injection time, if any.
    pub fn injection_time(&self) -> Option<Time> {
        self.pulse.as_ref().map(|&(_, at)| at)
    }
}

impl AnalogSolver {
    /// Arms (or re-arms) the [`AnalogSaboteur`] lowered as `block` in
    /// place: inject `pulse` starting at `at`. On a solver paused at `at`
    /// this is what building with the saboteur armed does, so a campaign
    /// can fork every strike from one fault-free prefix.
    ///
    /// # Panics
    ///
    /// If `block` is not an [`AnalogSaboteur`].
    pub fn arm_saboteur(&mut self, block: BlockId, pulse: Arc<dyn PulseShape>, at: Time) {
        self.block_mut(block)
            .as_any_mut()
            .downcast_mut::<AnalogSaboteur>()
            .expect("saboteur block id points at an AnalogSaboteur")
            .arm(pulse, at);
    }
}

impl Default for AnalogSaboteur {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalogBlock for AnalogSaboteur {
    fn step(&mut self, ctx: &mut AnalogContext<'_>) {
        if let Some((pulse, at)) = &self.pulse {
            // Sample at the step midpoint: second-order accurate charge
            // deposition without sub-stepping.
            let mid = ctx.now() + ctx.dt() / 2;
            if mid >= *at {
                let i = pulse.current(mid - *at);
                if i != 0.0 {
                    ctx.contribute(0, i);
                }
            }
        }
    }

    fn max_step(&self, now: Time) -> Option<Time> {
        let (pulse, at) = self.pulse.as_ref()?;
        let support = pulse.support();
        // Refine from the injection instant until one refined step after the
        // pulse dies out (the trailing step records the return to zero, so
        // trace integration sees the full pulse edge).
        let guard = (support / self.refinement).max(Time::RESOLUTION);
        if now + guard >= *at && now < *at + support + guard {
            Some(guard)
        } else if now < *at {
            // Never step across the injection instant.
            Some(*at - now)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalogCircuit, AnalogSolver, NodeKind};
    use amsfi_faults::{DoubleExponential, TrapezoidPulse};

    fn pulse_bench(sab: AnalogSaboteur) -> (AnalogSolver, crate::NodeId) {
        let mut ckt = AnalogCircuit::new();
        let iin = ckt.node("iin", NodeKind::Current);
        ckt.add("sab", sab, &[], &[iin]);
        let mut solver = AnalogSolver::new(ckt, Time::from_ns(10));
        solver.monitor_name("iin");
        solver.set_recording(1e-6, Time::from_ns(10));
        (solver, iin)
    }

    #[test]
    fn disarmed_saboteur_contributes_nothing() {
        let (mut solver, iin) = pulse_bench(AnalogSaboteur::new());
        solver.run_until(Time::from_us(1));
        assert_eq!(solver.value(iin), 0.0);
        assert_eq!(solver.trace().analog("iin").unwrap().max(), Some(0.0));
    }

    #[test]
    fn armed_saboteur_reproduces_pulse_charge() {
        let pulse = TrapezoidPulse::from_ma_ps(10.0, 100, 300, 500).unwrap();
        let expected_charge = amsfi_faults::PulseShape::charge(&pulse);
        let (mut solver, _) =
            pulse_bench(AnalogSaboteur::new().with_pulse(pulse, Time::from_us(1)));
        solver.run_until(Time::from_us(2));
        // Integrate the recorded current trace.
        let w = solver.trace().analog("iin").unwrap();
        let samples = w.samples();
        let mut q = 0.0;
        for pair in samples.windows(2) {
            let dt = (pair[1].0 - pair[0].0).as_secs_f64();
            q += 0.5 * (pair[0].1 + pair[1].1) * dt;
        }
        assert!(
            (q - expected_charge).abs() / expected_charge < 0.05,
            "trace charge {q} vs pulse charge {expected_charge}"
        );
    }

    #[test]
    fn refinement_kicks_in_during_pulse_only() {
        let pulse = TrapezoidPulse::from_ma_ps(10.0, 40, 40, 120).unwrap();
        let (mut solver, _) =
            pulse_bench(AnalogSaboteur::new().with_pulse(pulse, Time::from_us(1)));
        solver.run_until(Time::from_ns(900));
        let before = solver.steps_taken();
        // ~100 steps for the first 900 ns at 10 ns each.
        assert!(before < 200, "{before} coarse steps");
        solver.run_until(Time::from_us(1) + Time::from_ns(1));
        let during = solver.steps_taken() - before;
        // The 160 ps support at support/64 steps: ~64 extra steps.
        assert!(during > 30, "{during} refined steps");
    }

    #[test]
    fn double_exponential_pulse_also_injects() {
        let de =
            DoubleExponential::from_peak(10e-3, Time::from_ps(50), Time::from_ps(200)).unwrap();
        let (mut solver, iin) =
            pulse_bench(AnalogSaboteur::new().with_pulse(de, Time::from_ns(500)));
        solver.run_until(Time::from_ns(500) + Time::from_ps(120));
        // Near the double-exponential peak the node carries close to 10 mA.
        assert!(solver.value(iin) > 8e-3, "i = {}", solver.value(iin));
    }

    #[test]
    fn injection_instant_is_never_stepped_across() {
        let pulse = TrapezoidPulse::from_ma_ps(10.0, 100, 300, 500).unwrap();
        let at = Time::from_ns(995); // does not align with the 10 ns grid
        let (mut solver, _) = pulse_bench(AnalogSaboteur::new().with_pulse(pulse, at));
        solver.run_until(Time::from_us(2));
        // If a coarse step had bridged the injection instant, part of the
        // rise would be lost; the max_step clamp guarantees a step boundary
        // lands exactly at `at`. Verify via the recorded trace: the current
        // is still zero at `at` and rises right after.
        let w = solver.trace().analog("iin").unwrap();
        assert!(w.value_at(at).abs() < 1e-3);
        assert!(w.value_at(at + Time::from_ps(120)) > 5e-3);
    }
}
