//! A table-driven Moore finite-state machine.
//!
//! FSM state registers are prime SEU targets: the paper's reference \[11\]
//! models upsets as "erroneous transitions in a finite state machine". This
//! cell exposes its encoded state through the mutant hooks so campaigns can
//! both flip individual state bits and force arbitrary (possibly unreachable)
//! states.

use crate::component::{Component, EvalContext};
use crate::netlist::PortSpec;
use amsfi_waves::{Logic, Time};
use std::fmt;

/// Error returned when an FSM description is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidFsmError {
    reason: String,
}

impl fmt::Display for InvalidFsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid FSM description: {}", self.reason)
    }
}

impl std::error::Error for InvalidFsmError {}

/// A Moore FSM with a dense transition table.
///
/// Ports: `clk`, `rst`, `in[input_width]` → `out[output_width]`,
/// `state[state_width]`.
///
/// On each rising clock edge the state advances to
/// `transition[state * 2^input_width + input]`; `rst` (synchronous,
/// active-high) returns to state 0. The output is the Moore output of the
/// *current* state. A metalogical input holds the current state (modelling a
/// gated, synchronous design).
///
/// # Examples
///
/// A two-state toggle machine:
///
/// ```
/// use amsfi_digital::cells::Fsm;
/// use amsfi_digital::Component as _;
///
/// let fsm = Fsm::new(
///     2,        // states
///     1,        // input width
///     1,        // output width
///     // state 0: in=0 -> 0, in=1 -> 1 ; state 1: in=0 -> 1, in=1 -> 0
///     vec![0, 1, 1, 0],
///     vec![0, 1], // Moore outputs
///     amsfi_waves::Time::ZERO,
/// )?;
/// assert_eq!(fsm.state_bits(), 1);
/// # Ok::<(), amsfi_digital::cells::InvalidFsmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fsm {
    n_states: u64,
    input_width: usize,
    output_width: usize,
    state_width: usize,
    transition: Vec<u64>,
    output: Vec<u64>,
    state: u64,
    prev_clk: Logic,
    delay: Time,
}

impl Fsm {
    /// Builds an FSM from dense tables.
    ///
    /// `transition` must have `n_states * 2^input_width` entries (row-major
    /// by state); `output` must have `n_states` entries. State 0 is the
    /// reset state.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFsmError`] if a table has the wrong size, a
    /// transition leads outside `0..n_states`, or an output does not fit in
    /// `output_width` bits.
    pub fn new(
        n_states: u64,
        input_width: usize,
        output_width: usize,
        transition: Vec<u64>,
        output: Vec<u64>,
        delay: Time,
    ) -> Result<Self, InvalidFsmError> {
        let err = |reason: String| Err(InvalidFsmError { reason });
        if n_states == 0 {
            return err("need at least one state".into());
        }
        if input_width >= 32 {
            return err("input width must be below 32".into());
        }
        if output_width == 0 || output_width > 64 {
            return err("output width must be in 1..=64".into());
        }
        let expected = n_states as usize * (1usize << input_width);
        if transition.len() != expected {
            return err(format!(
                "transition table has {} entries, expected {expected}",
                transition.len()
            ));
        }
        if output.len() != n_states as usize {
            return err(format!(
                "output table has {} entries, expected {n_states}",
                output.len()
            ));
        }
        if let Some(bad) = transition.iter().find(|&&s| s >= n_states) {
            return err(format!("transition to out-of-range state {bad}"));
        }
        let out_mask = if output_width == 64 {
            u64::MAX
        } else {
            (1u64 << output_width) - 1
        };
        if let Some(bad) = output.iter().find(|&&o| o & !out_mask != 0) {
            return err(format!(
                "output {bad:#x} does not fit in {output_width} bits"
            ));
        }
        let state_width = (64 - (n_states - 1).leading_zeros()).max(1) as usize;
        Ok(Fsm {
            n_states,
            input_width,
            output_width,
            state_width,
            transition,
            output,
            state: 0,
            prev_clk: Logic::Uninitialized,
            delay,
        })
    }

    /// The number of bits used to encode the state.
    pub fn state_width(&self) -> usize {
        self.state_width
    }

    fn drive_outputs(&self, ctx: &mut EvalContext<'_>) {
        // A corrupted state may address outside the table: unreachable states
        // produce an all-X output, exactly what a synthesised one-hot or
        // sparse encoding would do.
        if self.state < self.n_states {
            let out = self.output[self.state as usize];
            ctx.drive_u64(0, out, self.output_width, self.delay);
        } else {
            ctx.drive_filled(0, Logic::Unknown, self.output_width, self.delay);
        }
        ctx.drive_u64(1, self.state, self.state_width, self.delay);
    }
}

impl Component for Fsm {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let clk = ctx.input_bit(0);
        if !self.prev_clk.is_high() && clk.is_high() {
            if ctx.input_bit(1).is_high() {
                self.state = 0;
            } else if let Some(input) = ctx.input(2).to_u64() {
                if self.state < self.n_states {
                    let idx = self.state as usize * (1usize << self.input_width) + input as usize;
                    self.state = self.transition[idx];
                }
                // else: hold the corrupted state until reset.
            }
        }
        self.prev_clk = clk;
        self.drive_outputs(ctx);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(
            &[("clk", 1), ("rst", 1), ("in", self.input_width)],
            &[("out", self.output_width), ("state", self.state_width)],
        )
    }

    fn state_bits(&self) -> usize {
        self.state_width
    }

    fn flip_state_bit(&mut self, bit: usize) {
        self.state ^= 1 << bit;
    }

    fn state_label(&self, bit: usize) -> String {
        format!("state[{bit}]")
    }

    fn force_state(&mut self, value: u64) {
        self.state = value;
    }

    fn state_value(&self) -> Option<u64> {
        Some(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::sources::{ClockGen, ConstVector, Stimulus};
    use crate::{Netlist, Simulator};

    /// A 3-state sequence detector: advances on in=1, resets to 0 on in=0.
    /// Output is 1 only in state 2 ("two ones seen").
    fn detector() -> Fsm {
        Fsm::new(
            3,
            1,
            1,
            // state 0: 0->0, 1->1 ; state 1: 0->0, 1->2 ; state 2: 0->0, 1->2
            vec![0, 1, 0, 2, 0, 2],
            vec![0, 0, 1],
            Time::ZERO,
        )
        .unwrap()
    }

    fn build(fsm: Fsm, stim: Stimulus) -> (Simulator, crate::SignalId, crate::ComponentId) {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let inp = net.signal("in", 1);
        let out = net.signal("out", 1);
        let state = net.signal("state", fsm.state_width());
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("r", ConstVector::bit(Logic::Zero), &[], &[rst]);
        net.add("stim", stim, &[], &[inp]);
        let id = net.add("fsm", fsm, &[clk, rst, inp], &[out, state]);
        let mut sim = Simulator::new(net);
        sim.monitor(out);
        (sim, out, id)
    }

    #[test]
    fn detector_finds_double_ones() {
        // Edges at 5, 15, 25, 35 ns. Input: 1 from 0, so edges see 1,1,...
        let (mut sim, out, _) = build(detector(), Stimulus::bits([(Time::ZERO, true)]));
        sim.run_until(Time::from_ns(12)).unwrap();
        assert_eq!(sim.value(out)[0], Logic::Zero); // state 1 after first edge
        sim.run_until(Time::from_ns(22)).unwrap();
        assert_eq!(sim.value(out)[0], Logic::One); // state 2 after second edge
    }

    #[test]
    fn detector_resets_on_zero_input() {
        let (mut sim, out, _) = build(
            detector(),
            Stimulus::bits([(Time::ZERO, true), (Time::from_ns(17), false)]),
        );
        sim.run_until(Time::from_ns(22)).unwrap();
        // Second edge at 15 ns still saw 1 -> state 2; edge at 25 sees 0 -> state 0.
        assert_eq!(sim.value(out)[0], Logic::One);
        sim.run_until(Time::from_ns(27)).unwrap();
        assert_eq!(sim.value(out)[0], Logic::Zero);
    }

    #[test]
    fn forced_unreachable_state_outputs_x_until_reset() {
        let (mut sim, out, fsm_id) = build(detector(), Stimulus::bits([(Time::ZERO, true)]));
        sim.run_until(Time::from_ns(12)).unwrap();
        sim.force_state(fsm_id, 3); // state 3 does not exist (n_states = 3)
        sim.run_until(Time::from_ns(13)).unwrap();
        assert_eq!(sim.value(out)[0], Logic::Unknown);
        // Without reset the corrupted state is held.
        sim.run_until(Time::from_ns(40)).unwrap();
        assert_eq!(sim.value(out)[0], Logic::Unknown);
        assert_eq!(sim.state_value(fsm_id), Some(3));
    }

    #[test]
    fn seu_bit_flip_causes_erroneous_transition() {
        let (mut sim, out, fsm_id) = build(detector(), Stimulus::bits([(Time::ZERO, true)]));
        sim.run_until(Time::from_ns(22)).unwrap();
        assert_eq!(sim.state_value(fsm_id), Some(2));
        sim.flip_state(fsm_id, 1); // 2 -> 0: detector forgets it saw two ones
        sim.run_until(Time::from_ns(23)).unwrap();
        assert_eq!(sim.value(out)[0], Logic::Zero);
        // The machine re-walks 0 -> 1 -> 2 on subsequent ones.
        sim.run_until(Time::from_ns(50)).unwrap();
        assert_eq!(sim.value(out)[0], Logic::One);
    }

    #[test]
    fn validation_rejects_malformed_tables() {
        assert!(Fsm::new(0, 1, 1, vec![], vec![], Time::ZERO).is_err());
        assert!(Fsm::new(2, 1, 1, vec![0, 1, 1], vec![0, 1], Time::ZERO).is_err());
        assert!(Fsm::new(2, 1, 1, vec![0, 1, 1, 5], vec![0, 1], Time::ZERO).is_err());
        assert!(Fsm::new(2, 1, 1, vec![0, 1, 1, 0], vec![0, 2], Time::ZERO).is_err());
        assert!(Fsm::new(2, 1, 1, vec![0, 1, 1, 0], vec![0, 1], Time::ZERO).is_ok());
    }

    #[test]
    fn state_width_is_ceil_log2() {
        let f = Fsm::new(5, 1, 1, vec![0; 10], vec![0; 5], Time::ZERO).unwrap();
        assert_eq!(f.state_width(), 3);
        let f = Fsm::new(2, 1, 1, vec![0; 4], vec![0; 2], Time::ZERO).unwrap();
        assert_eq!(f.state_width(), 1);
        let f = Fsm::new(1, 1, 1, vec![0; 2], vec![0], Time::ZERO).unwrap();
        assert_eq!(f.state_width(), 1);
    }
}
