//! Combinational gates with configurable propagation delay.

use crate::component::{Component, EvalContext};
use crate::netlist::PortSpec;
use crate::word::{WordComponent, WordEvalContext};
use amsfi_waves::{Logic, LogicPlanes, Time};

/// Word-parallel form of the n-ary gates: the same fold, one plane
/// operation per input instead of one [`Logic`] operation per input *per
/// lane*. Stateless, so any two lanes always compare equal.
#[derive(Debug)]
struct WordNaryGate {
    inputs: usize,
    delay: Time,
    fold: fn(LogicPlanes, LogicPlanes) -> LogicPlanes,
    invert: bool,
}

impl WordComponent for WordNaryGate {
    fn eval(&mut self, ctx: &mut WordEvalContext<'_>) {
        let mut acc = ctx.input_bit(0);
        for i in 1..self.inputs {
            acc = (self.fold)(acc, ctx.input_bit(i));
        }
        if self.invert {
            acc = acc.not();
        }
        ctx.drive_bit(0, acc, self.delay);
    }

    fn lanes_equal_to(&mut self, _reference: usize, candidates: u64) -> u64 {
        candidates
    }
}

macro_rules! nary_gate {
    ($(#[$doc:meta])* $name:ident, $fold:expr, $plane_fold:expr, $invert:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            inputs: usize,
            delay: Time,
        }

        impl $name {
            /// Creates a gate with `inputs` scalar inputs and the given
            /// propagation delay.
            ///
            /// # Panics
            ///
            /// Panics if `inputs` is zero.
            pub fn new(inputs: usize, delay: Time) -> Self {
                assert!(inputs > 0, "gate needs at least one input");
                Self { inputs, delay }
            }
        }

        impl Component for $name {
            fn eval(&mut self, ctx: &mut EvalContext<'_>) {
                let mut acc = ctx.input_bit(0);
                for i in 1..self.inputs {
                    acc = $fold(acc, ctx.input_bit(i));
                }
                if $invert {
                    acc = !acc;
                }
                ctx.drive_bit(0, acc, self.delay);
            }

            fn port_spec(&self) -> PortSpec {
                PortSpec {
                    inputs: (0..self.inputs).map(|i| (format!("in{i}"), 1)).collect(),
                    outputs: vec![("out".to_owned(), 1)],
                }
            }

            fn word_component(&self) -> Option<Box<dyn WordComponent>> {
                Some(Box::new(WordNaryGate {
                    inputs: self.inputs,
                    delay: self.delay,
                    fold: $plane_fold,
                    invert: $invert,
                }))
            }
        }
    };
}

nary_gate!(
    /// N-input AND gate.
    And,
    |a: Logic, b: Logic| a & b,
    |a: LogicPlanes, b: LogicPlanes| a.and(b),
    false
);
nary_gate!(
    /// N-input OR gate.
    Or,
    |a: Logic, b: Logic| a | b,
    |a: LogicPlanes, b: LogicPlanes| a.or(b),
    false
);
nary_gate!(
    /// N-input NAND gate.
    Nand,
    |a: Logic, b: Logic| a & b,
    |a: LogicPlanes, b: LogicPlanes| a.and(b),
    true
);
nary_gate!(
    /// N-input NOR gate.
    Nor,
    |a: Logic, b: Logic| a | b,
    |a: LogicPlanes, b: LogicPlanes| a.or(b),
    true
);
nary_gate!(
    /// N-input XOR gate (odd parity).
    Xor,
    |a: Logic, b: Logic| a ^ b,
    |a: LogicPlanes, b: LogicPlanes| a.xor(b),
    false
);
nary_gate!(
    /// N-input XNOR gate (even parity).
    Xnor,
    |a: Logic, b: Logic| a ^ b,
    |a: LogicPlanes, b: LogicPlanes| a.xor(b),
    true
);

/// Inverter.
#[derive(Debug, Clone)]
pub struct Not {
    delay: Time,
}

impl Not {
    /// Creates an inverter with the given propagation delay.
    pub fn new(delay: Time) -> Self {
        Not { delay }
    }
}

impl Component for Not {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let v = !ctx.input_bit(0);
        ctx.drive_bit(0, v, self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[("in", 1)], &[("out", 1)])
    }

    fn word_component(&self) -> Option<Box<dyn WordComponent>> {
        Some(Box::new(WordNot { delay: self.delay }))
    }
}

/// Word-parallel inverter: one plane negation covers all lanes.
#[derive(Debug)]
struct WordNot {
    delay: Time,
}

impl WordComponent for WordNot {
    fn eval(&mut self, ctx: &mut WordEvalContext<'_>) {
        let v = ctx.input_bit(0).not();
        ctx.drive_bit(0, v, self.delay);
    }

    fn lanes_equal_to(&mut self, _reference: usize, candidates: u64) -> u64 {
        candidates
    }
}

/// Non-inverting buffer (also useful to model a wire delay).
#[derive(Debug, Clone)]
pub struct Buf {
    width: usize,
    delay: Time,
}

impl Buf {
    /// Creates a buffer of the given bus width and propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize, delay: Time) -> Self {
        assert!(width > 0, "buffer width must be nonzero");
        Buf { width, delay }
    }
}

impl Component for Buf {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        ctx.drive(0, ctx.input(0), self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[("in", self.width)], &[("out", self.width)])
    }

    fn word_component(&self) -> Option<Box<dyn WordComponent>> {
        Some(Box::new(WordBuf { delay: self.delay }))
    }
}

/// Word-parallel buffer: forwards the input planes unchanged.
#[derive(Debug)]
struct WordBuf {
    delay: Time,
}

impl WordComponent for WordBuf {
    fn eval(&mut self, ctx: &mut WordEvalContext<'_>) {
        ctx.drive(0, ctx.input(0), self.delay);
    }

    fn lanes_equal_to(&mut self, _reference: usize, candidates: u64) -> u64 {
        candidates
    }
}

/// Two-way multiplexer over buses: `y = if sel then b else a`.
///
/// A metalogical select propagates `X` on every output bit.
#[derive(Debug, Clone)]
pub struct Mux2 {
    width: usize,
    delay: Time,
}

impl Mux2 {
    /// Creates a mux of the given bus width and propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize, delay: Time) -> Self {
        assert!(width > 0, "mux width must be nonzero");
        Mux2 { width, delay }
    }
}

impl Component for Mux2 {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        match ctx.input_bit(0).to_bool() {
            Some(false) => ctx.drive(0, ctx.input(1), self.delay),
            Some(true) => ctx.drive(0, ctx.input(2), self.delay),
            None => ctx.drive_filled(0, Logic::Unknown, self.width, self.delay),
        }
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(
            &[("sel", 1), ("a", self.width), ("b", self.width)],
            &[("y", self.width)],
        )
    }

    fn word_component(&self) -> Option<Box<dyn WordComponent>> {
        Some(Box::new(WordMux2 {
            delay: self.delay,
            out: Vec::with_capacity(self.width),
        }))
    }
}

/// Word-parallel mux: lane classes of the select (low / high / metalogical)
/// become three masks merged per output bit — the plane analogue of the
/// scalar `to_bool` three-way match.
#[derive(Debug)]
struct WordMux2 {
    delay: Time,
    /// The output planes under construction (kept for its capacity).
    out: Vec<LogicPlanes>,
}

impl WordComponent for WordMux2 {
    fn eval(&mut self, ctx: &mut WordEvalContext<'_>) {
        let sel = ctx.input_bit(0);
        let low = sel.is_low_mask();
        let high = sel.is_high_mask();
        self.out.clear();
        self.out
            .extend(ctx.input(1).iter().zip(ctx.input(2)).map(|(a, b)| {
                LogicPlanes::splat(Logic::Unknown)
                    .select(low, *a)
                    .select(high, *b)
            }));
        ctx.drive(0, &self.out, self.delay);
    }

    fn lanes_equal_to(&mut self, _reference: usize, candidates: u64) -> u64 {
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Netlist, Simulator};
    use amsfi_waves::LogicVector;

    /// Drives a fixed scalar at time zero (test helper).
    #[derive(Debug, Clone)]
    pub(crate) struct Const(pub Logic);

    impl Component for Const {
        fn eval(&mut self, ctx: &mut EvalContext<'_>) {
            ctx.drive_bit(0, self.0, Time::ZERO);
        }
    }

    fn two_input_truth(gate: impl Component + 'static, table: [(Logic, Logic, Logic); 4]) {
        for (a, b, expect) in table {
            let mut net = Netlist::new();
            let sa = net.signal("a", 1);
            let sb = net.signal("b", 1);
            let sy = net.signal("y", 1);
            net.add("ca", Const(a), &[], &[sa]);
            net.add("cb", Const(b), &[], &[sb]);
            net.add_boxed("g", gate.clone_box(), &[sa, sb], &[sy]);
            let mut sim = Simulator::new(net);
            sim.run_until(Time::from_ns(1)).unwrap();
            assert_eq!(
                sim.value(sy)[0],
                expect,
                "gate({a}, {b}) should be {expect}"
            );
        }
    }

    use Logic::{One as I, Zero as O};

    #[test]
    fn and_truth_table() {
        two_input_truth(
            And::new(2, Time::ZERO),
            [(O, O, O), (O, I, O), (I, O, O), (I, I, I)],
        );
    }

    #[test]
    fn nand_truth_table() {
        two_input_truth(
            Nand::new(2, Time::ZERO),
            [(O, O, I), (O, I, I), (I, O, I), (I, I, O)],
        );
    }

    #[test]
    fn or_nor_xor_xnor_tables() {
        two_input_truth(
            Or::new(2, Time::ZERO),
            [(O, O, O), (O, I, I), (I, O, I), (I, I, I)],
        );
        two_input_truth(
            Nor::new(2, Time::ZERO),
            [(O, O, I), (O, I, O), (I, O, O), (I, I, O)],
        );
        two_input_truth(
            Xor::new(2, Time::ZERO),
            [(O, O, O), (O, I, I), (I, O, I), (I, I, O)],
        );
        two_input_truth(
            Xnor::new(2, Time::ZERO),
            [(O, O, I), (O, I, O), (I, O, O), (I, I, I)],
        );
    }

    #[test]
    fn three_input_and() {
        let mut net = Netlist::new();
        let a = net.signal("a", 1);
        let b = net.signal("b", 1);
        let c = net.signal("c", 1);
        let y = net.signal("y", 1);
        net.add("ca", Const(I), &[], &[a]);
        net.add("cb", Const(I), &[], &[b]);
        net.add("cc", Const(O), &[], &[c]);
        net.add("g", And::new(3, Time::ZERO), &[a, b, c], &[y]);
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_ns(1)).unwrap();
        assert_eq!(sim.value(y)[0], O);
    }

    #[test]
    fn mux_selects_and_x_propagates() {
        for (sel, expect) in [(O, 0b01u64), (I, 0b10u64)] {
            let mut net = Netlist::new();
            let ssel = net.signal("sel", 1);
            let sa = net.signal("a", 2);
            let sb = net.signal("b", 2);
            let sy = net.signal("y", 2);
            net.add("cs", Const(sel), &[], &[ssel]);
            net.add(
                "ca",
                super::super::sources::ConstVector::new(LogicVector::from_u64(0b01, 2)),
                &[],
                &[sa],
            );
            net.add(
                "cb",
                super::super::sources::ConstVector::new(LogicVector::from_u64(0b10, 2)),
                &[],
                &[sb],
            );
            net.add("m", Mux2::new(2, Time::ZERO), &[ssel, sa, sb], &[sy]);
            let mut sim = Simulator::new(net);
            sim.run_until(Time::from_ns(1)).unwrap();
            assert_eq!(sim.value(sy).to_u64(), Some(expect));
        }
    }

    #[test]
    #[should_panic(expected = "expects width")]
    fn port_spec_catches_width_mismatch() {
        let mut net = Netlist::new();
        let a = net.signal("a", 2); // wrong: Not expects width 1
        let y = net.signal("y", 1);
        net.add("n", Not::new(Time::ZERO), &[a], &[y]);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn port_spec_catches_arity_mismatch() {
        let mut net = Netlist::new();
        let a = net.signal("a", 1);
        let y = net.signal("y", 1);
        net.add("g", And::new(2, Time::ZERO), &[a], &[y]);
    }
}
