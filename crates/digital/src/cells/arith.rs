//! Combinational arithmetic cells.

use crate::component::{Component, EvalContext};
use crate::netlist::PortSpec;
use amsfi_waves::{Logic, LogicVector, Time};

/// A ripple-carry adder over buses: `sum = a + b + cin`.
///
/// Ports: `a[width]`, `b[width]`, `cin` → `sum[width]`, `cout`. Any
/// metalogical input bit makes the affected sum bits (and carry) `X`.
#[derive(Debug, Clone)]
pub struct Adder {
    width: usize,
    delay: Time,
}

impl Adder {
    /// Creates an adder of `width` bits with propagation `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize, delay: Time) -> Self {
        assert!(width > 0, "adder width must be nonzero");
        Adder { width, delay }
    }
}

impl Component for Adder {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let a = ctx.input(0);
        let b = ctx.input(1);
        let mut carry = ctx.input_bit(2);
        let mut sum = LogicVector::new(self.width);
        for i in 0..self.width {
            let (ai, bi) = (a[i], b[i]);
            sum.set(i, ai ^ bi ^ carry);
            carry = (ai & bi) | (carry & (ai ^ bi));
        }
        ctx.drive(0, &sum, self.delay);
        ctx.drive_bit(1, carry, self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(
            &[("a", self.width), ("b", self.width), ("cin", 1)],
            &[("sum", self.width), ("cout", 1)],
        )
    }
}

/// An unsigned magnitude comparator.
///
/// Ports: `a[width]`, `b[width]` → `eq`, `lt` (`a < b`). Metalogical inputs
/// produce `X` on both outputs.
#[derive(Debug, Clone)]
pub struct Comparator {
    width: usize,
    delay: Time,
}

impl Comparator {
    /// Creates a comparator of `width` bits with propagation `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize, delay: Time) -> Self {
        assert!(width > 0, "comparator width must be nonzero");
        Comparator { width, delay }
    }
}

impl Component for Comparator {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let (eq, lt) = match (ctx.input(0).to_u64(), ctx.input(1).to_u64()) {
            (Some(a), Some(b)) => (Logic::from_bool(a == b), Logic::from_bool(a < b)),
            _ => (Logic::Unknown, Logic::Unknown),
        };
        ctx.drive_bit(0, eq, self.delay);
        ctx.drive_bit(1, lt, self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(
            &[("a", self.width), ("b", self.width)],
            &[("eq", 1), ("lt", 1)],
        )
    }
}

/// Even-parity generator over a bus: output is `1` when the number of high
/// input bits is odd (i.e. XOR reduction).
///
/// Ports: `in[width]` → `parity`.
#[derive(Debug, Clone)]
pub struct Parity {
    width: usize,
    delay: Time,
}

impl Parity {
    /// Creates a parity generator of `width` bits with propagation `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize, delay: Time) -> Self {
        assert!(width > 0, "parity width must be nonzero");
        Parity { width, delay }
    }
}

impl Component for Parity {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let p = ctx.input(0).iter().fold(Logic::Zero, |acc, bit| acc ^ bit);
        ctx.drive_bit(0, p, self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[("in", self.width)], &[("parity", 1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::sources::ConstVector;
    use crate::{Netlist, Simulator};

    fn run_adder(width: usize, a: u64, b: u64, cin: bool) -> (Option<u64>, Logic) {
        let mut net = Netlist::new();
        let sa = net.signal("a", width);
        let sb = net.signal("b", width);
        let sc = net.signal("cin", 1);
        let ss = net.signal("sum", width);
        let sco = net.signal("cout", 1);
        net.add(
            "ca",
            ConstVector::new(LogicVector::from_u64(a, width)),
            &[],
            &[sa],
        );
        net.add(
            "cb",
            ConstVector::new(LogicVector::from_u64(b, width)),
            &[],
            &[sb],
        );
        net.add("cc", ConstVector::bit(Logic::from_bool(cin)), &[], &[sc]);
        net.add(
            "add",
            Adder::new(width, Time::ZERO),
            &[sa, sb, sc],
            &[ss, sco],
        );
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_ns(1)).unwrap();
        (sim.value(ss).to_u64(), sim.value(sco)[0])
    }

    #[test]
    fn adder_exhaustive_4bit() {
        for a in 0u64..16 {
            for b in 0u64..16 {
                for cin in [false, true] {
                    let (sum, cout) = run_adder(4, a, b, cin);
                    let full = a + b + cin as u64;
                    assert_eq!(sum, Some(full & 0xF), "{a}+{b}+{cin}");
                    assert_eq!(cout, Logic::from_bool(full > 0xF), "{a}+{b}+{cin} carry");
                }
            }
        }
    }

    #[test]
    fn adder_with_metalogical_bit_produces_x() {
        let mut net = Netlist::new();
        let sa = net.signal("a", 2);
        let sb = net.signal("b", 2);
        let sc = net.signal("cin", 1);
        let ss = net.signal("sum", 2);
        let sco = net.signal("cout", 1);
        let mut av = LogicVector::from_u64(1, 2);
        av.set(1, Logic::Unknown);
        net.add("ca", ConstVector::new(av), &[], &[sa]);
        net.add(
            "cb",
            ConstVector::new(LogicVector::from_u64(2, 2)),
            &[],
            &[sb],
        );
        net.add("cc", ConstVector::bit(Logic::Zero), &[], &[sc]);
        net.add("add", Adder::new(2, Time::ZERO), &[sa, sb, sc], &[ss, sco]);
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_ns(1)).unwrap();
        assert_eq!(sim.value(ss).to_u64(), None);
        assert_eq!(sim.value(ss)[1], Logic::Unknown);
    }

    #[test]
    fn comparator_relations() {
        for (a, b, eq, lt) in [
            (3u64, 3u64, Logic::One, Logic::Zero),
            (2, 3, Logic::Zero, Logic::One),
            (3, 2, Logic::Zero, Logic::Zero),
        ] {
            let mut net = Netlist::new();
            let sa = net.signal("a", 4);
            let sb = net.signal("b", 4);
            let se = net.signal("eq", 1);
            let sl = net.signal("lt", 1);
            net.add(
                "ca",
                ConstVector::new(LogicVector::from_u64(a, 4)),
                &[],
                &[sa],
            );
            net.add(
                "cb",
                ConstVector::new(LogicVector::from_u64(b, 4)),
                &[],
                &[sb],
            );
            net.add("cmp", Comparator::new(4, Time::ZERO), &[sa, sb], &[se, sl]);
            let mut sim = Simulator::new(net);
            sim.run_until(Time::from_ns(1)).unwrap();
            assert_eq!(sim.value(se)[0], eq, "{a} vs {b} eq");
            assert_eq!(sim.value(sl)[0], lt, "{a} vs {b} lt");
        }
    }

    #[test]
    fn parity_counts_ones() {
        for (v, expect) in [
            (0b0000u64, Logic::Zero),
            (0b1011, Logic::One),
            (0b1111, Logic::Zero),
        ] {
            let mut net = Netlist::new();
            let si = net.signal("in", 4);
            let sp = net.signal("p", 1);
            net.add(
                "cv",
                ConstVector::new(LogicVector::from_u64(v, 4)),
                &[],
                &[si],
            );
            net.add("par", Parity::new(4, Time::ZERO), &[si], &[sp]);
            let mut sim = Simulator::new(net);
            sim.run_until(Time::from_ns(1)).unwrap();
            assert_eq!(sim.value(sp)[0], expect, "parity of {v:#b}");
        }
    }
}
