//! Sequential cells: flip-flops, counters, shift registers, LFSRs.
//!
//! These are the primary SEU targets of the digital flow: each exposes its
//! memorised bits through the mutant hooks of [`Component`].

use crate::component::{Component, EvalContext};
use crate::netlist::PortSpec;
use amsfi_waves::{Logic, LogicVector, Time};

const CLK: usize = 0;

fn rising(prev: Logic, now: Logic) -> bool {
    !prev.is_high() && now.is_high()
}

/// A `width`-bit D flip-flop / register, rising-edge triggered, with an
/// active-high synchronous reset on a dedicated port.
///
/// Ports: `clk`, `rst`, `d[width]` → `q[width]`.
///
/// # Examples
///
/// ```
/// use amsfi_digital::{cells, Netlist, Simulator};
/// use amsfi_waves::{LogicVector, Time};
///
/// let mut net = Netlist::new();
/// let clk = net.signal("clk", 1);
/// let rst = net.signal("rst", 1);
/// let d = net.signal("d", 4);
/// let q = net.signal("q", 4);
/// net.add("ck", cells::ClockGen::new(Time::from_ns(10)), &[], &[clk]);
/// net.add("r0", cells::ConstVector::bit(amsfi_waves::Logic::Zero), &[], &[rst]);
/// net.add("dv", cells::ConstVector::new(LogicVector::from_u64(9, 4)), &[], &[d]);
/// net.add("ff", cells::Register::new(4, Time::ZERO), &[clk, rst, d], &[q]);
/// let mut sim = Simulator::new(net);
/// sim.run_until(Time::from_ns(20))?;
/// assert_eq!(sim.value(q).to_u64(), Some(9));
/// # Ok::<(), amsfi_digital::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Register {
    width: usize,
    delay: Time,
    state: LogicVector,
    prev_clk: Logic,
}

impl Register {
    /// Creates a register of `width` bits with clock-to-Q `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize, delay: Time) -> Self {
        assert!(width > 0, "register width must be nonzero");
        Register {
            width,
            delay,
            state: LogicVector::new(width),
            prev_clk: Logic::Uninitialized,
        }
    }
}

impl Component for Register {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let clk = ctx.input_bit(CLK);
        if rising(self.prev_clk, clk) {
            if ctx.input_bit(1).is_high() {
                self.state.assign_filled(Logic::Zero, self.width);
            } else {
                self.state.clone_from(ctx.input(2));
            }
        }
        self.prev_clk = clk;
        ctx.drive(0, &self.state, self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(
            &[("clk", 1), ("rst", 1), ("d", self.width)],
            &[("q", self.width)],
        )
    }

    fn state_bits(&self) -> usize {
        self.width
    }

    fn flip_state_bit(&mut self, bit: usize) {
        self.state.flip_bit(bit);
    }

    fn state_label(&self, bit: usize) -> String {
        format!("q[{bit}]")
    }

    fn force_state(&mut self, value: u64) {
        self.state = LogicVector::from_u64(value, self.width);
    }

    fn state_value(&self) -> Option<u64> {
        self.state.to_u64()
    }
}

/// A single-bit D flip-flop without reset. Ports: `clk`, `d` → `q`.
#[derive(Debug, Clone)]
pub struct Dff {
    width: usize,
    delay: Time,
    state: LogicVector,
    prev_clk: Logic,
}

impl Dff {
    /// Creates a `width`-bit flip-flop with clock-to-Q `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize, delay: Time) -> Self {
        assert!(width > 0, "dff width must be nonzero");
        Dff {
            width,
            delay,
            state: LogicVector::new(width),
            prev_clk: Logic::Uninitialized,
        }
    }
}

impl Component for Dff {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let clk = ctx.input_bit(CLK);
        if rising(self.prev_clk, clk) {
            self.state.clone_from(ctx.input(1));
        }
        self.prev_clk = clk;
        ctx.drive(0, &self.state, self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[("clk", 1), ("d", self.width)], &[("q", self.width)])
    }

    fn state_bits(&self) -> usize {
        self.width
    }

    fn flip_state_bit(&mut self, bit: usize) {
        self.state.flip_bit(bit);
    }

    fn state_label(&self, bit: usize) -> String {
        format!("q[{bit}]")
    }

    fn force_state(&mut self, value: u64) {
        self.state = LogicVector::from_u64(value, self.width);
    }

    fn state_value(&self) -> Option<u64> {
        self.state.to_u64()
    }
}

/// A level-sensitive D latch: transparent while `en` is high, holding
/// otherwise.
///
/// Ports: `en`, `d[width]` → `q[width]`. Latches are a distinct SEU class:
/// an upset while *holding* persists until the next transparent phase,
/// while an upset during transparency is immediately overwritten.
#[derive(Debug, Clone)]
pub struct Latch {
    width: usize,
    delay: Time,
    state: LogicVector,
}

impl Latch {
    /// Creates a `width`-bit latch with the given propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize, delay: Time) -> Self {
        assert!(width > 0, "latch width must be nonzero");
        Latch {
            width,
            delay,
            state: LogicVector::new(width),
        }
    }
}

impl Component for Latch {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        if ctx.input_bit(0).is_high() {
            self.state.clone_from(ctx.input(1));
        }
        ctx.drive(0, &self.state, self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[("en", 1), ("d", self.width)], &[("q", self.width)])
    }

    fn state_bits(&self) -> usize {
        self.width
    }

    fn flip_state_bit(&mut self, bit: usize) {
        self.state.flip_bit(bit);
    }

    fn state_label(&self, bit: usize) -> String {
        format!("q[{bit}]")
    }

    fn force_state(&mut self, value: u64) {
        self.state = LogicVector::from_u64(value, self.width);
    }

    fn state_value(&self) -> Option<u64> {
        self.state.to_u64()
    }
}

/// A binary up-counter with synchronous reset and enable.
///
/// Ports: `clk`, `rst`, `en` → `q[width]`. Counts on each rising clock edge
/// while `en` is high; wraps at 2^width.
#[derive(Debug, Clone)]
pub struct Counter {
    width: usize,
    delay: Time,
    count: u64,
    prev_clk: Logic,
}

impl Counter {
    /// Creates a counter of `width` bits (at most 64) with output `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 64.
    pub fn new(width: usize, delay: Time) -> Self {
        assert!((1..=64).contains(&width), "counter width must be in 1..=64");
        Counter {
            width,
            delay,
            count: 0,
            prev_clk: Logic::Uninitialized,
        }
    }

    fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1 << self.width) - 1
        }
    }
}

impl Component for Counter {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let clk = ctx.input_bit(CLK);
        if rising(self.prev_clk, clk) {
            if ctx.input_bit(1).is_high() {
                self.count = 0;
            } else if ctx.input_bit(2).is_high() {
                self.count = (self.count + 1) & self.mask();
            }
        }
        self.prev_clk = clk;
        ctx.drive_u64(0, self.count, self.width, self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[("clk", 1), ("rst", 1), ("en", 1)], &[("q", self.width)])
    }

    fn state_bits(&self) -> usize {
        self.width
    }

    fn flip_state_bit(&mut self, bit: usize) {
        self.count ^= 1 << bit;
    }

    fn state_label(&self, bit: usize) -> String {
        format!("count[{bit}]")
    }

    fn force_state(&mut self, value: u64) {
        self.count = value & self.mask();
    }

    fn state_value(&self) -> Option<u64> {
        Some(self.count)
    }
}

/// A serial-in shift register.
///
/// Ports: `clk`, `din` → `q[width]`, `sout`. On each rising edge the register
/// shifts left by one; `din` enters at bit 0 and `sout` is the evicted MSB.
#[derive(Debug, Clone)]
pub struct ShiftReg {
    width: usize,
    delay: Time,
    state: LogicVector,
    prev_clk: Logic,
}

impl ShiftReg {
    /// Creates a shift register of `width` bits with output `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize, delay: Time) -> Self {
        assert!(width > 0, "shift register width must be nonzero");
        ShiftReg {
            width,
            delay,
            state: LogicVector::zeros(width),
            prev_clk: Logic::Uninitialized,
        }
    }
}

impl Component for ShiftReg {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let clk = ctx.input_bit(CLK);
        let mut evicted = self.state[self.width - 1];
        if rising(self.prev_clk, clk) {
            let mut next = LogicVector::new(self.width);
            next.set(0, ctx.input_bit(1));
            for i in 1..self.width {
                next.set(i, self.state[i - 1]);
            }
            evicted = self.state[self.width - 1];
            self.state = next;
        }
        self.prev_clk = clk;
        ctx.drive(0, &self.state, self.delay);
        ctx.drive_bit(1, evicted, self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[("clk", 1), ("din", 1)], &[("q", self.width), ("sout", 1)])
    }

    fn state_bits(&self) -> usize {
        self.width
    }

    fn flip_state_bit(&mut self, bit: usize) {
        self.state.flip_bit(bit);
    }

    fn state_label(&self, bit: usize) -> String {
        format!("sr[{bit}]")
    }

    fn force_state(&mut self, value: u64) {
        self.state = LogicVector::from_u64(value, self.width);
    }

    fn state_value(&self) -> Option<u64> {
        self.state.to_u64()
    }
}

/// A Fibonacci linear-feedback shift register (pseudo-random source).
///
/// Ports: `clk` → `q[width]`. `taps` is a bit mask of feedback taps; the
/// feedback bit is the XOR of the tapped state bits.
#[derive(Debug, Clone)]
pub struct Lfsr {
    width: usize,
    taps: u64,
    delay: Time,
    state: u64,
    prev_clk: Logic,
}

impl Lfsr {
    /// Creates an LFSR with the given width, tap mask and non-zero seed.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=64`, `taps` is zero, or `seed` is
    /// zero (an all-zero LFSR never leaves zero).
    pub fn new(width: usize, taps: u64, seed: u64, delay: Time) -> Self {
        assert!((1..=64).contains(&width), "lfsr width must be in 1..=64");
        assert!(taps != 0, "lfsr needs at least one tap");
        assert!(seed != 0, "lfsr seed must be nonzero");
        Lfsr {
            width,
            taps,
            delay,
            state: seed,
            prev_clk: Logic::Uninitialized,
        }
    }

    /// A 16-bit maximal-length LFSR (polynomial x¹⁶+x¹⁴+x¹³+x¹¹+1,
    /// tap mask `0xB400`) seeded with `0xACE1`.
    pub fn maximal_16(delay: Time) -> Self {
        Self::new(16, 0xB400, 0xACE1, delay)
    }
}

impl Component for Lfsr {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let clk = ctx.input_bit(CLK);
        if rising(self.prev_clk, clk) {
            let fb = (self.state & self.taps).count_ones() & 1;
            self.state = (self.state << 1 | fb as u64)
                & if self.width == 64 {
                    u64::MAX
                } else {
                    (1 << self.width) - 1
                };
        }
        self.prev_clk = clk;
        ctx.drive_u64(0, self.state, self.width, self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[("clk", 1)], &[("q", self.width)])
    }

    fn state_bits(&self) -> usize {
        self.width
    }

    fn flip_state_bit(&mut self, bit: usize) {
        self.state ^= 1 << bit;
    }

    fn state_label(&self, bit: usize) -> String {
        format!("lfsr[{bit}]")
    }

    fn force_state(&mut self, value: u64) {
        self.state = value;
    }

    fn state_value(&self) -> Option<u64> {
        Some(self.state)
    }
}

/// A divide-by-N clock divider.
///
/// Ports: `clk` → `out`. The output toggles every `n/2` rising input edges
/// (for even `n`), producing a square wave at `f_in / n`. This is the
/// "Divider" block of the paper's Fig. 5 PLL, which divides the 50 MHz VCO
/// clock back down to the 500 kHz reference (N = 100).
#[derive(Debug, Clone)]
pub struct ClockDivider {
    half: u64,
    delay: Time,
    count: u64,
    out: Logic,
    prev_clk: Logic,
}

impl ClockDivider {
    /// Creates a divide-by-`n` divider with output `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or odd (a square output needs an even ratio).
    pub fn new(n: u64, delay: Time) -> Self {
        assert!(
            n > 0 && n.is_multiple_of(2),
            "division ratio must be even and nonzero"
        );
        ClockDivider {
            half: n / 2,
            delay,
            count: 0,
            out: Logic::Zero,
            prev_clk: Logic::Uninitialized,
        }
    }
}

impl Component for ClockDivider {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let clk = ctx.input_bit(CLK);
        if rising(self.prev_clk, clk) {
            self.count += 1;
            if self.count >= self.half {
                self.count = 0;
                self.out = if self.out.is_high() {
                    Logic::Zero
                } else {
                    Logic::One
                };
            }
        }
        self.prev_clk = clk;
        ctx.drive_bit(0, self.out, self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[("clk", 1)], &[("out", 1)])
    }

    fn state_bits(&self) -> usize {
        // The edge counter plus the output bit are all memorised state.
        (64 - (self.half.max(1) - 1).leading_zeros()).max(1) as usize + 1
    }

    fn flip_state_bit(&mut self, bit: usize) {
        if bit == self.state_bits() - 1 {
            self.out = self.out.flipped();
        } else {
            self.count ^= 1 << bit;
        }
    }

    fn state_label(&self, bit: usize) -> String {
        if bit == self.state_bits() - 1 {
            "out".to_owned()
        } else {
            format!("count[{bit}]")
        }
    }

    fn state_value(&self) -> Option<u64> {
        Some(self.count << 1 | u64::from(self.out.is_high()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::sources::{ClockGen, ConstVector, Stimulus};
    use crate::{Netlist, Simulator};

    fn low() -> ConstVector {
        ConstVector::bit(Logic::Zero)
    }

    fn high() -> ConstVector {
        ConstVector::bit(Logic::One)
    }

    #[test]
    fn register_captures_on_rising_edge_only() {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let d = net.signal("d", 1);
        let q = net.signal("q", 1);
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("r", low(), &[], &[rst]);
        // d goes high at 7 ns (before the 5 ns edge has passed; next edge 15 ns).
        net.add(
            "stim",
            Stimulus::bits([(Time::ZERO, false), (Time::from_ns(7), true)]),
            &[],
            &[d],
        );
        net.add("ff", Register::new(1, Time::ZERO), &[clk, rst, d], &[q]);
        let mut sim = Simulator::new(net);
        sim.monitor(q);
        sim.run_until(Time::from_ns(30)).unwrap();
        let w = sim.trace().digital("q").unwrap();
        assert_eq!(w.value_at(Time::from_ns(10)), Logic::Zero); // captured 0 at 5 ns
        assert_eq!(w.value_at(Time::from_ns(16)), Logic::One); // captured 1 at 15 ns
    }

    #[test]
    fn register_reset_wins_over_data() {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let d = net.signal("d", 1);
        let q = net.signal("q", 1);
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("r", high(), &[], &[rst]);
        net.add("dv", high(), &[], &[d]);
        net.add("ff", Register::new(1, Time::ZERO), &[clk, rst, d], &[q]);
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_ns(50)).unwrap();
        assert_eq!(sim.value(q).to_u64(), Some(0));
    }

    #[test]
    fn register_seu_flip_propagates_immediately() {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let d = net.signal("d", 4);
        let q = net.signal("q", 4);
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("r", low(), &[], &[rst]);
        net.add(
            "dv",
            ConstVector::new(LogicVector::from_u64(0b0101, 4)),
            &[],
            &[d],
        );
        let ff = net.add("ff", Register::new(4, Time::ZERO), &[clk, rst, d], &[q]);
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_ns(12)).unwrap();
        assert_eq!(sim.value(q).to_u64(), Some(0b0101));
        // SEU on bit 1 between clock edges.
        sim.flip_state(ff, 1);
        sim.run_until(Time::from_ns(13)).unwrap();
        assert_eq!(sim.value(q).to_u64(), Some(0b0111));
        // Next edge re-captures d: the upset is overwritten.
        sim.run_until(Time::from_ns(16)).unwrap();
        assert_eq!(sim.value(q).to_u64(), Some(0b0101));
    }

    #[test]
    fn counter_counts_and_wraps() {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let en = net.signal("en", 1);
        let q = net.signal("q", 2);
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("r", low(), &[], &[rst]);
        net.add("e", high(), &[], &[en]);
        net.add("ctr", Counter::new(2, Time::ZERO), &[clk, rst, en], &[q]);
        let mut sim = Simulator::new(net);
        // Edges at 5, 15, 25, 35, 45 ns → count = 5 mod 4 = 1.
        sim.run_until(Time::from_ns(50)).unwrap();
        assert_eq!(sim.value(q).to_u64(), Some(1));
    }

    #[test]
    fn counter_disabled_holds() {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let en = net.signal("en", 1);
        let q = net.signal("q", 4);
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("r", low(), &[], &[rst]);
        net.add("e", low(), &[], &[en]);
        net.add("ctr", Counter::new(4, Time::ZERO), &[clk, rst, en], &[q]);
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_ns(100)).unwrap();
        assert_eq!(sim.value(q).to_u64(), Some(0));
    }

    #[test]
    fn counter_force_state_models_fsm_corruption() {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let en = net.signal("en", 1);
        let q = net.signal("q", 8);
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("r", low(), &[], &[rst]);
        net.add("e", high(), &[], &[en]);
        let ctr = net.add("ctr", Counter::new(8, Time::ZERO), &[clk, rst, en], &[q]);
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_ns(22)).unwrap();
        assert_eq!(sim.state_value(ctr), Some(2));
        sim.force_state(ctr, 200);
        sim.run_until(Time::from_ns(23)).unwrap();
        assert_eq!(sim.value(q).to_u64(), Some(200));
        // The next edge (25 ns) resumes counting from the corrupted value.
        sim.run_until(Time::from_ns(26)).unwrap();
        assert_eq!(sim.value(q).to_u64(), Some(201));
    }

    #[test]
    fn shift_register_shifts_serial_data() {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let din = net.signal("din", 1);
        let q = net.signal("q", 4);
        let sout = net.signal("sout", 1);
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        // Feed 1,0,1,1 on successive edges (edges at 5, 15, 25, 35 ns).
        net.add(
            "stim",
            Stimulus::bits([
                (Time::ZERO, true),
                (Time::from_ns(10), false),
                (Time::from_ns(20), true),
            ]),
            &[],
            &[din],
        );
        net.add("sr", ShiftReg::new(4, Time::ZERO), &[clk, din], &[q, sout]);
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_ns(40)).unwrap();
        // After edges capturing 1,0,1,1 the register holds (lsb first in) 1,1,0,1.
        assert_eq!(sim.value(q).to_u64(), Some(0b1011));
    }

    #[test]
    fn lfsr_cycles_through_nonzero_states() {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let q = net.signal("q", 4);
        // x^4 + x^3 + 1: taps at bits 3 and 2.
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("lfsr", Lfsr::new(4, 0b1100, 1, Time::ZERO), &[clk], &[q]);
        let mut sim = Simulator::new(net);
        let mut seen = std::collections::HashSet::new();
        for cycle in 1..=15 {
            sim.run_until(Time::from_ns(10 * cycle)).unwrap();
            let v = sim.value(q).to_u64().unwrap();
            assert_ne!(v, 0, "lfsr must never reach zero");
            seen.insert(v);
        }
        // Maximal-length 4-bit LFSR: 15 distinct states.
        assert_eq!(seen.len(), 15);
    }

    #[test]
    fn mutant_targets_cover_all_cells() {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let en = net.signal("en", 1);
        let q1 = net.signal("q1", 4);
        let q2 = net.signal("q2", 8);
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("r", low(), &[], &[rst]);
        net.add("e", high(), &[], &[en]);
        net.add("ctr", Counter::new(4, Time::ZERO), &[clk, rst, en], &[q1]);
        net.add(
            "lfsr",
            Lfsr::new(8, 0b10111000, 1, Time::ZERO),
            &[clk],
            &[q2],
        );
        let targets = net.mutant_targets();
        assert_eq!(targets.len(), 12);
        assert!(targets.iter().any(|t| t.label == "count[3]"));
        assert!(targets.iter().any(|t| t.label == "lfsr[7]"));
    }

    #[test]
    fn clock_divider_divides_by_n() {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let out = net.signal("out", 1);
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("div", ClockDivider::new(10, Time::ZERO), &[clk], &[out]);
        let mut sim = Simulator::new(net);
        sim.monitor(out);
        sim.run_until(Time::from_us(1)).unwrap();
        let w = sim.trace().digital("out").unwrap();
        let periods: Vec<_> = amsfi_waves::measure::periods(w)
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        assert!(!periods.is_empty());
        assert!(
            periods.iter().all(|&p| p == Time::from_ns(100)),
            "{periods:?}"
        );
    }

    #[test]
    fn clock_divider_rejects_odd_ratio() {
        let r = std::panic::catch_unwind(|| ClockDivider::new(3, Time::ZERO));
        assert!(r.is_err());
    }

    #[test]
    fn latch_transparent_then_holds() {
        let mut net = Netlist::new();
        let en = net.signal("en", 1);
        let d = net.signal("d", 1);
        let q = net.signal("q", 1);
        net.add(
            "en_stim",
            Stimulus::bits([(Time::ZERO, true), (Time::from_ns(20), false)]),
            &[],
            &[en],
        );
        net.add(
            "d_stim",
            Stimulus::bits([
                (Time::ZERO, false),
                (Time::from_ns(10), true),
                (Time::from_ns(30), false),
            ]),
            &[],
            &[d],
        );
        net.add("lat", Latch::new(1, Time::ZERO), &[en, d], &[q]);
        let mut sim = Simulator::new(net);
        sim.monitor(q);
        sim.run_until(Time::from_ns(50)).unwrap();
        let w = sim.trace().digital("q").unwrap();
        // Transparent: follows d.
        assert_eq!(w.value_at(Time::from_ns(5)), Logic::Zero);
        assert_eq!(w.value_at(Time::from_ns(15)), Logic::One);
        // Holding from 20 ns: ignores d falling at 30 ns.
        assert_eq!(w.value_at(Time::from_ns(40)), Logic::One);
    }

    #[test]
    fn latch_seu_persists_only_while_holding() {
        let mut net = Netlist::new();
        let en = net.signal("en", 1);
        let d = net.signal("d", 1);
        let q = net.signal("q", 1);
        net.add(
            "en_stim",
            Stimulus::bits([
                (Time::ZERO, true), // capture the initial 0
                (Time::from_ns(5), false),
                (Time::from_ns(50), true),
                (Time::from_ns(60), false),
            ]),
            &[],
            &[en],
        );
        net.add("d0", ConstVector::bit(Logic::Zero), &[], &[d]);
        let lat = net.add("lat", Latch::new(1, Time::ZERO), &[en, d], &[q]);
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_ns(10)).unwrap();
        // Holding phase: the upset persists...
        sim.flip_state(lat, 0);
        sim.run_until(Time::from_ns(40)).unwrap();
        assert_eq!(sim.value(q).to_u64(), Some(1));
        // ...until the transparent phase re-captures d = 0.
        sim.run_until(Time::from_ns(55)).unwrap();
        assert_eq!(sim.value(q).to_u64(), Some(0));
    }
}
