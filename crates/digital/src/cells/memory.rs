//! A synchronous single-port RAM.
//!
//! Memories are the densest SEU targets in a real circuit; every stored bit
//! is exposed through the mutant hooks.

use crate::component::{Component, EvalContext};
use crate::netlist::PortSpec;
use amsfi_waves::{Logic, LogicVector, Time};

/// A synchronous-read, synchronous-write single-port RAM.
///
/// Ports: `clk`, `we`, `addr[addr_width]`, `din[data_width]` →
/// `dout[data_width]`.
///
/// On each rising clock edge: if `we` is high the addressed word is written
/// from `din`; `dout` always presents the addressed word *after* the edge
/// (write-first behaviour). A metalogical address leaves the array untouched
/// and reads all-`X`.
#[derive(Debug, Clone)]
pub struct Ram {
    addr_width: usize,
    data_width: usize,
    delay: Time,
    words: Vec<LogicVector>,
    dout: LogicVector,
    prev_clk: Logic,
}

impl Ram {
    /// Creates a zero-initialised RAM with `2^addr_width` words of
    /// `data_width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `addr_width` is not in `1..=20` (a million words is the
    /// sensible ceiling for behavioural simulation) or `data_width` is zero.
    pub fn new(addr_width: usize, data_width: usize, delay: Time) -> Self {
        assert!(
            (1..=20).contains(&addr_width),
            "addr width must be in 1..=20"
        );
        assert!(data_width > 0, "data width must be nonzero");
        Ram {
            addr_width,
            data_width,
            delay,
            words: vec![LogicVector::zeros(data_width); 1 << addr_width],
            dout: LogicVector::new(data_width),
            prev_clk: Logic::Uninitialized,
        }
    }

    /// Pre-loads word `addr` (for test benches).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range or the value has the wrong width.
    pub fn preload(&mut self, addr: usize, value: LogicVector) {
        assert_eq!(value.width(), self.data_width, "preload width mismatch");
        self.words[addr] = value;
    }

    /// The number of stored words.
    pub fn depth(&self) -> usize {
        self.words.len()
    }
}

impl Component for Ram {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let clk = ctx.input_bit(0);
        if !self.prev_clk.is_high() && clk.is_high() {
            match ctx.input(2).to_u64() {
                Some(addr) => {
                    let addr = addr as usize;
                    if ctx.input_bit(1).is_high() {
                        self.words[addr].clone_from(ctx.input(3));
                    }
                    self.dout.clone_from(&self.words[addr]);
                }
                None => {
                    self.dout.assign_filled(Logic::Unknown, self.data_width);
                }
            }
        }
        self.prev_clk = clk;
        ctx.drive(0, &self.dout, self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(
            &[
                ("clk", 1),
                ("we", 1),
                ("addr", self.addr_width),
                ("din", self.data_width),
            ],
            &[("dout", self.data_width)],
        )
    }

    fn state_bits(&self) -> usize {
        self.words.len() * self.data_width
    }

    fn flip_state_bit(&mut self, bit: usize) {
        let word = bit / self.data_width;
        let offset = bit % self.data_width;
        self.words[word].flip_bit(offset);
        // The visible output only changes if the flipped word is currently
        // addressed; re-present it on the next read.
    }

    fn state_label(&self, bit: usize) -> String {
        format!("mem[{}][{}]", bit / self.data_width, bit % self.data_width)
    }

    fn state_value(&self) -> Option<u64> {
        None // the array does not fit a u64; latent detection uses the trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::sources::{ClockGen, ConstVector, Stimulus};
    use crate::{Netlist, Simulator};

    fn ram_bench(stim_we: Stimulus, stim_addr: Stimulus, stim_din: Stimulus) -> Simulator {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let we = net.signal("we", 1);
        let addr = net.signal("addr", 2);
        let din = net.signal("din", 4);
        let dout = net.signal("dout", 4);
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("swe", stim_we, &[], &[we]);
        net.add("saddr", stim_addr, &[], &[addr]);
        net.add("sdin", stim_din, &[], &[din]);
        net.add(
            "ram",
            Ram::new(2, 4, Time::ZERO),
            &[clk, we, addr, din],
            &[dout],
        );
        Simulator::new(net)
    }

    fn vec4(v: u64) -> LogicVector {
        LogicVector::from_u64(v, 4)
    }

    fn vec2(v: u64) -> LogicVector {
        LogicVector::from_u64(v, 2)
    }

    #[test]
    fn write_then_read_back() {
        // Edge at 5 ns writes 0xA to addr 1; edge at 15 ns reads addr 1.
        let mut sim = ram_bench(
            Stimulus::bits([(Time::ZERO, true), (Time::from_ns(10), false)]),
            Stimulus::new([(Time::ZERO, vec2(1))]),
            Stimulus::new([(Time::ZERO, vec4(0xA))]),
        );
        let dout = sim.signal_id("dout").unwrap();
        sim.run_until(Time::from_ns(8)).unwrap();
        assert_eq!(sim.value(dout).to_u64(), Some(0xA)); // write-first
        sim.run_until(Time::from_ns(18)).unwrap();
        assert_eq!(sim.value(dout).to_u64(), Some(0xA));
    }

    #[test]
    fn unwritten_words_read_zero() {
        let mut sim = ram_bench(
            Stimulus::bits([(Time::ZERO, false)]),
            Stimulus::new([(Time::ZERO, vec2(3))]),
            Stimulus::new([(Time::ZERO, vec4(0xF))]),
        );
        let dout = sim.signal_id("dout").unwrap();
        sim.run_until(Time::from_ns(8)).unwrap();
        assert_eq!(sim.value(dout).to_u64(), Some(0));
    }

    #[test]
    fn seu_in_stored_word_corrupts_later_read() {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let we = net.signal("we", 1);
        let addr = net.signal("addr", 2);
        let din = net.signal("din", 4);
        let dout = net.signal("dout", 4);
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("swe", ConstVector::bit(Logic::Zero), &[], &[we]);
        net.add("saddr", ConstVector::new(vec2(2)), &[], &[addr]);
        net.add("sdin", ConstVector::new(vec4(0)), &[], &[din]);
        let mut ram = Ram::new(2, 4, Time::ZERO);
        ram.preload(2, vec4(0b0101));
        let ram_id = net.add("ram", ram, &[clk, we, addr, din], &[dout]);
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_ns(8)).unwrap();
        assert_eq!(sim.value(dout).to_u64(), Some(0b0101));
        // Flip bit 1 of word 2 (state bit index 2*4 + 1 = 9).
        sim.flip_state(ram_id, 9);
        // Visible only after the next read edge.
        sim.run_until(Time::from_ns(18)).unwrap();
        assert_eq!(sim.value(dout).to_u64(), Some(0b0111));
    }

    #[test]
    fn state_bits_and_labels_cover_array() {
        let ram = Ram::new(2, 4, Time::ZERO);
        assert_eq!(ram.state_bits(), 16);
        assert_eq!(ram.state_label(9), "mem[2][1]");
        assert_eq!(ram.depth(), 4);
    }
}
