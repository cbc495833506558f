//! A synchronous FIFO queue.
//!
//! Queues concentrate two distinct SEU surfaces in one cell: the stored
//! words (data corruption) and the read/write pointers (re-ordering, loss or
//! duplication of *whole words*) — the pointer bits are usually the ones
//! worth protecting.

use crate::component::{Component, EvalContext};
use crate::netlist::PortSpec;
use amsfi_waves::{Logic, LogicVector, Time};

/// A synchronous single-clock FIFO with `2^addr_width` entries of
/// `data_width` bits.
///
/// Ports: `clk`, `rst`, `wr_en`, `din[data_width]`, `rd_en` →
/// `dout[data_width]`, `empty`, `full`.
///
/// On each rising clock edge: a write (when `wr_en` and not full) stores
/// `din`; a read (when `rd_en` and not empty) pops the oldest word onto
/// `dout`. Simultaneous read and write are allowed. `rst` (synchronous)
/// clears the pointers but not the array.
#[derive(Debug, Clone)]
pub struct Fifo {
    addr_width: usize,
    data_width: usize,
    delay: Time,
    words: Vec<LogicVector>,
    rd: u64,
    wr: u64,
    count: u64,
    dout: LogicVector,
    prev_clk: Logic,
}

impl Fifo {
    /// Creates a FIFO with `2^addr_width` entries of `data_width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `addr_width` is not in `1..=16` or `data_width` is zero.
    pub fn new(addr_width: usize, data_width: usize, delay: Time) -> Self {
        assert!(
            (1..=16).contains(&addr_width),
            "addr width must be in 1..=16"
        );
        assert!(data_width > 0, "data width must be nonzero");
        Fifo {
            addr_width,
            data_width,
            delay,
            words: vec![LogicVector::zeros(data_width); 1 << addr_width],
            rd: 0,
            wr: 0,
            count: 0,
            dout: LogicVector::new(data_width),
            prev_clk: Logic::Uninitialized,
        }
    }

    /// The capacity in words.
    pub fn depth(&self) -> usize {
        self.words.len()
    }

    fn mask(&self) -> u64 {
        (1 << self.addr_width) - 1
    }
}

impl Component for Fifo {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let clk = ctx.input_bit(0);
        if !self.prev_clk.is_high() && clk.is_high() {
            if ctx.input_bit(1).is_high() {
                self.rd = 0;
                self.wr = 0;
                self.count = 0;
            } else {
                let full = self.count as usize == self.depth();
                let empty = self.count == 0;
                let do_write = ctx.input_bit(2).is_high() && !full;
                let do_read = ctx.input_bit(4).is_high() && !empty;
                if do_write {
                    self.words[self.wr as usize].clone_from(ctx.input(3));
                    self.wr = (self.wr + 1) & self.mask();
                    self.count += 1;
                }
                if do_read {
                    self.dout.clone_from(&self.words[self.rd as usize]);
                    self.rd = (self.rd + 1) & self.mask();
                    self.count -= 1;
                }
            }
        }
        self.prev_clk = clk;
        ctx.drive(0, &self.dout, self.delay);
        ctx.drive_bit(1, Logic::from_bool(self.count == 0), self.delay);
        ctx.drive_bit(
            2,
            Logic::from_bool(self.count as usize == self.depth()),
            self.delay,
        );
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(
            &[
                ("clk", 1),
                ("rst", 1),
                ("wr_en", 1),
                ("din", self.data_width),
                ("rd_en", 1),
            ],
            &[("dout", self.data_width), ("empty", 1), ("full", 1)],
        )
    }

    fn state_bits(&self) -> usize {
        // Stored words, then the read pointer, then the write pointer.
        self.depth() * self.data_width + 2 * self.addr_width
    }

    fn flip_state_bit(&mut self, bit: usize) {
        let mem_bits = self.depth() * self.data_width;
        if bit < mem_bits {
            self.words[bit / self.data_width].flip_bit(bit % self.data_width);
        } else if bit < mem_bits + self.addr_width {
            self.rd ^= 1 << (bit - mem_bits);
            // A pointer flip can make count inconsistent; a real FIFO's
            // occupancy logic derives from the pointers, so re-derive.
            self.count = (self.wr.wrapping_sub(self.rd)) & self.mask();
        } else {
            self.wr ^= 1 << (bit - mem_bits - self.addr_width);
            self.count = (self.wr.wrapping_sub(self.rd)) & self.mask();
        }
    }

    fn state_label(&self, bit: usize) -> String {
        let mem_bits = self.depth() * self.data_width;
        if bit < mem_bits {
            format!("mem[{}][{}]", bit / self.data_width, bit % self.data_width)
        } else if bit < mem_bits + self.addr_width {
            format!("rd_ptr[{}]", bit - mem_bits)
        } else {
            format!("wr_ptr[{}]", bit - mem_bits - self.addr_width)
        }
    }

    fn state_value(&self) -> Option<u64> {
        Some(self.rd | self.wr << self.addr_width | self.count << (2 * self.addr_width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{ClockGen, ConstVector, Stimulus};
    use crate::{Netlist, Simulator};

    /// Writes 4 words (edges at 5..35 ns), then reads 4 words (45..75 ns).
    fn fifo_bench() -> (Simulator, crate::ComponentId) {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let wr = net.signal("wr", 1);
        let din = net.signal("din", 8);
        let rd = net.signal("rd", 1);
        let dout = net.signal("dout", 8);
        let empty = net.signal("empty", 1);
        let full = net.signal("full", 1);
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("r", ConstVector::bit(Logic::Zero), &[], &[rst]);
        net.add(
            "wr_stim",
            Stimulus::bits([(Time::ZERO, true), (Time::from_ns(40), false)]),
            &[],
            &[wr],
        );
        // din counts 0x10, 0x11, ... at each write edge.
        net.add(
            "din_stim",
            Stimulus::new((0..6).map(|i| {
                (
                    Time::from_ns(10 * i),
                    LogicVector::from_u64(0x10 + i as u64, 8),
                )
            })),
            &[],
            &[din],
        );
        net.add(
            "rd_stim",
            Stimulus::bits([(Time::ZERO, false), (Time::from_ns(40), true)]),
            &[],
            &[rd],
        );
        let fifo = net.add(
            "fifo",
            Fifo::new(2, 8, Time::ZERO),
            &[clk, rst, wr, din, rd],
            &[dout, empty, full],
        );
        let mut sim = Simulator::new(net);
        sim.monitor(dout);
        (sim, fifo)
    }

    #[test]
    fn fifo_is_first_in_first_out() {
        let (mut sim, _) = fifo_bench();
        let dout = sim.signal_id("dout").unwrap();
        // Reads happen at edges 45, 55, 65, 75 ns, popping 0x10..0x13.
        for (t_ns, expect) in [(46i64, 0x10u64), (56, 0x11), (66, 0x12), (76, 0x13)] {
            sim.run_until(Time::from_ns(t_ns)).unwrap();
            assert_eq!(sim.value(dout).to_u64(), Some(expect), "at {t_ns} ns");
        }
    }

    #[test]
    fn flags_track_occupancy() {
        let (mut sim, _) = fifo_bench();
        let empty = sim.signal_id("empty").unwrap();
        let full = sim.signal_id("full").unwrap();
        sim.run_until(Time::from_ns(2)).unwrap();
        assert_eq!(sim.value(empty)[0], Logic::One);
        // After 4 writes (depth 4) the FIFO is full.
        sim.run_until(Time::from_ns(36)).unwrap();
        assert_eq!(sim.value(full)[0], Logic::One);
        // After 4 reads it is empty again.
        sim.run_until(Time::from_ns(80)).unwrap();
        assert_eq!(sim.value(empty)[0], Logic::One);
    }

    #[test]
    fn pointer_seu_reorders_the_stream() {
        let (mut sim, fifo) = fifo_bench();
        let dout = sim.signal_id("dout").unwrap();
        sim.run_until(Time::from_ns(40)).unwrap(); // 4 words queued
                                                   // Flip read-pointer bit 1: rd 0 -> 2, so reads start at word 2.
        sim.flip_state(fifo, 4 * 8 + 1);
        sim.run_until(Time::from_ns(46)).unwrap();
        assert_eq!(sim.value(dout).to_u64(), Some(0x12), "stream reordered");
    }

    #[test]
    fn stored_word_seu_corrupts_exactly_that_word() {
        let (mut sim, fifo) = fifo_bench();
        let dout = sim.signal_id("dout").unwrap();
        sim.run_until(Time::from_ns(40)).unwrap();
        // Flip bit 3 of stored word 1.
        sim.flip_state(fifo, 8 + 3);
        sim.run_until(Time::from_ns(46)).unwrap();
        assert_eq!(sim.value(dout).to_u64(), Some(0x10), "word 0 clean");
        sim.run_until(Time::from_ns(56)).unwrap();
        assert_eq!(sim.value(dout).to_u64(), Some(0x11 ^ 0b1000), "word 1 hit");
        sim.run_until(Time::from_ns(66)).unwrap();
        assert_eq!(sim.value(dout).to_u64(), Some(0x12), "word 2 clean");
    }

    #[test]
    fn labels_distinguish_memory_and_pointers() {
        let f = Fifo::new(2, 8, Time::ZERO);
        assert_eq!(f.state_bits(), 4 * 8 + 4);
        assert_eq!(f.state_label(0), "mem[0][0]");
        assert_eq!(f.state_label(32), "rd_ptr[0]");
        assert_eq!(f.state_label(35), "wr_ptr[1]");
        assert_eq!(f.depth(), 4);
    }
}
