//! A tiny accumulator processor: the "processor-based architecture" case
//! study of the paper's reference \[2\] (Cardarilli et al., *Bit-flip
//! injection in processor-based architectures*).
//!
//! Eight instructions, an 8-bit accumulator, a 16-byte data RAM and a small
//! program ROM — enough microarchitectural state (accumulator, program
//! counter, flags, memory) for SEU campaigns to exhibit the full verdict
//! spectrum: masked upsets in dead values, transients that the program
//! overwrites, and failures that corrupt the output stream.

use amsfi_digital::{Component, EvalContext, PortSpec, WordComponent, WordEvalContext};
use amsfi_waves::{Logic, LogicPlanes, Time};
use std::fmt;

/// One instruction of the tiny ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `acc <- imm`.
    Ldi(u8),
    /// `acc <- ram[addr]`.
    Lda(u8),
    /// `ram[addr] <- acc`.
    Sta(u8),
    /// `acc <- acc + ram[addr]` (wrapping).
    Add(u8),
    /// `acc <- acc - ram[addr]` (wrapping).
    Sub(u8),
    /// `pc <- addr`.
    Jmp(u8),
    /// `pc <- addr` when the last ALU result was nonzero.
    Jnz(u8),
    /// Drive the output port with `acc`.
    Out,
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Insn::Ldi(v) => write!(f, "LDI {v:#04x}"),
            Insn::Lda(a) => write!(f, "LDA [{a}]"),
            Insn::Sta(a) => write!(f, "STA [{a}]"),
            Insn::Add(a) => write!(f, "ADD [{a}]"),
            Insn::Sub(a) => write!(f, "SUB [{a}]"),
            Insn::Jmp(a) => write!(f, "JMP {a}"),
            Insn::Jnz(a) => write!(f, "JNZ {a}"),
            Insn::Out => write!(f, "OUT"),
        }
    }
}

const RAM_SIZE: usize = 16;
const PC_BITS: usize = 6; // up to 64 instructions

/// The processor component.
///
/// Ports: `clk`, `rst` → `out[8]`, `pc[6]`. One instruction executes per
/// rising clock edge; `rst` (synchronous) restarts the program and clears
/// the architectural state (the RAM keeps its contents, like a real SRAM).
///
/// Mutant surface (in order): accumulator bits, program-counter bits, the
/// zero flag, then every RAM bit.
#[derive(Debug, Clone)]
pub struct TinyCpu {
    program: Vec<Insn>,
    delay: Time,
    acc: u8,
    pc: u8,
    nonzero: bool,
    ram: [u8; RAM_SIZE],
    out: u8,
    prev_clk: Logic,
}

impl TinyCpu {
    /// Creates a processor executing `program` (looped via explicit jumps).
    ///
    /// # Panics
    ///
    /// Panics if the program is empty, longer than 64 instructions, or
    /// addresses RAM beyond 16 bytes / jumps beyond its own length.
    pub fn new(program: Vec<Insn>, delay: Time) -> Self {
        assert!(
            !program.is_empty() && program.len() <= 1 << PC_BITS,
            "program must have 1..=64 instructions"
        );
        for (i, insn) in program.iter().enumerate() {
            match *insn {
                Insn::Lda(a) | Insn::Sta(a) | Insn::Add(a) | Insn::Sub(a) => {
                    assert!(
                        (a as usize) < RAM_SIZE,
                        "insn {i}: RAM address {a} out of range"
                    );
                }
                Insn::Jmp(a) | Insn::Jnz(a) => {
                    assert!(
                        (a as usize) < program.len(),
                        "insn {i}: jump target {a} out of range"
                    );
                }
                Insn::Ldi(_) | Insn::Out => {}
            }
        }
        TinyCpu {
            program,
            delay,
            acc: 0,
            pc: 0,
            nonzero: false,
            ram: [0; RAM_SIZE],
            out: 0,
            prev_clk: Logic::Uninitialized,
        }
    }

    /// The loaded program.
    pub fn program(&self) -> &[Insn] {
        &self.program
    }

    fn execute_one(&mut self) {
        let insn = self.program[self.pc as usize % self.program.len()];
        let mut next_pc = self.pc.wrapping_add(1);
        if next_pc as usize >= self.program.len() {
            next_pc = 0;
        }
        match insn {
            Insn::Ldi(v) => {
                self.acc = v;
                self.nonzero = v != 0;
            }
            Insn::Lda(a) => {
                self.acc = self.ram[a as usize];
                self.nonzero = self.acc != 0;
            }
            Insn::Sta(a) => self.ram[a as usize] = self.acc,
            Insn::Add(a) => {
                self.acc = self.acc.wrapping_add(self.ram[a as usize]);
                self.nonzero = self.acc != 0;
            }
            Insn::Sub(a) => {
                self.acc = self.acc.wrapping_sub(self.ram[a as usize]);
                self.nonzero = self.acc != 0;
            }
            Insn::Jmp(a) => next_pc = a,
            Insn::Jnz(a) => {
                if self.nonzero {
                    next_pc = a;
                }
            }
            Insn::Out => self.out = self.acc,
        }
        self.pc = next_pc;
    }
}

impl Component for TinyCpu {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let clk = ctx.input_bit(0);
        if !self.prev_clk.is_high() && clk.is_high() {
            if ctx.input_bit(1).is_high() {
                self.acc = 0;
                self.pc = 0;
                self.nonzero = false;
                self.out = 0;
            } else {
                self.execute_one();
            }
        }
        self.prev_clk = clk;
        ctx.drive_u64(0, self.out as u64, 8, self.delay);
        ctx.drive_u64(1, self.pc as u64, PC_BITS, self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[("clk", 1), ("rst", 1)], &[("out", 8), ("pc", PC_BITS)])
    }

    fn state_bits(&self) -> usize {
        8 + PC_BITS + 1 + RAM_SIZE * 8
    }

    fn flip_state_bit(&mut self, bit: usize) {
        if bit < 8 {
            self.acc ^= 1 << bit;
        } else if bit < 8 + PC_BITS {
            self.pc ^= 1 << (bit - 8);
        } else if bit == 8 + PC_BITS {
            self.nonzero = !self.nonzero;
        } else {
            let b = bit - 8 - PC_BITS - 1;
            self.ram[b / 8] ^= 1 << (b % 8);
        }
    }

    /// A RAM word no instruction loads (`read_words`) only ever gets
    /// overwritten. The re-evaluation an upset schedules re-drives `out`
    /// and `pc` with what they hold; zero-delay, that changes nothing, but
    /// a delayed drive would cancel one still pending from the last clock
    /// edge, so with a delay every bit counts as read.
    fn state_bit_is_read(&self, bit: usize) -> bool {
        let Some(ram_bit) = bit.checked_sub(8 + PC_BITS + 1) else {
            return true;
        };
        self.delay > Time::ZERO || read_words(&self.program) >> (ram_bit / 8) & 1 == 1
    }

    fn state_label(&self, bit: usize) -> String {
        if bit < 8 {
            format!("acc[{bit}]")
        } else if bit < 8 + PC_BITS {
            format!("pc[{}]", bit - 8)
        } else if bit == 8 + PC_BITS {
            "flag_nz".to_owned()
        } else {
            let b = bit - 8 - PC_BITS - 1;
            format!("ram[{}][{}]", b / 8, b % 8)
        }
    }

    fn force_state(&mut self, value: u64) {
        self.pc = (value as u8) % self.program.len() as u8;
    }

    fn state_value(&self) -> Option<u64> {
        Some(self.acc as u64 | (self.pc as u64) << 8 | (self.nonzero as u64) << 14)
    }

    fn word_component(&self) -> Option<Box<dyn WordComponent>> {
        Some(Box::new(WordTinyCpu {
            read_words: read_words(&self.program),
            program: self.program.clone(),
            delay: self.delay,
            acc: splat(self.acc),
            pc: splat(self.pc),
            nonzero: if self.nonzero { u64::MAX } else { 0 },
            ram: self.ram.map(splat),
            out: splat(self.out),
            prev_clk: LogicPlanes::splat(self.prev_clk),
        }))
    }
}

/// The RAM words some instruction of `program` reads, one bit per address.
/// Any instruction may execute (an upset `pc` can land anywhere), so every
/// one counts, reachable from reset or not.
fn read_words(program: &[Insn]) -> u16 {
    program.iter().fold(0, |words, insn| match *insn {
        Insn::Lda(a) | Insn::Add(a) | Insn::Sub(a) => words | 1 << a,
        Insn::Ldi(_) | Insn::Sta(_) | Insn::Jmp(_) | Insn::Jnz(_) | Insn::Out => words,
    })
}

/// One 8-bit register of all 64 lanes, bit-sliced: bit `lane` of plane `b`
/// is bit `b` of that lane's value.
type Planes = [u64; 8];

/// Every lane holding `value`.
fn splat(value: u8) -> Planes {
    std::array::from_fn(|b| if (value >> b) & 1 == 1 { u64::MAX } else { 0 })
}

/// Lanes of `mask` take `value`, the others keep theirs.
fn blend(reg: &mut Planes, mask: u64, value: &Planes) {
    for (r, v) in reg.iter_mut().zip(value) {
        *r = (*r & !mask) | (v & mask);
    }
}

/// `x + y + carry_in` per lane, wrapping: a ripple-carry adder over the
/// planes. Subtraction is the same adder on `!y` with the carry set
/// (`x - y = x + !y + 1` in two's complement), so no borrow chain exists.
fn add(x: &Planes, y: &Planes, carry_in: u64) -> Planes {
    let mut carry = carry_in;
    std::array::from_fn(|b| {
        let half = x[b] ^ y[b];
        let sum = half ^ carry;
        carry = (x[b] & y[b]) | (carry & half);
        sum
    })
}

/// Lanes whose value is not zero.
fn any(reg: &Planes) -> u64 {
    reg.iter().fold(0, |m, p| m | p)
}

/// One lane's value.
fn lane_value(reg: &Planes, lane: usize) -> u8 {
    reg.iter()
        .enumerate()
        .fold(0, |v, (b, p)| v | (((p >> lane) & 1) as u8) << b)
}

/// Lanes whose bit differs from lane `reference`'s.
fn bit_differs(plane: u64, reference: usize) -> u64 {
    plane ^ 0u64.wrapping_sub((plane >> reference) & 1)
}

/// Lanes whose value differs from lane `reference`'s.
fn differs(reg: &Planes, reference: usize) -> u64 {
    reg.iter().fold(0, |m, &p| m | bit_differs(p, reference))
}

/// The word-parallel (64-lane) processor, bit-sliced: a lane is a bit of
/// every state plane, the program ROM is shared.
///
/// A rising edge peels the executing lanes into groups of equal `pc`. A
/// group shares its instruction, so that is fetched and decoded once and
/// applied to the whole group as mask-blended plane arithmetic; the cost of
/// an edge follows the number of distinct `pc`s among the lanes, not the
/// number of lanes. Both ports are driven on every evaluation, straight
/// from the state planes.
#[derive(Clone)]
struct WordTinyCpu {
    program: Vec<Insn>,
    /// [`read_words`] of `program`: the RAM words whose value has a future.
    read_words: u16,
    delay: Time,
    acc: Planes,
    /// Planes `PC_BITS..` stay zero, as the scalar `pc: u8` stays below 64.
    pc: Planes,
    nonzero: u64,
    ram: [Planes; RAM_SIZE],
    out: Planes,
    prev_clk: LogicPlanes,
}

impl fmt::Debug for WordTinyCpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WordTinyCpu")
            .field("program", &self.program.len())
            .field("delay", &self.delay)
            .finish_non_exhaustive()
    }
}

impl WordTinyCpu {
    /// Mirrors [`TinyCpu::execute_one`] for the lanes of `group`, which all
    /// hold `pc`.
    fn execute_group(&mut self, group: u64, pc: u8) {
        let insn = self.program[pc as usize % self.program.len()];
        let mut next_pc = pc.wrapping_add(1);
        if next_pc as usize >= self.program.len() {
            next_pc = 0;
        }
        // The lanes of the group that leave the straight line, and where to.
        let (mut taken, mut target) = (0, 0);
        match insn {
            Insn::Ldi(v) => self.load(group, splat(v)),
            Insn::Lda(a) => self.load(group, self.ram[a as usize]),
            Insn::Sta(a) => blend(&mut self.ram[a as usize], group, &self.acc),
            Insn::Add(a) => self.load(group, add(&self.acc, &self.ram[a as usize], 0)),
            Insn::Sub(a) => {
                let negated = self.ram[a as usize].map(|p| !p);
                self.load(group, add(&self.acc, &negated, u64::MAX));
            }
            Insn::Jmp(a) => (taken, target) = (group, a),
            Insn::Jnz(a) => (taken, target) = (group & self.nonzero, a),
            Insn::Out => blend(&mut self.out, group, &self.acc),
        }
        blend(&mut self.pc, group, &splat(next_pc));
        blend(&mut self.pc, taken, &splat(target));
    }

    /// `acc <- value` with the flag update every loaded value carries.
    fn load(&mut self, group: u64, value: Planes) {
        blend(&mut self.acc, group, &value);
        self.nonzero = (self.nonzero & !group) | (any(&value) & group);
    }
}

impl WordComponent for WordTinyCpu {
    fn eval(&mut self, ctx: &mut WordEvalContext<'_>) {
        let clk = ctx.input_bit(0);
        let rst = ctx.input_bit(1);
        let mask = ctx.eval_mask();
        let rising = mask & !self.prev_clk.is_high_mask() & clk.is_high_mask();
        if rising != 0 {
            let reset = rising & rst.is_high_mask();
            if reset != 0 {
                let zero = splat(0);
                blend(&mut self.acc, reset, &zero);
                blend(&mut self.pc, reset, &zero);
                blend(&mut self.out, reset, &zero);
                self.nonzero &= !reset;
            }
            let mut exec = rising & !reset;
            while exec != 0 {
                let lane = exec.trailing_zeros() as usize;
                let group = exec & !differs(&self.pc, lane);
                exec &= !group;
                self.execute_group(group, lane_value(&self.pc, lane));
            }
        }
        self.prev_clk = self.prev_clk.select(mask, clk);
        ctx.drive(0, &self.out.map(LogicPlanes::from_bool_mask), self.delay);
        let pc = self.pc.map(LogicPlanes::from_bool_mask);
        ctx.drive(1, &pc[..PC_BITS], self.delay);
    }

    fn flip_state_bit(&mut self, lane: usize, bit: usize) {
        let plane = if bit < 8 {
            &mut self.acc[bit]
        } else if bit < 8 + PC_BITS {
            &mut self.pc[bit - 8]
        } else if bit == 8 + PC_BITS {
            &mut self.nonzero
        } else {
            let b = bit - 8 - PC_BITS - 1;
            &mut self.ram[b / 8][b % 8]
        };
        *plane ^= 1 << lane;
    }

    fn force_state(&mut self, lane: usize, value: u64) {
        let pc = (value as u8) % self.program.len() as u8;
        blend(&mut self.pc, 1 << lane, &splat(pc));
    }

    /// Compares everything a later evaluation reads: the registers, the
    /// clock level and the RAM words of [`read_words`]. A word no
    /// instruction reads only ever gets overwritten, so lanes differing
    /// there alone have the same future.
    fn lanes_equal_to(&mut self, reference: usize, candidates: u64) -> u64 {
        let clk = self.prev_clk;
        let mut unequal =
            clk.diverged_mask(clk.broadcast_lane(reference)) | bit_differs(self.nonzero, reference);
        let read_ram = (self.ram.iter().enumerate())
            .filter(|&(a, _)| self.read_words >> a & 1 == 1)
            .map(|(_, word)| word);
        for reg in [&self.acc, &self.pc, &self.out].into_iter().chain(read_ram) {
            unequal |= differs(reg, reference);
        }
        candidates & !unequal
    }
}

/// A self-checking benchmark program: a counter-mixed checksum over a RAM
/// table.
///
/// The program initialises `ram[0..=3]` with constants and keeps a loop
/// counter in `ram[4]`; every iteration emits `counter + Σ table` on `out`
/// — a deterministic stream with period 256 in which any upset of the live
/// architectural state (table entries, counter, accumulator in flight,
/// program counter) shows up quickly, while upsets in the unused RAM words
/// `5..=15` stay invisible (masked).
pub fn checksum_program() -> Vec<Insn> {
    vec![
        // init table and counter
        Insn::Ldi(0x11),
        Insn::Sta(0),
        Insn::Ldi(0x22),
        Insn::Sta(1),
        Insn::Ldi(0x33),
        Insn::Sta(2),
        Insn::Ldi(0x44),
        Insn::Sta(3),
        Insn::Ldi(0),
        Insn::Sta(4),
        // loop (pc = 10): counter += 1
        Insn::Ldi(1),
        Insn::Add(4),
        Insn::Sta(4),
        // acc = counter + table sum
        Insn::Add(0),
        Insn::Add(1),
        Insn::Add(2),
        Insn::Add(3),
        Insn::Out,
        // exercise the flag path: counter wrap takes the JMP leg
        Insn::Lda(4),
        Insn::Jnz(10),
        Insn::Jmp(10),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use amsfi_digital::{cells, Netlist, Simulator};
    use amsfi_waves::LANES;

    fn cpu_bench(program: Vec<Insn>) -> (Simulator, amsfi_digital::ComponentId) {
        delayed_cpu_bench(program, Time::ZERO)
    }

    fn delayed_cpu_bench(
        program: Vec<Insn>,
        delay: Time,
    ) -> (Simulator, amsfi_digital::ComponentId) {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let out = net.signal("out", 8);
        let pc = net.signal("pc", 6);
        net.add("ck", cells::ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
        let cpu = net.add("cpu", TinyCpu::new(program, delay), &[clk, rst], &[out, pc]);
        let mut sim = Simulator::new(net);
        sim.monitor_name("out");
        (sim, cpu)
    }

    #[test]
    fn checksum_program_matches_reference_interpreter() {
        let program = checksum_program();
        let (mut sim, _) = cpu_bench(program.clone());
        let out_sig = sim.signal_id("out").unwrap();
        // Reference: the out register after each executed instruction.
        let mut reference = Vec::new();
        {
            let mut acc = 0u8;
            let mut pc = 0usize;
            let mut nz = false;
            let mut ram = [0u8; RAM_SIZE];
            let mut out = 0u8;
            for _ in 0..200 {
                let insn = program[pc];
                let mut next = (pc + 1) % program.len();
                match insn {
                    Insn::Ldi(v) => {
                        acc = v;
                        nz = v != 0;
                    }
                    Insn::Lda(a) => {
                        acc = ram[a as usize];
                        nz = acc != 0;
                    }
                    Insn::Sta(a) => ram[a as usize] = acc,
                    Insn::Add(a) => {
                        acc = acc.wrapping_add(ram[a as usize]);
                        nz = acc != 0;
                    }
                    Insn::Sub(a) => {
                        acc = acc.wrapping_sub(ram[a as usize]);
                        nz = acc != 0;
                    }
                    Insn::Jmp(a) => next = a as usize,
                    Insn::Jnz(a) => {
                        if nz {
                            next = a as usize;
                        }
                    }
                    Insn::Out => out = acc,
                }
                pc = next;
                reference.push(out);
            }
        }
        // Edges at 5, 15, ... ns: sample 1 ns after each edge.
        for (k, &expect) in reference.iter().enumerate() {
            let t = Time::from_ns(5 + 10 * k as i64 + 1);
            sim.run_until(t).unwrap();
            assert_eq!(
                sim.value(out_sig).to_u64(),
                Some(expect as u64),
                "after instruction {k}"
            );
        }
    }

    #[test]
    fn out_stream_is_nontrivial() {
        let (mut sim, _) = cpu_bench(checksum_program());
        let out_sig = sim.signal_id("out").unwrap();
        let mut seen = std::collections::HashSet::new();
        for k in 1..=100 {
            sim.run_until(Time::from_ns(80 * k)).unwrap();
            seen.insert(sim.value(out_sig).to_u64());
        }
        assert!(seen.len() > 20, "output must keep changing: {}", seen.len());
    }

    #[test]
    fn golden_run_traffic_is_pinned() {
        // The campaigns' 20 us golden run, every signal monitored. The
        // trace and the end state are what any kernel change must keep;
        // the event count is what the scalar kernel pays for them, pinned
        // so that queuing idle re-drives again fails here and not only in
        // a benchmark. A change that lowers it on purpose updates it.
        let (mut sim, _) = cpu_bench(checksum_program());
        for name in ["clk", "rst", "pc"] {
            sim.monitor_name(name);
        }
        sim.run_until(Time::from_us(20)).unwrap();
        let mut h = amsfi_waves::Fnv1a::new();
        h.write_str(&amsfi_waves::vcd::to_vcd(sim.trace(), ""));
        assert_eq!(h.finish(), 0x6171_b458_9816_8062, "the trace moved");
        assert_eq!(
            sim.state_digest(),
            0x8740_45bb_d20b_5f50,
            "the end state moved"
        );
        // 16 009 while every idle re-drive of `out` and `pc` was queued.
        assert_eq!(sim.events_processed(), 10_206, "the event traffic moved");
    }

    #[test]
    fn word_golden_run_traffic_is_pinned() {
        // The word kernel's twin of the pin above: one word machine over
        // the same 20 us run, SEU lanes from 2 us on. The golden trace and
        // every lane's toggles are what any kernel change must keep (the
        // trace digest is the scalar run's); the event count is what the
        // word kernel pays for them, pinned so that queuing idle re-drives
        // again fails here and not only in a benchmark.
        use amsfi_digital::{LaneOutcome, WordBatchSimulator};
        use amsfi_waves::{KernelMetrics, MismatchToggles, SimBudget};
        const T_END: Time = Time::from_us(20);
        let bits = [0usize, 3, 9, 14, 15 + 8, 15 + 9 * 8];
        let times = [Time::from_us(2), Time::from_us(7)];
        let bench = || {
            let (mut sim, cpu) = cpu_bench(checksum_program());
            for name in ["clk", "rst", "pc"] {
                sim.monitor_name(name);
            }
            (sim, cpu)
        };

        // The prefix is the scalar kernel's: the word machine, which takes
        // over at the first instant, is metered alone.
        let (mut golden, cpu) = bench();
        golden.run_until(times[0]).unwrap();
        let metrics = std::sync::Arc::new(KernelMetrics::new());
        golden.set_budget(SimBudget::unlimited().with_metrics(metrics.clone()));
        let mut batch = WordBatchSimulator::new(golden, T_END);
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
                    sim.flip_state(cpu, cases[lane].1);
                    Ok(())
                },
                |_, _| {},
            )
            .unwrap();
        assert_eq!(report.machines, 1);

        let mut h = amsfi_waves::Fnv1a::new();
        h.write_str(&amsfi_waves::vcd::to_vcd(&report.golden, ""));
        assert_eq!(h.finish(), 0x6171_b458_9816_8062, "the golden trace moved");
        for (lane, &(at, bit)) in cases.iter().enumerate() {
            let (mut scalar, cpu) = bench();
            scalar.run_until(at).unwrap();
            scalar.flip_state(cpu, bit);
            scalar.run_until(T_END).unwrap();
            assert_eq!(
                report.lane_toggles(lane),
                Some(&MismatchToggles::between(&report.golden, scalar.trace())),
                "lane {lane} (bit {bit} @ {at})"
            );
            // RAM word 9 is never read: the lane is the golden machine in
            // everything that has a future, and seals at its injection stop.
            if bit == 15 + 9 * 8 {
                assert!(
                    matches!(report.outcomes[lane], LaneOutcome::Clean { sealed_at: Some(t) } if t == at),
                    "lane {lane} (bit {bit} @ {at}): {:?}",
                    report.outcomes[lane]
                );
            }
        }
        // 14 416 while every idle re-drive of `out` and `pc` was queued.
        assert_eq!(
            metrics.digital_events.get(),
            9_374,
            "the word event traffic moved"
        );
    }

    #[test]
    fn table_seu_corrupts_the_stream() {
        let (mut golden, _) = cpu_bench(checksum_program());
        let (mut faulty, cpu) = cpu_bench(checksum_program());
        golden.run_until(Time::from_us(10)).unwrap();
        faulty.run_until(Time::from_us(2)).unwrap();
        // ram[1] holds table entry 0x22, read on every loop iteration.
        let ram1_bit0 = 8 + 6 + 1 + 8;
        faulty.flip_state(cpu, ram1_bit0);
        faulty.run_until(Time::from_us(10)).unwrap();
        assert_ne!(golden.trace(), faulty.trace());
    }

    #[test]
    fn unused_ram_seu_is_masked() {
        let (mut golden, _) = cpu_bench(checksum_program());
        let (mut faulty, cpu) = cpu_bench(checksum_program());
        golden.run_until(Time::from_us(10)).unwrap();
        faulty.run_until(Time::from_us(2)).unwrap();
        // RAM word 9 is never read by the checksum program.
        let ram9_bit0 = 8 + 6 + 1 + 9 * 8;
        faulty.flip_state(cpu, ram9_bit0);
        faulty.run_until(Time::from_us(10)).unwrap();
        assert_eq!(golden.trace(), faulty.trace(), "dead RAM upset must mask");
    }

    #[test]
    fn a_delayed_cpu_reads_every_bit() {
        // The upset's re-evaluation re-drives `pc` 3 ns on, which cancels
        // the drive the rising edge 1 ns earlier left pending: `pc` moves a
        // nanosecond late, although the RAM word is never read.
        let delay = Time::from_ns(3);
        let ram9_bit0 = 8 + 6 + 1 + 9 * 8;
        let (mut golden, _) = delayed_cpu_bench(checksum_program(), delay);
        let (mut faulty, cpu) = delayed_cpu_bench(checksum_program(), delay);
        for sim in [&mut golden, &mut faulty] {
            sim.monitor_name("pc");
        }
        golden.run_until(Time::from_us(3)).unwrap();
        faulty.run_until(Time::from_ns(2_006)).unwrap();
        faulty.flip_state(cpu, ram9_bit0);
        faulty.run_until(Time::from_us(3)).unwrap();
        assert_ne!(golden.trace(), faulty.trace());

        let delayed = TinyCpu::new(checksum_program(), delay);
        assert!((0..delayed.state_bits()).all(|bit| delayed.state_bit_is_read(bit)));
        let zero_delay = TinyCpu::new(checksum_program(), Time::ZERO);
        assert!(!zero_delay.state_bit_is_read(ram9_bit0));
    }

    #[test]
    fn pc_force_models_control_flow_upset() {
        let (mut sim, cpu) = cpu_bench(checksum_program());
        sim.run_until(Time::from_us(1)).unwrap();
        sim.force_state(cpu, 0); // jump back to the init sequence
        sim.run_until(Time::from_us(1) + Time::from_ns(15)).unwrap();
        let pc_sig = sim.signal_id("pc").unwrap();
        assert!(sim.value(pc_sig).to_u64().unwrap() <= 2);
    }

    #[test]
    fn program_validation() {
        assert!(std::panic::catch_unwind(|| TinyCpu::new(vec![], Time::ZERO)).is_err());
        assert!(
            std::panic::catch_unwind(|| TinyCpu::new(vec![Insn::Lda(99)], Time::ZERO)).is_err()
        );
        assert!(std::panic::catch_unwind(|| TinyCpu::new(vec![Insn::Jmp(5)], Time::ZERO)).is_err());
    }

    #[test]
    fn mutant_labels_cover_architecture() {
        let cpu = TinyCpu::new(checksum_program(), Time::ZERO);
        assert_eq!(cpu.state_bits(), 8 + 6 + 1 + 128);
        assert_eq!(cpu.state_label(0), "acc[0]");
        assert_eq!(cpu.state_label(8), "pc[0]");
        assert_eq!(cpu.state_label(14), "flag_nz");
        assert_eq!(cpu.state_label(15), "ram[0][0]");
        assert_eq!(cpu.state_label(15 + 77), "ram[9][5]");
    }

    #[test]
    fn word_batch_matches_scalar_for_cpu_seus() {
        use amsfi_digital::{LaneOutcome, WordBatchSimulator};
        use amsfi_waves::MismatchToggles;
        const T_END: Time = Time::from_us(4);
        // Representative mutant surface: acc, pc, the flag, a live RAM bit
        // (table entry) and a dead RAM bit (masked upset).
        let bits = [0usize, 9, 14, 15 + 8, 15 + 9 * 8];
        let times = [Time::from_ns(905), Time::from_us(2)];

        let (golden, cpu) = cpu_bench(checksum_program());
        let mut batch = WordBatchSimulator::new(golden, T_END);
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
                    sim.flip_state(cpu, cases[lane].1);
                    Ok(())
                },
                |_, _| {},
            )
            .unwrap();

        for (lane, &(at, bit)) in cases.iter().enumerate() {
            let (mut scalar, cpu) = cpu_bench(checksum_program());
            scalar.run_until(at).unwrap();
            scalar.flip_state(cpu, bit);
            scalar.run_until(T_END).unwrap();
            let scalar_trace = scalar.into_trace();
            assert_eq!(
                report.lane_toggles(lane),
                Some(&MismatchToggles::between(&report.golden, &scalar_trace)),
                "lane {lane} (bit {bit} @ {at}): {:?}",
                report.outcomes[lane]
            );
            // The dead RAM bit never shows on a monitored signal: nothing
            // is noted for it at all.
            if bit == 15 + 9 * 8 {
                assert!(
                    matches!(report.outcomes[lane], LaneOutcome::Clean { .. }),
                    "lane {lane}: {:?}",
                    report.outcomes[lane]
                );
            }
        }
    }

    #[test]
    fn lanes_equal_to_compares_what_a_later_evaluation_reads() {
        // Random programs over random lanes: a lane equals the reference
        // exactly when its registers, flag, clock level and every RAM word
        // some instruction loads are equal. A word no instruction loads may
        // differ.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Lanes told apart by one field only, per field (acc, pc, flag,
        // out, clock, read word, unread word), and how many compared equal.
        let mut single = [(0u32, 0u32); 7];
        for round in 0..200 {
            let len = 1 + next() % 24;
            let program: Vec<Insn> = (0..len)
                .map(|_| {
                    let a = (next() % RAM_SIZE as u64) as u8;
                    match next() % 8 {
                        0 => Insn::Ldi(next() as u8),
                        1 => Insn::Lda(a),
                        2 => Insn::Sta(a),
                        3 => Insn::Add(a),
                        4 => Insn::Sub(a),
                        5 => Insn::Jmp((next() % len) as u8),
                        6 => Insn::Jnz((next() % len) as u8),
                        _ => Insn::Out,
                    }
                })
                .collect();
            let read = |word: usize| {
                program.iter().any(|insn| {
                    matches!(*insn, Insn::Lda(a) | Insn::Add(a) | Insn::Sub(a) if a as usize == word)
                })
            };
            let base = TinyCpu::new(program.clone(), Time::ZERO);
            // Lanes are copies of a few prototypes, most of them one or two
            // state bits (or a clock level) away from each other.
            let mut scalars: Vec<TinyCpu> = Vec::new();
            for lane in 0..LANES {
                let mut cpu = if lane == 0 || next() % 4 == 0 {
                    base.clone()
                } else {
                    scalars[next() as usize % lane].clone()
                };
                for _ in 0..next() % 3 {
                    cpu.flip_state_bit(next() as usize % cpu.state_bits());
                }
                if next() % 8 == 0 {
                    cpu.out ^= 1 << (next() % 8);
                }
                if next() % 8 == 0 {
                    cpu.prev_clk = Logic::ALL[next() as usize % Logic::ALL.len()];
                }
                scalars.push(cpu);
            }
            let gather = |field: &dyn Fn(&TinyCpu) -> u8| -> Planes {
                std::array::from_fn(|b| {
                    scalars
                        .iter()
                        .enumerate()
                        .fold(0, |m, (lane, c)| m | u64::from((field(c) >> b) & 1) << lane)
                })
            };
            let clks: Vec<Logic> = scalars.iter().map(|c| c.prev_clk).collect();
            let word = WordTinyCpu {
                read_words: read_words(&program),
                program: base.program.clone(),
                delay: base.delay,
                acc: gather(&|c| c.acc),
                pc: gather(&|c| c.pc),
                nonzero: gather(&|c| c.nonzero as u8)[0],
                ram: std::array::from_fn(|a| gather(&|c| c.ram[a])),
                out: gather(&|c| c.out),
                prev_clk: LogicPlanes::from_lanes(&clks),
            };
            for reference in [0, 31, LANES - 1, next() as usize % LANES] {
                let candidates = next() | 1 << reference;
                let equal = word.clone().lanes_equal_to(reference, candidates);
                let r = &scalars[reference];
                let mut expect = 0u64;
                for (lane, c) in scalars.iter().enumerate() {
                    let ram_differs = |read_or_not| {
                        (0..RAM_SIZE).any(|a| c.ram[a] != r.ram[a] && read(a) == read_or_not)
                    };
                    let differs = [
                        c.acc != r.acc,
                        c.pc != r.pc,
                        c.nonzero != r.nonzero,
                        c.out != r.out,
                        c.prev_clk != r.prev_clk,
                        ram_differs(true),
                        ram_differs(false),
                    ];
                    let same = !differs[..6].contains(&true);
                    expect |= u64::from(same) << lane;
                    if candidates >> lane & 1 == 1 && differs.iter().filter(|&&d| d).count() == 1 {
                        let field = differs.iter().position(|&d| d).unwrap();
                        single[field].0 += 1;
                        single[field].1 += (equal >> lane & 1) as u32;
                    }
                }
                assert_eq!(
                    equal,
                    candidates & expect,
                    "round {round}, reference {reference}"
                );
            }
        }
        // Every field was the one difference of some lane: an unread word
        // alone always compares equal, any other field alone never does.
        for (field, &(seen, equal)) in single.iter().enumerate() {
            assert!(seen > 0, "field {field} never differed alone");
            let expect = if field == 6 { seen } else { 0 };
            assert_eq!(equal, expect, "field {field}: {seen} lanes");
        }
    }

    #[test]
    fn only_words_some_instruction_loads_are_read() {
        // The checksum program loads its table and loop counter, words
        // 0..=4, and never touches 5..=15.
        assert_eq!(read_words(&checksum_program()), 0b1_1111);
        // A store alone does not make a word read; a load anywhere in the
        // ROM does, reachable or not.
        assert_eq!(read_words(&[Insn::Sta(7), Insn::Jmp(0)]), 0);
        let program = [Insn::Jmp(0), Insn::Lda(9), Insn::Add(12), Insn::Sub(15)];
        assert_eq!(read_words(&program), 1 << 9 | 1 << 12 | 1 << 15);
    }

    #[test]
    fn insn_display() {
        assert_eq!(Insn::Ldi(0x11).to_string(), "LDI 0x11");
        assert_eq!(Insn::Jnz(8).to_string(), "JNZ 8");
        assert_eq!(Insn::Out.to_string(), "OUT");
    }
}
