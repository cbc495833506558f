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
use amsfi_waves::{Logic, LogicPlanes, Time, LANES};
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
            program: self.program.clone(),
            delay: self.delay,
            acc: [self.acc; LANES],
            pc: [self.pc; LANES],
            nonzero: if self.nonzero { u64::MAX } else { 0 },
            ram: [self.ram; LANES],
            out: [self.out; LANES],
            prev_clk: LogicPlanes::splat(self.prev_clk),
            out_planes: pack(&[self.out; LANES]),
            pc_planes: pack(&[self.pc; LANES]),
            out_stale: false,
            pc_stale: false,
        }))
    }
}

/// The word-parallel (64-lane) processor: per-lane architectural state,
/// shared program ROM, one evaluation per clock event for all lanes.
///
/// Instruction execution stays a per-lane scalar loop (the ISA semantics do
/// not plane-vectorize), but it only runs for lanes on a rising edge; what
/// 64 scalar instances would pay around it — 64 `LogicVector` port drives
/// per edge, 64 input stagings — collapses into masked plane operations.
///
/// Both ports are driven on every evaluation (either clock edge), but the
/// registers behind them only move when a lane executes, resets or is
/// struck, so the port planes are state: re-packed from the per-lane
/// registers when stale, lent to the drive otherwise.
#[derive(Clone)]
struct WordTinyCpu {
    program: Vec<Insn>,
    delay: Time,
    acc: [u8; LANES],
    pc: [u8; LANES],
    nonzero: u64,
    ram: [[u8; RAM_SIZE]; LANES],
    out: [u8; LANES],
    prev_clk: LogicPlanes,
    /// `out` / `pc` as port planes, valid unless the matching flag is set.
    out_planes: [LogicPlanes; 8],
    pc_planes: [LogicPlanes; 8],
    out_stale: bool,
    pc_stale: bool,
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
    /// Mirrors [`TinyCpu::execute_one`] for one lane.
    fn execute_one(&mut self, lane: usize) {
        let pc = self.pc[lane];
        let insn = self.program[pc as usize % self.program.len()];
        let mut next_pc = pc.wrapping_add(1);
        if next_pc as usize >= self.program.len() {
            next_pc = 0;
        }
        let bit = 1u64 << lane;
        match insn {
            Insn::Ldi(v) => {
                self.acc[lane] = v;
                self.nonzero = (self.nonzero & !bit) | if v != 0 { bit } else { 0 };
            }
            Insn::Lda(a) => {
                self.acc[lane] = self.ram[lane][a as usize];
                self.nonzero = (self.nonzero & !bit) | if self.acc[lane] != 0 { bit } else { 0 };
            }
            Insn::Sta(a) => self.ram[lane][a as usize] = self.acc[lane],
            Insn::Add(a) => {
                self.acc[lane] = self.acc[lane].wrapping_add(self.ram[lane][a as usize]);
                self.nonzero = (self.nonzero & !bit) | if self.acc[lane] != 0 { bit } else { 0 };
            }
            Insn::Sub(a) => {
                self.acc[lane] = self.acc[lane].wrapping_sub(self.ram[lane][a as usize]);
                self.nonzero = (self.nonzero & !bit) | if self.acc[lane] != 0 { bit } else { 0 };
            }
            Insn::Jmp(a) => next_pc = a,
            Insn::Jnz(a) => {
                if self.nonzero & bit != 0 {
                    next_pc = a;
                }
            }
            Insn::Out => {
                self.out[lane] = self.acc[lane];
                self.out_stale = true;
            }
        }
        self.pc[lane] = next_pc;
        self.pc_stale = true;
    }
}

/// Transposes an 8×8 bit matrix held row-major in a `u64` (row `i` is byte
/// `i`, column `j` its bit `j`): three masked swap rounds of 1×1, 2×2 and
/// 4×4 blocks across the diagonal.
fn transpose8(mut x: u64) -> u64 {
    let mut t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Bit masks of one per-lane register: bit `lane` of `ones[b]` is bit `b`
/// of `values[lane]`. Eight lanes at a time are one 8×8 transposition,
/// whose byte `b` then is bit `b` of those eight lanes.
fn pack_ones(values: &[u8; LANES]) -> [u64; 8] {
    let mut ones = [0u64; 8];
    for (group, lanes) in values.chunks_exact(8).enumerate() {
        let rows = u64::from_le_bytes(lanes.try_into().expect("chunk of eight"));
        let columns = transpose8(rows);
        for (bit, ones) in ones.iter_mut().enumerate() {
            *ones |= ((columns >> (8 * bit)) & 0xFF) << (8 * group);
        }
    }
    ones
}

/// Packs one per-lane register into port planes (a port narrower than
/// eight bits drives a prefix).
fn pack(values: &[u8; LANES]) -> [LogicPlanes; 8] {
    pack_ones(values).map(LogicPlanes::from_bool_mask)
}

impl WordComponent for WordTinyCpu {
    fn eval(&mut self, ctx: &mut WordEvalContext<'_>) {
        let clk = ctx.input_bit(0);
        let rst = ctx.input_bit(1);
        let mask = ctx.eval_mask();
        let rising = mask & !self.prev_clk.is_high_mask() & clk.is_high_mask();
        if rising != 0 {
            let mut reset = rising & rst.is_high_mask();
            let mut exec = rising & !reset;
            while reset != 0 {
                let lane = reset.trailing_zeros() as usize;
                reset &= reset - 1;
                self.acc[lane] = 0;
                self.pc[lane] = 0;
                self.nonzero &= !(1 << lane);
                self.out[lane] = 0;
                self.out_stale = true;
                self.pc_stale = true;
            }
            while exec != 0 {
                let lane = exec.trailing_zeros() as usize;
                exec &= exec - 1;
                self.execute_one(lane);
            }
        }
        self.prev_clk = self.prev_clk.select(mask, clk);
        if std::mem::take(&mut self.out_stale) {
            self.out_planes = pack(&self.out);
        }
        if std::mem::take(&mut self.pc_stale) {
            self.pc_planes = pack(&self.pc);
        }
        ctx.drive(0, &self.out_planes, self.delay);
        ctx.drive(1, &self.pc_planes[..PC_BITS], self.delay);
    }

    fn flip_state_bit(&mut self, lane: usize, bit: usize) {
        if bit < 8 {
            self.acc[lane] ^= 1 << bit;
        } else if bit < 8 + PC_BITS {
            self.pc[lane] ^= 1 << (bit - 8);
            self.pc_stale = true;
        } else if bit == 8 + PC_BITS {
            self.nonzero ^= 1 << lane;
        } else {
            let b = bit - 8 - PC_BITS - 1;
            self.ram[lane][b / 8] ^= 1 << (b % 8);
        }
    }

    fn force_state(&mut self, lane: usize, value: u64) {
        self.pc[lane] = (value as u8) % self.program.len() as u8;
        self.pc_stale = true;
    }

    fn lanes_equal_to(&mut self, reference: usize, candidates: u64) -> u64 {
        let b = reference;
        let mut equal = 0u64;
        let mut m = candidates;
        while m != 0 {
            let a = m.trailing_zeros() as usize;
            m &= m - 1;
            let same = self.acc[a] == self.acc[b]
                && self.pc[a] == self.pc[b]
                && (self.nonzero >> a) & 1 == (self.nonzero >> b) & 1
                && self.ram[a] == self.ram[b]
                && self.out[a] == self.out[b]
                && self.prev_clk.lane(a) == self.prev_clk.lane(b);
            equal |= u64::from(same) << a;
        }
        equal
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

    fn cpu_bench(program: Vec<Insn>) -> (Simulator, amsfi_digital::ComponentId) {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let out = net.signal("out", 8);
        let pc = net.signal("pc", 6);
        net.add("ck", cells::ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
        let cpu = net.add(
            "cpu",
            TinyCpu::new(program, Time::ZERO),
            &[clk, rst],
            &[out, pc],
        );
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
                report.lane_trace(lane),
                Some(&scalar_trace),
                "lane {lane} (bit {bit} @ {at}): {:?}",
                report.outcomes[lane]
            );
            // The dead RAM bit never shows on a monitored signal: no trace
            // is built for it at all.
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
    fn transposed_pack_equals_the_bit_by_bit_one() {
        /// The definition: plane `bit` collects bit `bit` of every lane.
        fn naive(values: &[u8; LANES], width: usize) -> Vec<LogicPlanes> {
            (0..width)
                .map(|bit| {
                    let mut ones = 0u64;
                    for (lane, v) in values.iter().enumerate() {
                        ones |= u64::from((v >> bit) & 1) << lane;
                    }
                    LogicPlanes::from_bool_mask(ones)
                })
                .collect()
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut inputs = vec![[0u8; LANES], [0xFF; LANES]];
        // One lane, then one bit, set alone: every row and column position.
        for lane in 0..LANES {
            let mut v = [0u8; LANES];
            v[lane] = 0xFF;
            inputs.push(v);
        }
        for bit in 0..8 {
            inputs.push([1 << bit; LANES]);
        }
        for _ in 0..500 {
            inputs.push(std::array::from_fn(|_| next() as u8));
        }
        for values in &inputs {
            let packed = pack(values);
            for width in 1..=8 {
                assert_eq!(&packed[..width], naive(values, width), "{values:?}");
            }
        }
    }

    #[test]
    fn insn_display() {
        assert_eq!(Insn::Ldi(0x11).to_string(), "LDI 0x11");
        assert_eq!(Insn::Jnz(8).to_string(), "JNZ 8");
        assert_eq!(Insn::Out.to_string(), "OUT");
    }
}
