//! SEU-hardening primitives: majority voting (TMR) and Hamming single-error
//! correction.
//!
//! The paper's introduction names two uses for early fault injection:
//! identify the nodes to protect, and "validate the efficiency of the
//! implemented mechanisms". These cells are the mechanisms: inject into
//! them and check that the upset is masked.

use crate::component::{Component, EvalContext};
use crate::netlist::PortSpec;
use amsfi_waves::{Logic, LogicVector, Time};

/// Bitwise 2-of-3 majority voter over three buses.
///
/// Ports: `a[width]`, `b[width]`, `c[width]` → `y[width]`. Per bit, if at
/// least two inputs agree on a binary value, that value wins even if the
/// third is metalogical; three-way disagreement yields `X`.
#[derive(Debug, Clone)]
pub struct MajorityVoter {
    width: usize,
    delay: Time,
}

impl MajorityVoter {
    /// Creates a voter over `width`-bit buses.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize, delay: Time) -> Self {
        assert!(width > 0, "voter width must be nonzero");
        MajorityVoter { width, delay }
    }

    fn vote(a: Logic, b: Logic, c: Logic) -> Logic {
        let ones = [a, b, c]
            .iter()
            .filter(|v| v.to_bool() == Some(true))
            .count();
        let zeros = [a, b, c]
            .iter()
            .filter(|v| v.to_bool() == Some(false))
            .count();
        if ones >= 2 {
            Logic::One
        } else if zeros >= 2 {
            Logic::Zero
        } else {
            Logic::Unknown
        }
    }
}

impl Component for MajorityVoter {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let out: LogicVector = (0..self.width)
            .map(|i| Self::vote(ctx.input(0)[i], ctx.input(1)[i], ctx.input(2)[i]))
            .collect();
        ctx.drive(0, &out, self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(
            &[("a", self.width), ("b", self.width), ("c", self.width)],
            &[("y", self.width)],
        )
    }
}

/// A triple-modular-redundant register: three internal replicas of the
/// state, voted on every output.
///
/// Ports: `clk`, `rst`, `d[width]` → `q[width]` — a drop-in replacement for
/// [`Register`](crate::cells::Register) whose single-bit upsets are masked.
///
/// The mutant surface is all `3 × width` replica bits, labelled
/// `r<replica>.q[bit]`: the fault-injection flow can verify that flipping
/// any *one* of them never reaches `q`.
#[derive(Debug, Clone)]
pub struct TmrRegister {
    width: usize,
    delay: Time,
    replicas: [LogicVector; 3],
    prev_clk: Logic,
}

impl TmrRegister {
    /// Creates a TMR register of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize, delay: Time) -> Self {
        assert!(width > 0, "register width must be nonzero");
        TmrRegister {
            width,
            delay,
            replicas: [
                LogicVector::new(width),
                LogicVector::new(width),
                LogicVector::new(width),
            ],
            prev_clk: Logic::Uninitialized,
        }
    }

    fn voted(&self) -> LogicVector {
        (0..self.width)
            .map(|i| {
                MajorityVoter::vote(
                    self.replicas[0][i],
                    self.replicas[1][i],
                    self.replicas[2][i],
                )
            })
            .collect()
    }
}

impl Component for TmrRegister {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let clk = ctx.input_bit(0);
        if !self.prev_clk.is_high() && clk.is_high() {
            let next = if ctx.input_bit(1).is_high() {
                LogicVector::zeros(self.width)
            } else {
                ctx.input(2).clone()
            };
            // All three replicas re-capture: a previously upset replica is
            // scrubbed at every clock edge.
            self.replicas = [next.clone(), next.clone(), next];
        }
        self.prev_clk = clk;
        ctx.drive(0, &self.voted(), self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(
            &[("clk", 1), ("rst", 1), ("d", self.width)],
            &[("q", self.width)],
        )
    }

    fn state_bits(&self) -> usize {
        3 * self.width
    }

    fn flip_state_bit(&mut self, bit: usize) {
        let replica = bit / self.width;
        self.replicas[replica].flip_bit(bit % self.width);
    }

    fn state_label(&self, bit: usize) -> String {
        format!("r{}.q[{}]", bit / self.width, bit % self.width)
    }

    fn state_value(&self) -> Option<u64> {
        self.voted().to_u64()
    }
}

/// Positions (1-indexed, as in the classical construction) of the parity
/// bits inside a Hamming(7,4) codeword.
const HAMMING_DATA_POS: [usize; 4] = [3, 5, 6, 7];
const HAMMING_PARITY_POS: [usize; 3] = [1, 2, 4];

/// Combinational Hamming(7,4) encoder.
///
/// Ports: `d[4]` → `code[7]`. Codeword bit `i` (0-indexed) is position
/// `i + 1` of the classical construction; metalogical inputs yield an all-X
/// codeword.
#[derive(Debug, Clone)]
pub struct HammingEncoder {
    delay: Time,
}

impl HammingEncoder {
    /// Creates an encoder with the given propagation delay.
    pub fn new(delay: Time) -> Self {
        HammingEncoder { delay }
    }

    /// Encodes a 4-bit value into its 7-bit codeword.
    pub fn encode(data: u64) -> u64 {
        let mut code = 0u64;
        for (i, &pos) in HAMMING_DATA_POS.iter().enumerate() {
            if data >> i & 1 == 1 {
                code |= 1 << (pos - 1);
            }
        }
        for &p in &HAMMING_PARITY_POS {
            let mut parity = 0u64;
            for pos in 1..=7usize {
                if pos & p != 0 && pos != p {
                    parity ^= code >> (pos - 1) & 1;
                }
            }
            code |= parity << (p - 1);
        }
        code
    }
}

impl Component for HammingEncoder {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        match ctx.input(0).to_u64() {
            Some(d) => ctx.drive_u64(0, Self::encode(d), 7, self.delay),
            None => ctx.drive_filled(0, Logic::Unknown, 7, self.delay),
        }
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[("d", 4)], &[("code", 7)])
    }
}

/// Combinational Hamming(7,4) decoder with single-error correction.
///
/// Ports: `code[7]` → `d[4]`, `corrected` (high when a single-bit error was
/// fixed).
#[derive(Debug, Clone)]
pub struct HammingDecoder {
    delay: Time,
}

impl HammingDecoder {
    /// Creates a decoder with the given propagation delay.
    pub fn new(delay: Time) -> Self {
        HammingDecoder { delay }
    }

    /// Decodes a 7-bit codeword: `(data, corrected_position)` where the
    /// position is `None` for a clean codeword.
    pub fn decode(code: u64) -> (u64, Option<usize>) {
        let mut syndrome = 0usize;
        for &p in &HAMMING_PARITY_POS {
            let mut parity = 0u64;
            for pos in 1..=7usize {
                if pos & p != 0 {
                    parity ^= code >> (pos - 1) & 1;
                }
            }
            if parity == 1 {
                syndrome |= p;
            }
        }
        let fixed = if syndrome == 0 {
            code
        } else {
            code ^ (1 << (syndrome - 1))
        };
        let mut data = 0u64;
        for (i, &pos) in HAMMING_DATA_POS.iter().enumerate() {
            if fixed >> (pos - 1) & 1 == 1 {
                data |= 1 << i;
            }
        }
        (data, (syndrome != 0).then_some(syndrome))
    }
}

impl Component for HammingDecoder {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        match ctx.input(0).to_u64() {
            Some(code) => {
                let (data, fixed) = Self::decode(code);
                ctx.drive_u64(0, data, 4, self.delay);
                ctx.drive_bit(1, Logic::from_bool(fixed.is_some()), self.delay);
            }
            None => {
                ctx.drive_filled(0, Logic::Unknown, 4, self.delay);
                ctx.drive_bit(1, Logic::Unknown, self.delay);
            }
        }
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[("code", 7)], &[("d", 4), ("corrected", 1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{ClockGen, ConstVector};
    use crate::{Netlist, Simulator};

    #[test]
    fn hamming_round_trip_all_values() {
        for d in 0u64..16 {
            let code = HammingEncoder::encode(d);
            let (back, fixed) = HammingDecoder::decode(code);
            assert_eq!(back, d);
            assert_eq!(fixed, None, "clean codeword for {d}");
        }
    }

    #[test]
    fn hamming_corrects_every_single_bit_error() {
        for d in 0u64..16 {
            let code = HammingEncoder::encode(d);
            for bit in 0..7 {
                let (back, fixed) = HammingDecoder::decode(code ^ (1 << bit));
                assert_eq!(back, d, "data {d}, flipped bit {bit}");
                assert_eq!(fixed, Some(bit + 1), "reported position");
            }
        }
    }

    #[test]
    fn hamming_codewords_have_min_distance_three() {
        for a in 0u64..16 {
            for b in 0u64..16 {
                if a == b {
                    continue;
                }
                let dist = (HammingEncoder::encode(a) ^ HammingEncoder::encode(b)).count_ones();
                assert!(dist >= 3, "d({a},{b}) = {dist}");
            }
        }
    }

    #[test]
    fn voter_masks_single_disagreement() {
        assert_eq!(
            MajorityVoter::vote(Logic::One, Logic::One, Logic::Zero),
            Logic::One
        );
        assert_eq!(
            MajorityVoter::vote(Logic::Zero, Logic::One, Logic::Zero),
            Logic::Zero
        );
        assert_eq!(
            MajorityVoter::vote(Logic::One, Logic::Unknown, Logic::One),
            Logic::One
        );
        assert_eq!(
            MajorityVoter::vote(Logic::Unknown, Logic::One, Logic::Zero),
            Logic::Unknown
        );
    }

    fn tmr_bench() -> (Simulator, crate::ComponentId, crate::SignalId) {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let d = net.signal("d", 4);
        let q = net.signal("q", 4);
        net.add("ck", ClockGen::new(Time::from_ns(10)), &[], &[clk]);
        net.add("r", ConstVector::bit(Logic::Zero), &[], &[rst]);
        net.add(
            "dv",
            ConstVector::new(LogicVector::from_u64(0b1010, 4)),
            &[],
            &[d],
        );
        let reg = net.add("tmr", TmrRegister::new(4, Time::ZERO), &[clk, rst, d], &[q]);
        (Simulator::new(net), reg, q)
    }

    #[test]
    fn tmr_register_behaves_like_a_register() {
        let (mut sim, _, q) = tmr_bench();
        sim.run_until(Time::from_ns(10)).unwrap();
        assert_eq!(sim.value(q).to_u64(), Some(0b1010));
    }

    #[test]
    fn tmr_masks_any_single_replica_upset() {
        for bit in 0..12 {
            let (mut sim, reg, q) = tmr_bench();
            sim.run_until(Time::from_ns(12)).unwrap();
            sim.flip_state(reg, bit);
            sim.run_until(Time::from_ns(13)).unwrap();
            assert_eq!(
                sim.value(q).to_u64(),
                Some(0b1010),
                "upset on replica bit {bit} leaked through the voter"
            );
        }
    }

    #[test]
    fn tmr_double_upset_in_same_bit_position_defeats_voting() {
        let (mut sim, reg, q) = tmr_bench();
        sim.run_until(Time::from_ns(12)).unwrap();
        // Same bit (1) of two different replicas (0 and 1).
        sim.flip_state(reg, 1);
        sim.flip_state(reg, 4 + 1);
        sim.run_until(Time::from_ns(13)).unwrap();
        assert_eq!(
            sim.value(q).to_u64(),
            Some(0b1000),
            "2-of-3 flips win the vote"
        );
        // The next clock edge scrubs both replicas.
        sim.run_until(Time::from_ns(16)).unwrap();
        assert_eq!(sim.value(q).to_u64(), Some(0b1010));
    }

    #[test]
    fn tmr_labels_name_the_replica() {
        let reg = TmrRegister::new(4, Time::ZERO);
        assert_eq!(reg.state_bits(), 12);
        assert_eq!(reg.state_label(0), "r0.q[0]");
        assert_eq!(reg.state_label(9), "r2.q[1]");
    }
}
