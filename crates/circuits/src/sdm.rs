//! A first-order sigma–delta modulator: the third mixed-signal case study.
//!
//! Σ-Δ converters are the most tightly coupled analog/digital loop in common
//! use — an analog integrator and a 1-bit quantizer inside a digital
//! feedback — and therefore a natural stress test for the paper's global
//! flow: an analog strike on the integrator perturbs the *digital* bitstream
//! directly, and a digital SEU in the decimator corrupts a whole output
//! word.
//!
//! Loop: `verr = vin − vfb` → integrator → comparator (digitizer) →
//! clocked 1-bit register → level-driven feedback `vfb`, plus a sinc¹
//! decimator counting ones over `2^log2_osr` clocks. For a DC input the
//! ones-density equals `vin / v_ref`.

use amsfi_analog::{
    blocks, AnalogBlock, AnalogCircuit, AnalogContext, AnalogSolver, BlockId, NodeKind,
};
use amsfi_digital::{cells, Component, ComponentId, EvalContext, Netlist, PortSpec, Simulator};
use amsfi_faults::PulseShape;
use amsfi_mixed::MixedSimulator;
use amsfi_waves::{Logic, Time};
use std::sync::Arc;

use crate::adc::AdcInput;

/// `v_out = (v_a − v_b) + r·i_inj`: the modulator's error summer with the
/// input-referred strike resistance folded in.
#[derive(Debug, Clone)]
struct ErrorSummer {
    r_ohm: f64,
}

impl AnalogBlock for ErrorSummer {
    fn step(&mut self, ctx: &mut AnalogContext<'_>) {
        let v = ctx.input(0) - ctx.input(1) + self.r_ohm * ctx.input(2);
        ctx.set(0, v);
    }
}

/// Sinc¹ decimator: counts ones in the bitstream over `2^log2_osr` clock
/// cycles and publishes the count as the output word.
///
/// Ports: `clk`, `bit` → `code[log2_osr + 1]`, `valid`.
///
/// The accumulator and the published word are mutant targets — an SEU here
/// corrupts exactly one decimated sample.
#[derive(Debug, Clone)]
pub struct SincDecimator {
    log2_osr: u32,
    delay: Time,
    count: u64,
    cycles: u64,
    code: u64,
    prev_clk: Logic,
}

impl SincDecimator {
    /// Creates a decimator with oversampling ratio `2^log2_osr`.
    ///
    /// # Panics
    ///
    /// Panics if `log2_osr` is zero or above 16.
    pub fn new(log2_osr: u32, delay: Time) -> Self {
        assert!((1..=16).contains(&log2_osr), "log2_osr must be in 1..=16");
        SincDecimator {
            log2_osr,
            delay,
            count: 0,
            cycles: 0,
            code: 0,
            prev_clk: Logic::Uninitialized,
        }
    }

    /// The output word width (`log2_osr + 1`, since the count can equal the
    /// oversampling ratio itself).
    pub fn code_width(&self) -> usize {
        self.log2_osr as usize + 1
    }

    /// The oversampling ratio.
    pub fn osr(&self) -> u64 {
        1 << self.log2_osr
    }
}

impl Component for SincDecimator {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let clk = ctx.input_bit(0);
        let mut valid = false;
        if !self.prev_clk.is_high() && clk.is_high() {
            if ctx.input_bit(1).is_high() {
                self.count += 1;
            }
            self.cycles += 1;
            if self.cycles == self.osr() {
                self.code = self.count;
                self.count = 0;
                self.cycles = 0;
                valid = true;
            }
        }
        self.prev_clk = clk;
        ctx.drive_u64(0, self.code, self.code_width(), self.delay);
        ctx.drive_bit(1, Logic::from_bool(valid), self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(
            &[("clk", 1), ("bit", 1)],
            &[("code", self.code_width()), ("valid", 1)],
        )
    }

    fn state_bits(&self) -> usize {
        2 * self.code_width()
    }

    fn flip_state_bit(&mut self, bit: usize) {
        let w = self.code_width();
        if bit < w {
            self.count ^= 1 << bit;
        } else {
            self.code ^= 1 << (bit - w);
        }
    }

    fn state_label(&self, bit: usize) -> String {
        let w = self.code_width();
        if bit < w {
            format!("count[{bit}]")
        } else {
            format!("code[{}]", bit - w)
        }
    }

    fn state_value(&self) -> Option<u64> {
        Some(self.count | self.code << self.code_width())
    }
}

/// Configuration of the modulator bench.
#[derive(Debug, Clone)]
pub struct SdmConfig {
    /// Full-scale reference (V); the feedback DAC swings 0..`v_ref`.
    pub v_ref: f64,
    /// Modulator clock period.
    pub clk_period: Time,
    /// Oversampling: the decimator outputs one word per `2^log2_osr` clocks.
    pub log2_osr: u32,
    /// Analog input stimulus.
    pub input: AdcInput,
    /// Injection resistance of the input-referred strike (Ω).
    pub r_inj: f64,
    /// Analog base step.
    pub base_dt: Time,
    /// Optional current-pulse fault on the error summer.
    pub fault: Option<(Arc<dyn PulseShape>, Time)>,
}

impl Default for SdmConfig {
    fn default() -> Self {
        SdmConfig {
            v_ref: 5.0,
            clk_period: Time::from_ns(100),
            log2_osr: 5, // OSR 32
            input: AdcInput::Dc(2.2),
            r_inj: 100.0,
            base_dt: Time::from_ns(10),
            fault: None,
        }
    }
}

impl SdmConfig {
    /// Arms the input-referred saboteur.
    #[must_use]
    pub fn with_fault<P: PulseShape + 'static>(mut self, pulse: P, at: Time) -> Self {
        self.fault = Some((Arc::new(pulse), at));
        self
    }

    /// Wall-clock duration of one decimated output word.
    pub fn word_time(&self) -> Time {
        self.clk_period * (1 << self.log2_osr)
    }
}

/// Signal name of the decimated output word.
pub const SDM_CODE: &str = "code";
/// Signal name of the raw 1-bit modulator stream.
pub const SDM_BIT: &str = "bit_q";

/// The built modulator bench.
#[derive(Debug, Clone)]
pub struct SdmBench {
    /// The coupled simulator.
    pub mixed: MixedSimulator,
    /// The input saboteur block.
    pub saboteur: BlockId,
    /// The decimator (digital mutant target).
    pub decimator: ComponentId,
}

/// Builds the first-order Σ-Δ bench.
pub fn build(config: &SdmConfig) -> SdmBench {
    let mut ckt = AnalogCircuit::new();
    let vin_raw = ckt.node("vin_raw", NodeKind::Voltage);
    let iinj = ckt.node("iinj", NodeKind::Current);
    let vfb = ckt.node("vfb", NodeKind::Voltage);
    let verr = ckt.node("verr", NodeKind::Voltage);
    let vint = ckt.node("vint", NodeKind::Voltage);
    crate::adc::add_input(&mut ckt, config.input, vin_raw);
    let mut sab = blocks::AnalogSaboteur::new();
    if let Some((pulse, at)) = &config.fault {
        sab = sab.with_pulse_arc(Arc::clone(pulse), *at);
    }
    let saboteur = ckt.add("saboteur", sab, &[], &[iinj]);
    ckt.add(
        "summer",
        ErrorSummer {
            r_ohm: config.r_inj,
        },
        &[vin_raw, vfb, iinj],
        &[verr],
    );
    // Integrator gain: ~0.5 V of movement per clock at full-scale error.
    let gain = 1.0 / (config.clk_period.as_secs_f64() * 10.0);
    ckt.add(
        "integrator",
        blocks::Integrator::new(gain, -4.0 * config.v_ref, 4.0 * config.v_ref),
        &[verr],
        &[vint],
    );

    let mut net = Netlist::new();
    let clk = net.signal("clk", 1);
    let bit = net.signal("bit", 1); // digitized comparator decision
    let bit_q = net.signal(SDM_BIT, 1);
    let decim = SincDecimator::new(config.log2_osr, Time::ZERO);
    let code = net.signal(SDM_CODE, decim.code_width());
    let valid = net.signal("valid", 1);
    net.add("ck", cells::ClockGen::new(config.clk_period), &[], &[clk]);
    net.add("ff", cells::Dff::new(1, Time::ZERO), &[clk, bit], &[bit_q]);
    let decimator = net.add("decimator", decim, &[clk, bit_q], &[code, valid]);

    let mut mixed =
        MixedSimulator::new(Simulator::new(net), AnalogSolver::new(ckt, config.base_dt));
    // Quantizer: integrator sign -> digital bit.
    mixed.bind_digitizer("vint", "bit", 0.0, 0.05);
    // 1-bit feedback DAC: latched bit -> 0 / v_ref.
    mixed.bind_driver(SDM_BIT, "vfb", 0.0, config.v_ref);
    SdmBench {
        mixed,
        saboteur,
        decimator,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amsfi_faults::TrapezoidPulse;

    fn code_of(bench: &SdmBench) -> u64 {
        let sig = bench.mixed.digital().signal_id(SDM_CODE).unwrap();
        bench.mixed.digital().value(sig).to_u64().unwrap_or(0)
    }

    #[test]
    fn the_decimator_is_behind_the_cut_and_the_quantizer_latch_is_not() {
        let golden = build(&SdmConfig::default());
        assert!(golden.mixed.analog_is_clean());
        let latch = golden.mixed.digital().component_id("ff").unwrap();
        let targets = golden.mixed.digital().mutant_targets();
        assert!(targets.iter().any(|t| t.component == golden.decimator));
        assert!(targets.iter().any(|t| t.component == latch));
        for target in &targets {
            let mut mixed = golden.mixed.clone();
            mixed.digital_mut().flip_state(target.component, target.bit);
            // `bit_q` out of the latch is the feedback DAC's input; the
            // decimator only reads it.
            assert_eq!(
                mixed.analog_is_clean(),
                target.component == golden.decimator,
                "{target}"
            );
        }
    }

    #[test]
    fn dc_levels_give_proportional_ones_density() {
        for (vin, expect) in [(0.6, 4u64), (1.25, 8), (2.5, 16), (3.75, 24), (4.4, 28)] {
            let cfg = SdmConfig {
                input: AdcInput::Dc(vin),
                ..SdmConfig::default()
            };
            let mut bench = build(&cfg);
            // Let the loop settle one word, then read the second word.
            bench
                .mixed
                .run_until(cfg.word_time() * 2 + cfg.clk_period)
                .unwrap();
            let code = code_of(&bench);
            let err = code as i64 - expect as i64;
            assert!(
                err.abs() <= 2,
                "vin {vin}: code {code}, expected ~{expect} of 32"
            );
        }
    }

    #[test]
    fn strike_on_integrator_corrupts_one_word_only() {
        let cfg = SdmConfig {
            input: AdcInput::Dc(2.5),
            ..SdmConfig::default()
        };
        // 1 us, 20 mA strike: 2 V error across ~10 clock cycles.
        let word = cfg.word_time(); // 3.2 us
        let pulse = TrapezoidPulse::from_ma_ps(20.0, 100, 100, 1_000_000).unwrap();
        let faulty_cfg = cfg.clone().with_fault(pulse, word * 3 + Time::from_ns(200));
        let mut golden = build(&cfg);
        let mut faulty = build(&faulty_cfg);
        for b in [&mut golden, &mut faulty] {
            b.mixed.run_until(word * 4 + cfg.clk_period).unwrap();
        }
        let (g4, f4) = (code_of(&golden), code_of(&faulty));
        assert_ne!(g4, f4, "the struck word must differ");
        // The following word is clean again (first-order loop: no memory
        // beyond the integrator, which re-converges within a few cycles).
        for b in [&mut golden, &mut faulty] {
            b.mixed.run_until(word * 6 + cfg.clk_period).unwrap();
        }
        let (g6, f6) = (code_of(&golden), code_of(&faulty));
        assert!(
            (g6 as i64 - f6 as i64).abs() <= 1,
            "word after the strike should be clean: {g6} vs {f6}"
        );
    }

    #[test]
    fn decimator_seu_corrupts_published_word() {
        let cfg = SdmConfig {
            input: AdcInput::Dc(2.5),
            ..SdmConfig::default()
        };
        let word = cfg.word_time();
        let mut bench = build(&cfg);
        bench.mixed.run_until(word * 2 + cfg.clk_period).unwrap();
        let before = code_of(&bench);
        // Flip the MSB of the *published* word (bits code_width.. are code).
        let decim = bench.decimator;
        bench.mixed.digital_mut().flip_state(decim, 6 + 4);
        bench
            .mixed
            .run_until(word * 2 + cfg.clk_period * 2)
            .unwrap();
        let after = code_of(&bench);
        assert_eq!(after, before ^ (1 << 4), "published-word SEU visible");
    }

    #[test]
    fn decimator_widths_and_labels() {
        let d = SincDecimator::new(5, Time::ZERO);
        assert_eq!(d.code_width(), 6);
        assert_eq!(d.osr(), 32);
        assert_eq!(d.state_bits(), 12);
        assert_eq!(d.state_label(0), "count[0]");
        assert_eq!(d.state_label(7), "code[1]");
    }
}
