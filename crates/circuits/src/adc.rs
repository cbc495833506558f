//! Analog-to-digital converters: the paper's future-work target.
//!
//! The conclusion of the paper singles out "functional blocks including both
//! analog and digital circuitry, e.g. analog to digital converters" as the
//! next application of the flow, citing \[9\] (Singh & Koren), whose
//! transistor-level analysis found "that the analog part of the converter can
//! be more sensitive than the digital part". This module provides two
//! behavioural converters to test that claim with the high-level flow:
//!
//! * a 3-bit **flash ADC** — analog comparator bank + digital thermometer
//!   encoder and output register;
//! * a 4-bit **SAR ADC** — digital successive-approximation controller,
//!   digital-to-analog feedback path and an analog comparator.
//!
//! Both expose the same fault surfaces as the PLL: an [`AnalogSaboteur`]
//! contributing an input-referred current strike (through an injection
//! resistance), and mutant state bits in the digital logic.
//!
//! [`AnalogSaboteur`]: amsfi_analog::blocks::AnalogSaboteur

use amsfi_analog::{
    blocks, AnalogBlock, AnalogCircuit, AnalogContext, AnalogSolver, BlockId, NodeKind,
    UnknownParamError,
};
use amsfi_digital::{cells, Component, ComponentId, EvalContext, Netlist, PortSpec, Simulator};
use amsfi_faults::PulseShape;
use amsfi_mixed::MixedSimulator;
use amsfi_waves::{Logic, Time};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Local analog helper blocks
// ---------------------------------------------------------------------------

/// `v_out = v_in + r · i_inj`: adds the voltage drop of an injected current
/// across an injection resistance — the input-referred strike model shared
/// by both converters.
#[derive(Debug, Clone)]
struct CurrentOffset {
    r_ohm: f64,
}

impl AnalogBlock for CurrentOffset {
    fn step(&mut self, ctx: &mut AnalogContext<'_>) {
        let v = ctx.input(0) + self.r_ohm * ctx.input(1);
        ctx.set(0, v);
    }

    fn params(&self) -> Vec<(&'static str, f64)> {
        vec![("r_ohm", self.r_ohm)]
    }

    fn set_param(&mut self, name: &str, value: f64) -> Result<(), UnknownParamError> {
        if name == "r_ohm" {
            self.r_ohm = value;
            Ok(())
        } else {
            Err(UnknownParamError {
                name: name.to_owned(),
            })
        }
    }
}

/// `v_out = Σ wᵢ · vᵢ`: the resistive summing network of the SAR feedback
/// DAC (binary weights over the level-driven bit nodes).
#[derive(Debug, Clone)]
struct WeightedSum {
    weights: Vec<f64>,
}

impl AnalogBlock for WeightedSum {
    fn step(&mut self, ctx: &mut AnalogContext<'_>) {
        let v = self
            .weights
            .iter()
            .enumerate()
            .map(|(i, w)| w * ctx.input(i))
            .sum();
        ctx.set(0, v);
    }
}

// ---------------------------------------------------------------------------
// Digital helper components
// ---------------------------------------------------------------------------

/// Thermometer-to-binary encoder: counts the high inputs (ones-counting is
/// inherently bubble-tolerant). Inputs: `levels` scalar thermometer bits →
/// output: a `ceil(log2(levels+1))`-bit code.
#[derive(Debug, Clone)]
pub struct ThermometerEncoder {
    levels: usize,
    out_width: usize,
    delay: Time,
}

impl ThermometerEncoder {
    /// Creates an encoder for `levels` thermometer inputs.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero.
    pub fn new(levels: usize, delay: Time) -> Self {
        assert!(levels > 0, "need at least one level");
        let out_width = (usize::BITS - levels.leading_zeros()) as usize;
        ThermometerEncoder {
            levels,
            out_width,
            delay,
        }
    }

    /// The binary output width.
    pub fn out_width(&self) -> usize {
        self.out_width
    }
}

impl Component for ThermometerEncoder {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let mut count = 0u64;
        let mut any_meta = false;
        for i in 0..self.levels {
            match ctx.input_bit(i).to_bool() {
                Some(true) => count += 1,
                Some(false) => {}
                None => any_meta = true,
            }
        }
        if any_meta {
            ctx.drive_filled(0, Logic::Unknown, self.out_width, self.delay);
        } else {
            ctx.drive_u64(0, count, self.out_width, self.delay);
        }
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec {
            inputs: (0..self.levels).map(|i| (format!("t{i}"), 1)).collect(),
            outputs: vec![("code".to_owned(), self.out_width)],
        }
    }
}

/// The successive-approximation controller of the SAR ADC.
///
/// Ports: `clk`, `cmp` → `dac_code[bits]`, `result[bits]`, `done`.
///
/// Free-running: each conversion takes `bits + 1` clock cycles (one to load
/// the first trial, one per remaining bit, one to publish). `cmp` high means
/// "input is above the DAC voltage", so the trial bit is kept.
///
/// The approximation register and the bit pointer are exposed as mutant
/// targets: an SEU here corrupts the *digital* half of the converter.
#[derive(Debug, Clone)]
pub struct SarController {
    bits: usize,
    delay: Time,
    acc: u64,
    bit: usize, // bits = idle/publish marker, otherwise the trial bit index
    running: bool,
    prev_clk: Logic,
    result: u64,
}

impl SarController {
    /// Creates a controller for a `bits`-wide conversion.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or above 32.
    pub fn new(bits: usize, delay: Time) -> Self {
        assert!((1..=32).contains(&bits), "bits must be in 1..=32");
        SarController {
            bits,
            delay,
            acc: 0,
            bit: 0,
            running: false,
            prev_clk: Logic::Uninitialized,
            result: 0,
        }
    }
}

impl Component for SarController {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let clk = ctx.input_bit(0);
        let mut done = false;
        if !self.prev_clk.is_high() && clk.is_high() {
            if !self.running {
                // Load the first trial (MSB).
                self.running = true;
                self.bit = self.bits - 1;
                self.acc = 1 << self.bit;
            } else {
                // Resolve the current trial bit from the comparator.
                let keep = ctx.input_bit(1).is_high();
                if !keep {
                    self.acc &= !(1 << self.bit);
                }
                if self.bit == 0 {
                    self.result = self.acc;
                    self.running = false;
                    done = true;
                } else {
                    self.bit -= 1;
                    self.acc |= 1 << self.bit;
                }
            }
        }
        self.prev_clk = clk;
        ctx.drive_u64(0, self.acc, self.bits, self.delay);
        ctx.drive_u64(1, self.result, self.bits, self.delay);
        ctx.drive_bit(2, Logic::from_bool(done), self.delay);
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(
            &[("clk", 1), ("cmp", 1)],
            &[("dac_code", self.bits), ("result", self.bits), ("done", 1)],
        )
    }

    fn state_bits(&self) -> usize {
        self.bits + self.bits // approximation register + published result
    }

    fn flip_state_bit(&mut self, bit: usize) {
        if bit < self.bits {
            self.acc ^= 1 << bit;
        } else {
            self.result ^= 1 << (bit - self.bits);
        }
    }

    fn state_label(&self, bit: usize) -> String {
        if bit < self.bits {
            format!("acc[{bit}]")
        } else {
            format!("result[{}]", bit - self.bits)
        }
    }

    fn state_value(&self) -> Option<u64> {
        Some(self.acc | self.result << self.bits)
    }
}

// ---------------------------------------------------------------------------
// Converter input stimuli
// ---------------------------------------------------------------------------

/// The analog input applied to a converter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdcInput {
    /// A constant level (volts).
    Dc(f64),
    /// A linear ramp from `from` to `to` volts over `over`.
    Ramp {
        /// Start voltage.
        from: f64,
        /// End voltage.
        to: f64,
        /// Ramp duration.
        over: Time,
    },
    /// A sine `offset + amplitude·sin(2π·freq·t)`.
    Sine {
        /// Frequency (Hz).
        freq_hz: f64,
        /// Amplitude (V).
        amplitude: f64,
        /// Offset (V).
        offset: f64,
    },
}

pub(crate) fn add_input(ckt: &mut AnalogCircuit, input: AdcInput, node: amsfi_analog::NodeId) {
    match input {
        AdcInput::Dc(v) => {
            ckt.add("input", blocks::DcSource::new(v), &[], &[node]);
        }
        AdcInput::Ramp { from, to, over } => {
            ckt.add(
                "input",
                blocks::PwlSource::new([(Time::ZERO, from), (over, to)]),
                &[],
                &[node],
            );
        }
        AdcInput::Sine {
            freq_hz,
            amplitude,
            offset,
        } => {
            ckt.add(
                "input",
                blocks::SineSource::new(freq_hz, amplitude, offset),
                &[],
                &[node],
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Flash ADC
// ---------------------------------------------------------------------------

/// Configuration of the 3-bit flash converter.
#[derive(Debug, Clone)]
pub struct FlashAdcConfig {
    /// Full-scale reference (V); thresholds sit at `k·v_ref/8`, `k = 1..=7`.
    pub v_ref: f64,
    /// Output register sampling period.
    pub sample_period: Time,
    /// Analog input stimulus.
    pub input: AdcInput,
    /// Injection resistance for the input-referred current strike (Ω).
    pub r_inj: f64,
    /// Analog base step.
    pub base_dt: Time,
    /// Optional current-pulse fault on the input node.
    pub fault: Option<(Arc<dyn PulseShape>, Time)>,
}

impl Default for FlashAdcConfig {
    fn default() -> Self {
        FlashAdcConfig {
            v_ref: 5.0,
            sample_period: Time::from_ns(100),
            input: AdcInput::Dc(2.2),
            r_inj: 100.0,
            base_dt: Time::from_ns(5),
            fault: None,
        }
    }
}

impl FlashAdcConfig {
    /// Arms the input-referred saboteur.
    #[must_use]
    pub fn with_fault<P: PulseShape + 'static>(mut self, pulse: P, at: Time) -> Self {
        self.fault = Some((Arc::new(pulse), at));
        self
    }
}

/// The built flash converter bench.
#[derive(Debug, Clone)]
pub struct FlashAdcBench {
    /// The coupled simulator.
    pub mixed: MixedSimulator,
    /// The input saboteur block.
    pub saboteur: BlockId,
    /// The digital output register (mutant target).
    pub register: ComponentId,
    /// The thermometer encoder component.
    pub encoder: ComponentId,
}

/// Signal names of the flash bench: sampled output code.
pub const FLASH_CODE: &str = "code_q";

/// Builds the 3-bit flash ADC bench.
pub fn build_flash(config: &FlashAdcConfig) -> FlashAdcBench {
    let mut ckt = AnalogCircuit::new();
    let vin_raw = ckt.node("vin_raw", NodeKind::Voltage);
    let iinj = ckt.node("iinj", NodeKind::Current);
    let vin = ckt.node("vin", NodeKind::Voltage);
    add_input(&mut ckt, config.input, vin_raw);
    let mut sab = blocks::AnalogSaboteur::new();
    if let Some((pulse, at)) = &config.fault {
        sab = sab.with_pulse_arc(Arc::clone(pulse), *at);
    }
    let saboteur = ckt.add("saboteur", sab, &[], &[iinj]);
    ckt.add(
        "front_end",
        CurrentOffset {
            r_ohm: config.r_inj,
        },
        &[vin_raw, iinj],
        &[vin],
    );
    // Comparator bank.
    let mut cmp_nodes = Vec::new();
    for k in 1..=7usize {
        let out = ckt.node(&format!("cmp{k}"), NodeKind::Voltage);
        let threshold = config.v_ref * k as f64 / 8.0;
        ckt.add(
            &format!("comparator{k}"),
            blocks::Comparator::new(threshold, 0.02, 0.0, 5.0),
            &[vin],
            &[out],
        );
        cmp_nodes.push(out);
    }

    let mut net = Netlist::new();
    let clk = net.signal("sample_clk", 1);
    let therm: Vec<_> = (1..=7).map(|k| net.signal(&format!("t{k}"), 1)).collect();
    let code = net.signal("code", 3);
    let rst = net.signal("rst", 1);
    let code_q = net.signal(FLASH_CODE, 3);
    net.add(
        "ck",
        cells::ClockGen::new(config.sample_period),
        &[],
        &[clk],
    );
    net.add("r0", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
    let encoder = net.add(
        "encoder",
        ThermometerEncoder::new(7, Time::ZERO),
        &therm,
        &[code],
    );
    let register = net.add(
        "out_reg",
        cells::Register::new(3, Time::ZERO),
        &[clk, rst, code],
        &[code_q],
    );

    let mut mixed =
        MixedSimulator::new(Simulator::new(net), AnalogSolver::new(ckt, config.base_dt));
    for k in 1..=7usize {
        mixed.bind_digitizer(&format!("cmp{k}"), &format!("t{k}"), 2.5, 0.2);
    }
    FlashAdcBench {
        mixed,
        saboteur,
        register,
        encoder,
    }
}

// ---------------------------------------------------------------------------
// SAR ADC
// ---------------------------------------------------------------------------

/// Configuration of the 4-bit SAR converter.
#[derive(Debug, Clone)]
pub struct SarAdcConfig {
    /// Full-scale reference (V).
    pub v_ref: f64,
    /// Conversion clock period.
    pub clk_period: Time,
    /// Analog input stimulus.
    pub input: AdcInput,
    /// Injection resistance for the input-referred strike (Ω).
    pub r_inj: f64,
    /// Analog base step.
    pub base_dt: Time,
    /// Optional current-pulse fault on the comparator input.
    pub fault: Option<(Arc<dyn PulseShape>, Time)>,
}

impl Default for SarAdcConfig {
    fn default() -> Self {
        SarAdcConfig {
            v_ref: 5.0,
            clk_period: Time::from_ns(100),
            input: AdcInput::Dc(2.2),
            r_inj: 100.0,
            base_dt: Time::from_ns(5),
            fault: None,
        }
    }
}

impl SarAdcConfig {
    /// Arms the input-referred saboteur.
    #[must_use]
    pub fn with_fault<P: PulseShape + 'static>(mut self, pulse: P, at: Time) -> Self {
        self.fault = Some((Arc::new(pulse), at));
        self
    }

    /// Wall-clock duration of one full conversion (bits + 1 clock cycles).
    pub fn conversion_time(&self) -> Time {
        self.clk_period * 5
    }
}

/// The built SAR converter bench.
#[derive(Debug, Clone)]
pub struct SarAdcBench {
    /// The coupled simulator.
    pub mixed: MixedSimulator,
    /// The input saboteur block.
    pub saboteur: BlockId,
    /// The SAR controller (mutant target: approximation register).
    pub controller: ComponentId,
}

/// Signal name of the published SAR result bus.
pub const SAR_RESULT: &str = "result";

/// Builds the 4-bit SAR ADC bench.
pub fn build_sar(config: &SarAdcConfig) -> SarAdcBench {
    const BITS: usize = 4;
    let mut ckt = AnalogCircuit::new();
    let vin_raw = ckt.node("vin_raw", NodeKind::Voltage);
    let iinj = ckt.node("iinj", NodeKind::Current);
    let vin = ckt.node("vin", NodeKind::Voltage);
    add_input(&mut ckt, config.input, vin_raw);
    let mut sab = blocks::AnalogSaboteur::new();
    if let Some((pulse, at)) = &config.fault {
        sab = sab.with_pulse_arc(Arc::clone(pulse), *at);
    }
    let saboteur = ckt.add("saboteur", sab, &[], &[iinj]);
    ckt.add(
        "front_end",
        CurrentOffset {
            r_ohm: config.r_inj,
        },
        &[vin_raw, iinj],
        &[vin],
    );
    // DAC: level-driven bit nodes summed with binary weights.
    let bit_nodes: Vec<_> = (0..BITS)
        .map(|i| ckt.node(&format!("dac_bit{i}"), NodeKind::Voltage))
        .collect();
    let vdac = ckt.node("vdac", NodeKind::Voltage);
    // Bit i driven to 0/5 V; weight so that code/2^BITS scales to v_ref:
    // vdac = sum(bit_i * 2^i) * v_ref / (5 * 2^BITS).
    let weights: Vec<f64> = (0..BITS)
        .map(|i| config.v_ref * (1 << i) as f64 / (5.0 * (1 << BITS) as f64))
        .collect();
    ckt.add("dac_sum", WeightedSum { weights }, &bit_nodes, &[vdac]);
    // Comparator: vin vs vdac, fast pole, 0/5 V rails.
    let vcmp = ckt.node("vcmp", NodeKind::Voltage);
    ckt.add(
        "comparator",
        blocks::OpAmp::new(1e4, 0.0, 5.0, 200e6),
        &[vin, vdac],
        &[vcmp],
    );

    let mut net = Netlist::new();
    let clk = net.signal("clk", 1);
    let cmp = net.signal("cmp", 1);
    let dac_code = net.signal("dac_code", BITS);
    let result = net.signal(SAR_RESULT, BITS);
    let done = net.signal("done", 1);
    net.add("ck", cells::ClockGen::new(config.clk_period), &[], &[clk]);
    let controller = net.add(
        "sar",
        SarController::new(BITS, Time::ZERO),
        &[clk, cmp],
        &[dac_code, result, done],
    );

    let mut mixed =
        MixedSimulator::new(Simulator::new(net), AnalogSolver::new(ckt, config.base_dt));
    // Each dac_code bit drives its DAC leg node.
    for i in 0..BITS {
        mixed.bind_driver_bit("dac_code", i, &format!("dac_bit{i}"), 0.0, 5.0);
    }
    // Comparator decision crosses back into the digital domain.
    mixed.bind_digitizer("vcmp", "cmp", 2.5, 0.2);
    SarAdcBench {
        mixed,
        saboteur,
        controller,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amsfi_faults::TrapezoidPulse;

    fn flash_code(bench: &FlashAdcBench) -> Option<u64> {
        let sig = bench.mixed.digital().signal_id(FLASH_CODE).unwrap();
        bench.mixed.digital().value(sig).to_u64()
    }

    fn sar_result(bench: &SarAdcBench) -> Option<u64> {
        let sig = bench.mixed.digital().signal_id(SAR_RESULT).unwrap();
        bench.mixed.digital().value(sig).to_u64()
    }

    #[test]
    fn the_sar_loop_reaches_its_dac_and_the_flash_back_end_reaches_nothing() {
        // SAR: the controller's register drives the DAC legs, so every SEU
        // in it is an analog fault too.
        let golden = build_sar(&SarAdcConfig::default());
        assert!(golden.mixed.analog_is_clean());
        let targets = golden.mixed.digital().mutant_targets();
        assert!(targets.iter().any(|t| t.component == golden.controller));
        for target in &targets {
            let mut mixed = golden.mixed.clone();
            mixed.digital_mut().flip_state(target.component, target.bit);
            assert!(!mixed.analog_is_clean(), "{target}");
        }

        // Flash: comparators -> encoder -> register, nothing fed back.
        let golden = build_flash(&FlashAdcConfig::default());
        let targets = golden.mixed.digital().mutant_targets();
        assert!(!targets.is_empty());
        for target in &targets {
            let mut mixed = golden.mixed.clone();
            mixed.digital_mut().flip_state(target.component, target.bit);
            assert!(mixed.analog_is_clean(), "{target}");
        }
        let mut mixed = golden.mixed.clone();
        let _ = mixed.digital_mut().component_mut(golden.encoder);
        assert!(mixed.analog_is_clean());
    }

    #[test]
    fn flash_converts_dc_levels_correctly() {
        // Code = number of thresholds below vin = floor(vin * 8 / v_ref),
        // clamped to 7.
        for (vin, expect) in [(0.2, 0u64), (0.7, 1), (2.2, 3), (3.2, 5), (4.9, 7)] {
            let cfg = FlashAdcConfig {
                input: AdcInput::Dc(vin),
                ..FlashAdcConfig::default()
            };
            let mut bench = build_flash(&cfg);
            bench.mixed.run_until(Time::from_us(1)).unwrap();
            assert_eq!(flash_code(&bench), Some(expect), "vin = {vin}");
        }
    }

    #[test]
    fn flash_tracks_a_slow_ramp_monotonically() {
        let cfg = FlashAdcConfig {
            input: AdcInput::Ramp {
                from: 0.0,
                to: 5.0,
                over: Time::from_us(20),
            },
            ..FlashAdcConfig::default()
        };
        let mut bench = build_flash(&cfg);
        let sig = bench.mixed.digital().signal_id(FLASH_CODE).unwrap();
        let mut last = 0u64;
        let mut seen = std::collections::BTreeSet::new();
        for step in 1..=40 {
            bench
                .mixed
                .run_until(Time::from_us(20) * step / 40)
                .unwrap();
            if let Some(code) = bench.mixed.digital().value(sig).to_u64() {
                assert!(code >= last, "ramp must be monotonic: {code} < {last}");
                last = code;
                seen.insert(code);
            }
        }
        assert_eq!(seen.len(), 8, "all codes visited: {seen:?}");
    }

    #[test]
    fn flash_input_strike_corrupts_sampled_code() {
        // A 2 mA pulse across 100 ohm lifts the input by 0.2 V... too small
        // to cross a 0.625 V LSB from mid-code; use 10 mA = 1 V: 1-2 codes.
        let pulse = TrapezoidPulse::from_ma_ps(10.0, 100, 100, 200_000).unwrap();
        // Strike just before a sampling edge (edges at 50, 150, ... ns).
        let cfg = FlashAdcConfig {
            input: AdcInput::Dc(2.2),
            ..FlashAdcConfig::default()
        }
        .with_fault(pulse, Time::from_ns(349_900));
        let mut bench = build_flash(&cfg);
        let sig = bench.mixed.digital().signal_id(FLASH_CODE).unwrap();
        bench.mixed.run_until(Time::from_ns(340_000)).unwrap();
        assert_eq!(bench.mixed.digital().value(sig).to_u64(), Some(3));
        // The 200 ns pulse spans the 350.05 us edge: the register samples a
        // wrong code.
        bench.mixed.run_until(Time::from_ns(350_080)).unwrap();
        let corrupted = bench.mixed.digital().value(sig).to_u64().unwrap();
        assert!(corrupted > 3, "strike must raise the code: {corrupted}");
        // After the pulse the next sample is clean again.
        bench.mixed.run_until(Time::from_ns(360_000)).unwrap();
        assert_eq!(bench.mixed.digital().value(sig).to_u64(), Some(3));
    }

    #[test]
    fn arming_in_place_equals_arming_at_build() {
        // A 1 V lift across the 2 950 ns and 3 050 ns sampling edges.
        let at = Time::from_ns(2_900);
        let end = Time::from_ns(3_500);
        let pulse = TrapezoidPulse::from_ma_ps(10.0, 100, 100, 200_000).unwrap();
        let cfg = FlashAdcConfig {
            input: AdcInput::Dc(2.2),
            ..FlashAdcConfig::default()
        };
        let run = |cfg: &FlashAdcConfig, arm: Option<&dyn Fn(&mut FlashAdcBench)>| {
            let mut bench = build_flash(cfg);
            bench.mixed.digital_mut().monitor_name(FLASH_CODE);
            bench.mixed.run_until(at).unwrap();
            if let Some(arm) = arm {
                arm(&mut bench);
            }
            bench.mixed.run_until(end).unwrap();
            bench.mixed.merged_trace()
        };

        // Reference: saboteur armed when the bench is built.
        let built = run(&cfg.clone().with_fault(pulse, at), None);
        // Same pulse armed mid-run on a disarmed bench, pausing at the
        // injection instant so both runs share the stop sequence.
        let arm = |bench: &mut FlashAdcBench| {
            bench
                .mixed
                .analog_mut()
                .arm_saboteur(bench.saboteur, Arc::new(pulse), at);
        };
        let armed = run(&cfg, Some(&arm));

        assert_ne!(built, run(&cfg, None), "the strike must show");
        assert_eq!(armed, built);
    }

    #[test]
    fn sar_converges_to_dc_input() {
        // 4-bit over 5 V: LSB = 0.3125 V. vin = 2.2 V -> code 7 (2.1875 V).
        for (vin, expect) in [(0.1, 0u64), (1.0, 3), (2.2, 7), (3.4, 10), (4.8, 15)] {
            let cfg = SarAdcConfig {
                input: AdcInput::Dc(vin),
                ..SarAdcConfig::default()
            };
            let mut bench = build_sar(&cfg);
            // Two full conversions to be safe.
            bench.mixed.run_until(cfg.conversion_time() * 3).unwrap();
            assert_eq!(sar_result(&bench), Some(expect), "vin = {vin}");
        }
    }

    #[test]
    fn sar_seu_in_accumulator_corrupts_one_conversion() {
        let cfg = SarAdcConfig {
            input: AdcInput::Dc(2.2),
            ..SarAdcConfig::default()
        };
        let mut bench = build_sar(&cfg);
        let conv = cfg.conversion_time();
        bench.mixed.run_until(conv * 2).unwrap();
        assert_eq!(sar_result(&bench), Some(7));
        // Flip the MSB of the approximation register *after* its trial has
        // been resolved (a flip during the trial is re-resolved by the
        // comparator and masked): load edge, MSB edge, then strike.
        let controller = bench.controller;
        bench
            .mixed
            .run_until(conv * 2 + cfg.clk_period + cfg.clk_period / 2)
            .unwrap();
        bench.mixed.digital_mut().flip_state(controller, 3);
        bench.mixed.run_until(conv * 3 + cfg.clk_period).unwrap();
        let corrupted = sar_result(&bench);
        assert_ne!(corrupted, Some(7), "SEU must corrupt the conversion");
        // The following conversion is clean: the error was transient.
        bench.mixed.run_until(conv * 5).unwrap();
        assert_eq!(sar_result(&bench), Some(7));
    }

    #[test]
    fn thermometer_encoder_counts_ones() {
        use amsfi_digital::{Netlist, Simulator};
        let mut net = Netlist::new();
        let bits: Vec<_> = (0..7).map(|i| net.signal(&format!("b{i}"), 1)).collect();
        let code = net.signal("code", 3);
        for (i, &b) in bits.iter().enumerate() {
            let v = if i < 5 { Logic::One } else { Logic::Zero };
            net.add(&format!("c{i}"), cells::ConstVector::bit(v), &[], &[b]);
        }
        net.add(
            "enc",
            ThermometerEncoder::new(7, Time::ZERO),
            &bits,
            &[code],
        );
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_ns(1)).unwrap();
        assert_eq!(sim.value(code).to_u64(), Some(5));
    }

    #[test]
    fn sar_controller_mutant_labels() {
        let sar = SarController::new(4, Time::ZERO);
        assert_eq!(sar.state_bits(), 8);
        assert_eq!(sar.state_label(3), "acc[3]");
        assert_eq!(sar.state_label(5), "result[1]");
    }
}
