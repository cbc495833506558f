//! The behavioural PLL of the paper's Fig. 5, with its digital payload.
//!
//! Hierarchy (paper names in parentheses):
//!
//! ```text
//!  f_ref ──► SequentialPfd ──► up/dn ──► ChargePump ──► icp ──► LeadLagFilter
//!  (F_in)    (Sequential        │          (Charge      ▲        (Low-pass
//!            Phase-frequency    │           Pump)       │         Filter)
//!            Detector)          │                  AnalogSaboteur │
//!    ▲                          │              (current pulse     ▼
//!    │                          │               injection)      vctrl
//!    fb ◄── ClockDivider ◄── f_out ◄── Digitizer ◄── vco_out ◄── Vco
//!           (Divider)         (F_out)  (Comparator,              (Analog VCO)
//!                                       Threshold 2.5 V)
//! ```
//!
//! Operating point from the paper: 500 kHz reference, ÷100 feedback,
//! 50 MHz / 20 ns generated clock, 2.5 V digitizer threshold. The injections
//! of Figs. 6–8 land on the `icp` node (charge-pump output / filter input).

use crate::pfd::SequentialPfd;
use amsfi_analog::{blocks, AnalogCircuit, AnalogSolver, BlockId, NodeKind};
use amsfi_digital::{cells, Netlist, Simulator};
use amsfi_faults::PulseShape;
use amsfi_mixed::MixedSimulator;
use amsfi_waves::{measure, Follow, ForkableSim, SimTape, Time, Trace};
use std::sync::Arc;

/// Parameters of the PLL test bench. [`PllConfig::default`] reproduces the
/// paper's operating point with loop dynamics that lock comfortably before
/// the paper's 0.17 ms injection instant.
#[derive(Debug, Clone)]
pub struct PllConfig {
    /// Reference frequency (paper: 500 kHz).
    pub f_ref_hz: f64,
    /// Feedback division ratio (paper: 100, for a 50 MHz output).
    pub divide: u64,
    /// Charge-pump current (A).
    pub icp_a: f64,
    /// Loop-filter resistor (Ω).
    pub r_ohm: f64,
    /// Loop-filter zero capacitor (F).
    pub c1_f: f64,
    /// Loop-filter ripple capacitor (F).
    pub c2_f: f64,
    /// VCO sensitivity (Hz/V).
    pub kvco_hz_per_v: f64,
    /// VCO centre frequency (Hz) at `v_center`.
    pub f0_hz: f64,
    /// Control voltage for `f0_hz` (paper digitizer threshold: 2.5 V).
    pub v_center: f64,
    /// Digitizer threshold (paper: 2.5 V).
    pub threshold_v: f64,
    /// Digitizer hysteresis band (V).
    pub hysteresis_v: f64,
    /// Initial control voltage (pre-charged loop filter).
    pub initial_vctrl: f64,
    /// Analog base step.
    pub base_dt: Time,
    /// Instantiate the digital payload block clocked by `f_out`.
    pub payload: bool,
    /// Optional current-pulse fault on the `icp` node: `(pulse, time)`.
    pub fault: Option<(Arc<dyn PulseShape>, Time)>,
}

impl Default for PllConfig {
    fn default() -> Self {
        PllConfig {
            f_ref_hz: 500e3,
            divide: 100,
            icp_a: 200e-6,
            r_ohm: 20e3,
            c1_f: 1e-9,
            c2_f: 50e-12,
            kvco_hz_per_v: 30e6,
            f0_hz: 50e6,
            v_center: 2.5,
            threshold_v: 2.5,
            hysteresis_v: 0.2,
            initial_vctrl: 2.0,
            base_dt: Time::from_ns(1),
            payload: false,
            fault: None,
        }
    }
}

impl PllConfig {
    /// Arms the built-in saboteur on the filter input with `pulse` at `at`
    /// (the paper's injection location for Figs. 6–8).
    #[must_use]
    pub fn with_fault<P: PulseShape + 'static>(mut self, pulse: P, at: Time) -> Self {
        self.fault = Some((Arc::new(pulse), at));
        self
    }

    /// A fast-locking variant for campaigns and tests: 5 MHz reference,
    /// ÷10 feedback — the same 50 MHz generated clock as the paper's
    /// operating point, but with a 10x wider loop bandwidth so that the PLL
    /// locks within a few microseconds of simulated time.
    pub fn fast() -> Self {
        PllConfig {
            f_ref_hz: 5e6,
            divide: 10,
            icp_a: 500e-6,
            r_ohm: 10e3,
            c1_f: 200e-12,
            c2_f: 30e-12,
            initial_vctrl: 2.3,
            ..PllConfig::default()
        }
    }

    /// Nominal output period `divide / f_ref`.
    pub fn nominal_period(&self) -> Time {
        Time::from_secs_f64(1.0 / (self.f_ref_hz * self.divide as f64))
    }
}

/// Well-known signal and node names of the built PLL bench.
pub mod names {
    /// Digital reference clock (the paper's `F_in`).
    pub const F_REF: &str = "f_ref";
    /// Divided feedback clock.
    pub const FB: &str = "fb";
    /// PFD UP output (digital).
    pub const UP: &str = "up";
    /// PFD DOWN output (digital).
    pub const DN: &str = "dn";
    /// Generated clock (the paper's `F_out`, digitizer output).
    pub const F_OUT: &str = "f_out";
    /// Charge-pump output / loop-filter input current node — the paper's
    /// injection target.
    pub const ICP: &str = "icp";
    /// VCO control voltage (the "VCO input" plotted in Figs. 6–8).
    pub const VCTRL: &str = "vctrl";
    /// Raw VCO output voltage.
    pub const VCO_OUT: &str = "vco_out";
    /// Payload counter bus (when the payload is instantiated).
    pub const COUNT: &str = "count";
    /// Payload shift-register bus.
    pub const SHIFT: &str = "shift";
    /// Payload shift-register serial output.
    pub const SHIFT_OUT: &str = "shift_out";
    /// Payload parity bit.
    pub const PARITY: &str = "parity";
}

/// The built PLL test bench: the mixed-mode simulator plus the ids needed
/// for instrumentation.
#[derive(Debug, Clone)]
pub struct PllBench {
    /// The coupled simulator, ready to run.
    pub mixed: MixedSimulator,
    /// The saboteur block on the `icp` node (armed or transparent).
    pub saboteur: BlockId,
    /// The PFD component (digital mutant target).
    pub pfd: amsfi_digital::ComponentId,
    /// The divider component (digital mutant target).
    pub divider: amsfi_digital::ComponentId,
    /// Payload component ids, in instantiation order, when built with
    /// `payload: true`: counter, parity, shift register.
    pub payload: Vec<amsfi_digital::ComponentId>,
    nominal_period: Time,
}

impl PllBench {
    /// Monitors the signals the paper's figures plot: `vctrl` (VCO input),
    /// `f_out`, `fb`, and the payload outputs when present.
    pub fn monitor_standard(&mut self) {
        self.mixed.analog_mut().monitor_name(names::VCTRL);
        self.mixed.digital_mut().monitor_name(names::F_OUT);
        self.mixed.digital_mut().monitor_name(names::FB);
        if !self.payload.is_empty() {
            self.mixed.digital_mut().monitor_name(names::COUNT);
            self.mixed.digital_mut().monitor_name(names::SHIFT_OUT);
        }
    }

    /// Runs until `t_end`.
    ///
    /// # Errors
    ///
    /// Propagates digital kernel errors.
    pub fn run_until(&mut self, t_end: Time) -> Result<(), amsfi_digital::SimError> {
        self.mixed.run_until(t_end)
    }

    /// The current VCO control voltage.
    pub fn vctrl(&self) -> f64 {
        let node = self.mixed.analog().node_id(names::VCTRL).expect("built");
        self.mixed.analog().value(node)
    }

    /// The merged digital + analog trace.
    pub fn trace(&self) -> Trace {
        self.mixed.merged_trace()
    }

    /// The nominal generated-clock period (20 ns at the paper's operating
    /// point).
    pub fn nominal_period(&self) -> Time {
        self.nominal_period
    }

    /// Mean `f_out` frequency over `[from, to]`, from the recorded trace
    /// (requires [`PllBench::monitor_standard`] before running).
    pub fn measured_fout(&self, from: Time, to: Time) -> Option<f64> {
        let trace = self.mixed.digital().trace();
        measure::mean_frequency(trace.digital(names::F_OUT)?, from, to)
    }

    /// Installs a [`amsfi_waves::SimBudget`] on the co-simulation loop (see
    /// [`MixedSimulator::set_budget`]): step/deadline budgets, the `min_dt`
    /// timestep floor and the per-step non-finite node scan all apply to
    /// every subsequent [`PllBench::run_until`].
    pub fn set_budget(&mut self, budget: amsfi_waves::SimBudget) {
        self.mixed.set_budget(budget);
    }

    /// Arms (or re-arms) the built-in saboteur on the `icp` node in place:
    /// inject `pulse` at `at`. Campaigns build the bench once, disarmed,
    /// and arm the per-case pulse on a forked copy.
    pub fn arm_saboteur(&mut self, pulse: Arc<dyn PulseShape>, at: Time) {
        self.mixed
            .analog_mut()
            .arm_saboteur(self.saboteur, pulse, at);
    }
}

impl ForkableSim for PllBench {
    type Error = amsfi_digital::SimError;

    fn advance_to(&mut self, t: Time) -> Result<(), amsfi_digital::SimError> {
        self.mixed.run_until(t)
    }

    fn current_time(&self) -> Time {
        self.mixed.now()
    }

    fn snapshot_trace(&self) -> Trace {
        self.mixed.merged_trace()
    }

    fn install_budget(&mut self, budget: amsfi_waves::SimBudget) {
        self.set_budget(budget);
    }

    fn install_observer(&mut self, observer: amsfi_waves::SimObserver) {
        self.mixed.install_observer(observer);
    }

    fn lead_to(&mut self, t: Time) -> Result<Option<SimTape>, amsfi_digital::SimError> {
        ForkableSim::lead_to(&mut self.mixed, t)
    }

    fn follow(&mut self, tape: &SimTape) -> Result<Follow, amsfi_digital::SimError> {
        ForkableSim::follow(&mut self.mixed, tape)
    }
}

/// Builds the paper's PLL test bench from a configuration.
///
/// # Examples
///
/// ```no_run
/// use amsfi_circuits::pll;
/// use amsfi_waves::Time;
///
/// let mut bench = pll::build(&pll::PllConfig::default());
/// bench.monitor_standard();
/// bench.run_until(Time::from_us(100))?;
/// let f = bench.measured_fout(Time::from_us(80), Time::from_us(100)).unwrap();
/// assert!((f - 50e6).abs() / 50e6 < 0.01);
/// # Ok::<(), amsfi_digital::SimError>(())
/// ```
pub fn build(config: &PllConfig) -> PllBench {
    assert!(
        config.divide >= 2 && config.divide.is_multiple_of(2),
        "divide must be even"
    );
    // ---- digital half -------------------------------------------------
    let mut net = Netlist::new();
    let f_ref = net.signal(names::F_REF, 1);
    let fb = net.signal(names::FB, 1);
    let up = net.signal(names::UP, 1);
    let dn = net.signal(names::DN, 1);
    let f_out = net.signal(names::F_OUT, 1); // driven by the digitizer
    let ref_period = Time::from_secs_f64(1.0 / config.f_ref_hz);
    net.add("refclk", cells::ClockGen::new(ref_period), &[], &[f_ref]);
    let pfd = net.add("pfd", SequentialPfd::default(), &[f_ref, fb], &[up, dn]);
    let divider = net.add(
        "divider",
        cells::ClockDivider::new(config.divide, Time::ZERO),
        &[f_out],
        &[fb],
    );
    let mut payload_ids = Vec::new();
    if config.payload {
        let rst = net.signal("payload_rst", 1);
        let en = net.signal("payload_en", 1);
        let count = net.signal(names::COUNT, 8);
        let parity = net.signal(names::PARITY, 1);
        let shift = net.signal(names::SHIFT, 8);
        let shift_out = net.signal(names::SHIFT_OUT, 1);
        net.add(
            "rst0",
            cells::ConstVector::bit(amsfi_waves::Logic::Zero),
            &[],
            &[rst],
        );
        net.add(
            "en1",
            cells::ConstVector::bit(amsfi_waves::Logic::One),
            &[],
            &[en],
        );
        let ctr = net.add(
            "payload_counter",
            cells::Counter::new(8, Time::ZERO),
            &[f_out, rst, en],
            &[count],
        );
        let par = net.add(
            "payload_parity",
            cells::Parity::new(8, Time::ZERO),
            &[count],
            &[parity],
        );
        let sr = net.add(
            "payload_shift",
            cells::ShiftReg::new(8, Time::ZERO),
            &[f_out, parity],
            &[shift, shift_out],
        );
        payload_ids.extend([ctr, par, sr]);
    }

    // ---- analog half ---------------------------------------------------
    let mut ckt = AnalogCircuit::new();
    let up_v = ckt.node("up_v", NodeKind::Voltage);
    let dn_v = ckt.node("dn_v", NodeKind::Voltage);
    let icp = ckt.node(names::ICP, NodeKind::Current);
    let vctrl = ckt.node(names::VCTRL, NodeKind::Voltage);
    let vco_out = ckt.node(names::VCO_OUT, NodeKind::Voltage);
    ckt.add(
        "charge_pump",
        blocks::ChargePump::symmetric(config.icp_a),
        &[up_v, dn_v],
        &[icp],
    );
    let mut sab = blocks::AnalogSaboteur::new();
    if let Some((pulse, at)) = &config.fault {
        sab = sab.with_pulse_arc(Arc::clone(pulse), *at);
    }
    let saboteur = ckt.add("saboteur", sab, &[], &[icp]);
    ckt.add(
        "loop_filter",
        blocks::LeadLagFilter::new(config.r_ohm, config.c1_f, config.c2_f)
            .with_initial(config.initial_vctrl),
        &[icp],
        &[vctrl],
    );
    ckt.add(
        "vco",
        blocks::Vco::new(
            config.f0_hz,
            config.kvco_hz_per_v,
            config.v_center,
            config.v_center, // amplitude: swing 0 .. 2·v_center
            config.v_center, // offset
        ),
        &[vctrl],
        &[vco_out],
    );

    // ---- couple the domains ---------------------------------------------
    let mut mixed =
        MixedSimulator::new(Simulator::new(net), AnalogSolver::new(ckt, config.base_dt));
    mixed.bind_driver(names::UP, "up_v", 0.0, 5.0);
    mixed.bind_driver(names::DN, "dn_v", 0.0, 5.0);
    mixed.bind_digitizer(
        names::VCO_OUT,
        names::F_OUT,
        config.threshold_v,
        config.hysteresis_v,
    );
    PllBench {
        mixed,
        saboteur,
        pfd,
        divider,
        payload: payload_ids,
        nominal_period: config.nominal_period(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> PllConfig {
        PllConfig::fast()
    }

    #[test]
    fn fast_pll_locks_to_n_times_reference() {
        let mut bench = build(&fast_config());
        bench.monitor_standard();
        bench.run_until(Time::from_us(30)).unwrap();
        let f = bench
            .measured_fout(Time::from_us(25), Time::from_us(30))
            .expect("edges");
        assert!(
            (f - 50e6).abs() / 50e6 < 5e-3,
            "locked frequency {f:.3e} should be 50 MHz"
        );
        // Mean control voltage near the VCO centre. (The instantaneous
        // value carries charge-pump ripple on the small C2, so average.)
        let w = bench.trace();
        let vctrl = w.analog(names::VCTRL).unwrap();
        let samples: Vec<f64> = vctrl
            .samples()
            .iter()
            .filter(|(t, _)| *t >= Time::from_us(25))
            .map(|&(_, v)| v)
            .collect();
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 2.5).abs() < 0.15, "mean vctrl {mean}");
    }

    #[test]
    fn locked_pll_divider_tracks_reference() {
        let mut bench = build(&fast_config());
        bench.monitor_standard();
        bench.run_until(Time::from_us(30)).unwrap();
        let trace = bench.mixed.digital().trace();
        let fb_f = measure::mean_frequency(
            trace.digital(names::FB).unwrap(),
            Time::from_us(25),
            Time::from_us(30),
        )
        .unwrap();
        assert!((fb_f - 5e6).abs() / 5e6 < 5e-3, "fb {fb_f:.3e}");
    }

    #[test]
    fn transparent_saboteur_does_not_change_lock() {
        let clean = {
            let mut b = build(&fast_config());
            b.run_until(Time::from_us(20)).unwrap();
            b.vctrl()
        };
        let instrumented = {
            // Explicitly no fault: the saboteur block exists but is inert.
            let cfg = fast_config();
            assert!(cfg.fault.is_none());
            let mut b = build(&cfg);
            b.run_until(Time::from_us(20)).unwrap();
            b.vctrl()
        };
        assert_eq!(clean, instrumented);
    }

    #[test]
    fn payload_counts_generated_clock() {
        let mut cfg = fast_config();
        cfg.payload = true;
        let mut bench = build(&cfg);
        bench.monitor_standard();
        bench.run_until(Time::from_us(10)).unwrap();
        let count = bench
            .mixed
            .digital()
            .value(bench.mixed.digital().signal_id(names::COUNT).unwrap())
            .to_u64()
            .expect("binary count");
        // ~10 us at ~50 MHz: hundreds of edges, modulo 256.
        assert!(count > 0, "payload counter never ticked");
        assert_eq!(bench.payload.len(), 3);
    }

    #[test]
    fn injected_pulse_perturbs_control_voltage() {
        let pulse = amsfi_faults::TrapezoidPulse::from_ma_ps(10.0, 100, 300, 500).unwrap();
        let at = Time::from_us(20);
        let mut faulty = build(&fast_config().with_fault(pulse, at));
        faulty.monitor_standard();
        faulty.run_until(Time::from_us(25)).unwrap();
        let mut golden = build(&fast_config());
        golden.monitor_standard();
        golden.run_until(Time::from_us(25)).unwrap();
        let dev = measure::deviation(
            golden.trace().analog(names::VCTRL).unwrap(),
            faulty.trace().analog(names::VCTRL).unwrap(),
            at - Time::from_us(1),
            Time::from_us(25),
            5e-3,
        );
        assert!(dev.peak > 0.05, "peak deviation {} too small", dev.peak);
        // The perturbation outlives the 800 ps pulse by orders of magnitude.
        assert!(
            dev.duration() > Time::from_ns(100),
            "duration {}",
            dev.duration()
        );
    }

    #[test]
    fn arming_in_place_equals_arming_at_build() {
        let at = Time::from_us(20);
        let end = Time::from_us(22);
        let pulse = amsfi_faults::TrapezoidPulse::from_ma_ps(10.0, 100, 300, 500).unwrap();

        // Reference: saboteur armed when the bench is built.
        let mut built = build(&fast_config().with_fault(pulse, at));
        built.monitor_standard();
        built.run_until(at).unwrap();
        built.run_until(end).unwrap();

        // Same pulse armed mid-run on a disarmed bench, pausing at the
        // injection instant so both runs share the stop sequence.
        let mut armed = build(&fast_config());
        armed.monitor_standard();
        armed.run_until(at).unwrap();
        armed.arm_saboteur(Arc::new(pulse), at);
        armed.run_until(end).unwrap();

        assert_eq!(armed.trace(), built.trace());
    }

    #[test]
    fn forked_bench_equals_scratch_bench() {
        let stop = Time::from_us(5);
        let end = Time::from_us(8);
        let mut golden = build(&fast_config());
        golden.monitor_standard();
        golden.advance_to(stop).unwrap();
        let cp = amsfi_waves::Checkpoint::capture(&golden);

        let mut fork = cp.fork();
        fork.advance_to(end).unwrap();

        let mut scratch = build(&fast_config());
        scratch.monitor_standard();
        scratch.advance_to(stop).unwrap();
        scratch.advance_to(end).unwrap();
        assert_eq!(fork.snapshot_trace(), scratch.snapshot_trace());
    }

    #[test]
    fn only_faults_in_the_loop_reach_the_analog_half() {
        let mut cfg = fast_config();
        cfg.payload = true;
        let golden = build(&cfg);
        assert!(golden.mixed.analog_is_clean());
        let targets = golden.mixed.digital().mutant_targets();
        assert_eq!(targets.len(), 22);
        // The PFD and the divider feed `up`/`dn`; the payload hangs off
        // `f_out` and feeds nothing back.
        let mut behind_the_cut = 0;
        for target in &targets {
            let mut bench = golden.clone();
            bench
                .mixed
                .digital_mut()
                .flip_state(target.component, target.bit);
            let in_loop = target.component == golden.pfd || target.component == golden.divider;
            assert_eq!(bench.mixed.analog_is_clean(), !in_loop, "{target}");
            behind_the_cut += usize::from(!in_loop);
        }
        assert_eq!(behind_the_cut, 16);

        // A component handed out for arming counts as written, wherever the
        // fault it is armed with would go; so does a forced clock edge
        // (`f_out` clocks the divider) and an armed analog saboteur.
        let mut bench = golden.clone();
        let _ = bench.mixed.digital_mut().component_mut(golden.payload[2]);
        assert!(bench.mixed.analog_is_clean());
        let _ = bench.mixed.digital_mut().component_mut(golden.divider);
        assert!(!bench.mixed.analog_is_clean());

        let mut bench = golden.clone();
        let f_out = bench.mixed.digital().signal_id(names::F_OUT).unwrap();
        let one = amsfi_waves::LogicVector::filled(amsfi_waves::Logic::One, 1);
        bench
            .mixed
            .digital_mut()
            .inject_value(f_out, one, Time::ZERO);
        assert!(!bench.mixed.analog_is_clean());

        let mut bench = golden.clone();
        let pulse = amsfi_faults::TrapezoidPulse::from_ma_ps(10.0, 100, 300, 500).unwrap();
        bench.arm_saboteur(Arc::new(pulse), Time::from_us(1));
        assert!(!bench.mixed.analog_is_clean());
    }

    #[test]
    fn budget_guard_interrupts_the_bench() {
        use amsfi_waves::{GuardViolation, SimBudget};
        let mut bench = build(&fast_config());
        bench.install_budget(SimBudget::unlimited().with_max_steps(100));
        let err = bench.run_until(Time::from_us(30)).unwrap_err();
        assert!(matches!(
            err,
            amsfi_digital::SimError::Guard(GuardViolation::StepBudgetExhausted { .. })
        ));
    }

    #[test]
    fn build_rejects_odd_divider() {
        let result = std::panic::catch_unwind(|| {
            let cfg = PllConfig {
                divide: 3,
                ..PllConfig::default()
            };
            build(&cfg)
        });
        assert!(result.is_err());
    }
}
