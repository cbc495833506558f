//! What the paper-figure binaries (`fig1`, `fig6`, `fig7`, `fig8`) compute:
//! the numbers EXPERIMENTS.md quotes and the CSV text committed under
//! `results/`. The binaries only print and write these; the tier-1 test
//! `tests/figures.rs` asserts the paper's claims on the same values.

use amsfi_circuits::pll::{self, names};
use amsfi_faults::{DoubleExponential, PulseShape, TrapezoidPulse};
use amsfi_waves::measure::{self, Deviation};
use amsfi_waves::{Time, Trace};
use std::fmt::Write as _;

/// End of every PLL transient (the paper's 0.2 ms).
const T_END: Time = Time::from_us(200);
/// Injection instant, after lock (the paper's 0.17 ms).
pub const T_INJECT: Time = Time::from_us(170);
/// Start of the window disturbances are measured over.
const T_MEASURE: Time = Time::from_us(165);
/// Nominal period of the generated 50 MHz clock.
const CLOCK_PERIOD: Time = Time::from_ns(20);

/// Runs the PLL to [`T_END`] with the standard monitors.
fn run_pll(config: pll::PllConfig) -> Trace {
    let mut bench = pll::build(&config);
    bench.monitor_standard();
    bench.run_until(T_END).expect("simulation");
    bench.trace()
}

/// The paper PLL, unstruck.
fn golden_pll() -> Trace {
    run_pll(pll::PllConfig::default())
}

/// The paper PLL struck by `pulse` on the loop-filter input at [`T_INJECT`].
fn struck_pll(pulse: impl PulseShape + 'static) -> Trace {
    run_pll(pll::PllConfig::default().with_fault(pulse, T_INJECT))
}

/// The Fig. 1b source pulse: a 10 mA double exponential.
fn paper_double_exponential() -> DoubleExponential {
    DoubleExponential::from_peak(10e-3, Time::from_ps(50), Time::from_ps(200))
        .expect("valid double exponential")
}

/// The disturbance of the VCO input (above `threshold` volts) and the
/// number of generated-clock cycles off by more than `period_tolerance`.
fn disturbance(
    golden: &Trace,
    faulty: &Trace,
    threshold: f64,
    period_tolerance: Time,
) -> (Deviation, usize, Option<Time>) {
    let dev = measure::deviation(
        golden.analog(names::VCTRL).expect("monitored"),
        faulty.analog(names::VCTRL).expect("monitored"),
        T_MEASURE,
        T_END,
        threshold,
    );
    let (cycles, worst) = measure::perturbed_cycles(
        faulty.digital(names::F_OUT).expect("monitored"),
        T_MEASURE,
        T_END,
        CLOCK_PERIOD,
        period_tolerance,
    );
    (dev, cycles, worst)
}

/// Fig. 1: the trapezoid model and its fit to the double exponential.
#[derive(Debug)]
pub struct Fig1 {
    /// The paper's reference trapezoid (10 mA, 100/300/500 ps).
    pub reference: TrapezoidPulse,
    /// The double-exponential source pulse.
    pub de: DoubleExponential,
    /// The trapezoid fitted to `de`.
    pub fitted: TrapezoidPulse,
    /// Largest pointwise current difference between `de` and `fitted` [A].
    pub max_diff: f64,
    /// `fig1_pulse_fit.csv`.
    pub csv: String,
}

impl Fig1 {
    /// Relative error of the fitted peak.
    pub fn peak_error(&self) -> f64 {
        (self.de.peak() - self.fitted.peak()).abs() / self.de.peak()
    }

    /// Relative error of the fitted charge.
    pub fn charge_error(&self) -> f64 {
        (self.de.charge() - self.fitted.charge()).abs() / self.de.charge()
    }
}

/// Computes Fig. 1.
pub fn fig1() -> Fig1 {
    let reference = TrapezoidPulse::from_ma_ps(10.0, 100, 300, 500).expect("valid paper pulse");
    let de = paper_double_exponential();
    let fitted = TrapezoidPulse::fit(&de);
    // Overlay both shapes numerically: CSV with both columns.
    let support = de.support().max(fitted.support());
    let mut csv = String::from("time_ps,double_exp_ma,trapezoid_ma\n");
    let steps = 400;
    let mut max_diff: f64 = 0.0;
    for i in 0..=steps {
        let t = Time::from_fs(support.as_fs() * i / steps);
        let a = de.current(t);
        let b = fitted.current(t);
        max_diff = max_diff.max((a - b).abs());
        let _ = writeln!(csv, "{},{},{}", t.as_ps_f64(), a * 1e3, b * 1e3);
    }
    Fig1 {
        reference,
        de,
        fitted,
        max_diff,
        csv,
    }
}

/// Fig. 6: the reference pulse injected into the locked PLL.
#[derive(Debug)]
pub struct Fig6 {
    /// The injected pulse (10 mA, 100/300/500 ps).
    pub pulse: TrapezoidPulse,
    /// The unstruck run.
    pub golden: Trace,
    /// The struck run.
    pub faulty: Trace,
    /// VCO-input deviation above 10 mV.
    pub deviation: Deviation,
    /// Generated-clock cycles with more than 100 ps of period error.
    pub perturbed_cycles: usize,
    /// The worst such period.
    pub worst_period: Option<Time>,
    /// Mean generated frequency over the 19 µs before the strike [Hz].
    pub locked_hz: f64,
    /// `fig6_fout_periods.csv`: per-cycle periods around the injection.
    pub periods_csv: String,
    /// `fig6_vctrl.csv`: the struck run's analog signals.
    pub vctrl_csv: String,
}

impl Fig6 {
    /// How many pulse supports the VCO-input perturbation lasts.
    pub fn duration_over_support(&self) -> f64 {
        self.deviation.duration().as_secs_f64() / self.pulse.support().as_secs_f64()
    }
}

/// Computes Fig. 6.
pub fn fig6() -> Fig6 {
    let pulse = TrapezoidPulse::from_ma_ps(10.0, 100, 300, 500).expect("paper pulse");
    let golden = golden_pll();
    let faulty = struck_pll(pulse);
    let (deviation, perturbed_cycles, worst_period) =
        disturbance(&golden, &faulty, 0.01, Time::from_ps(100));
    let g_out = golden.digital(names::F_OUT).expect("monitored");
    let locked_hz =
        measure::mean_frequency(g_out, Time::from_us(150), Time::from_us(169)).expect("locked");
    // Per-cycle period series around the injection, the clock-frequency
    // perturbation the figure shows on F_out.
    let mut periods_csv = String::from("cycle_start_s,period_ns_golden,period_ns_faulty\n");
    let faulty_periods = measure::periods(faulty.digital(names::F_OUT).expect("monitored"));
    for ((gs, gp), (_, fp)) in measure::periods(g_out).iter().zip(&faulty_periods) {
        if *gs >= Time::from_us(169) && *gs <= Time::from_us(185) {
            let _ = writeln!(
                periods_csv,
                "{},{},{}",
                gs.as_secs_f64(),
                gp.as_ns_f64(),
                fp.as_ns_f64()
            );
        }
    }
    let vctrl_csv = faulty.analog_csv(T_MEASURE, Time::from_us(190), CLOCK_PERIOD);
    Fig6 {
        pulse,
        golden,
        faulty,
        deviation,
        perturbed_cycles,
        worst_period,
        locked_hz,
        periods_csv,
        vctrl_csv,
    }
}

/// One struck run's system-level disturbance, as Figs. 7 and 8 tabulate it:
/// VCO-input deviation above 20 mV and generated-clock cycles off by more
/// than 200 ps (which counts the clearly perturbed cycles and is
/// insensitive to the marginal ring-down tail flickering at the bound).
#[derive(Debug)]
pub struct Disturbance {
    /// Row label (the pulse parameters).
    pub label: String,
    /// Injected charge [pC].
    pub charge_pc: f64,
    /// Peak VCO-input deviation [V].
    pub peak: f64,
    /// Time the deviation stays above 20 mV.
    pub duration: Time,
    /// Integrated absolute deviation [V·s].
    pub area: f64,
    /// Perturbed generated-clock cycles.
    pub cycles: usize,
    /// The struck run.
    pub faulty: Trace,
}

impl Disturbance {
    fn of(golden: &Trace, pulse: impl PulseShape + 'static, label: String) -> Self {
        let charge_pc = pulse.charge() * 1e12;
        let faulty = struck_pll(pulse);
        let (dev, cycles, _) = disturbance(golden, &faulty, 0.02, Time::from_ps(200));
        Disturbance {
            label,
            charge_pc,
            peak: dev.peak,
            duration: dev.duration(),
            area: dev.area,
            cycles,
            faulty,
        }
    }
}

/// Fig. 7: the same injection with the double exponential and with the
/// trapezoid fitted from it.
#[derive(Debug)]
pub struct Fig7 {
    /// Disturbance under the double-exponential strike.
    pub with_de: Disturbance,
    /// Disturbance under the trapezoid derived from it (the Fig. 1b
    /// procedure).
    pub with_trapezoid: Disturbance,
    /// Largest difference between the two struck VCO-input traces [V].
    pub cross_peak: f64,
    /// `fig7_model_comparison.csv`.
    pub csv: String,
}

/// Computes Fig. 7.
pub fn fig7() -> Fig7 {
    let de = paper_double_exponential();
    let trapezoid = TrapezoidPulse::fit(&de);
    let golden = golden_pll();
    let with_de = Disturbance::of(&golden, de, de.to_string());
    let with_trapezoid = Disturbance::of(&golden, trapezoid, trapezoid.to_string());
    // Direct trace similarity between the two faulty runs.
    let cross = measure::deviation(
        with_de.faulty.analog(names::VCTRL).expect("monitored"),
        with_trapezoid
            .faulty
            .analog(names::VCTRL)
            .expect("monitored"),
        T_MEASURE,
        T_END,
        0.01,
    );
    let (a, b) = (&with_de, &with_trapezoid);
    let mut csv = String::from("metric,double_exp,trapezoid\n");
    let _ = writeln!(csv, "peak_v,{},{}", a.peak, b.peak);
    let _ = writeln!(
        csv,
        "duration_s,{},{}",
        a.duration.as_secs_f64(),
        b.duration.as_secs_f64()
    );
    let _ = writeln!(csv, "area_vs,{},{}", a.area, b.area);
    let _ = writeln!(csv, "perturbed_cycles,{},{}", a.cycles, b.cycles);
    Fig7 {
        with_de,
        with_trapezoid,
        cross_peak: cross.peak,
        csv,
    }
}

/// Fig. 8: the VCO input for several pulse parameter sets.
#[derive(Debug)]
pub struct Fig8 {
    /// The paper's four `(PA, RT, FT, PW)` sets, in the paper's order.
    pub paper_sets: Vec<Disturbance>,
    /// The amplitude × width grid at `RT = FT = 100 ps`.
    pub grid: Vec<Disturbance>,
    /// Pearson correlation of peak deviation with injected charge over
    /// all rows (the cumulative effect).
    pub charge_correlation: f64,
    /// `fig8_parameter_sweep.csv`.
    pub csv: String,
}

/// Computes Fig. 8.
pub fn fig8() -> Fig8 {
    let golden = golden_pll();
    let paper_sets: Vec<Disturbance> = [
        (2.0, 100, 100, 300),
        (8.0, 100, 100, 300),
        (10.0, 40, 40, 120),
        (10.0, 180, 180, 540),
    ]
    .iter()
    .map(|&(pa, rt, ft, pw)| {
        let pulse = TrapezoidPulse::from_ma_ps(pa, rt, ft, pw).expect("paper set");
        let label = format!("({pa} mA, {rt} ps, {ft} ps, {pw} ps)");
        Disturbance::of(&golden, pulse, label)
    })
    .collect();
    // Extended grid: amplitude x width sweep at fixed edges, to expose the
    // cumulative (charge-driven) trend the paper notes.
    let mut grid = Vec::new();
    for &pa in &[1.0, 2.0, 5.0, 10.0, 20.0] {
        for &pw in &[150i64, 300, 600, 1200] {
            let pulse = TrapezoidPulse::from_ma_ps(pa, 100, 100, pw).expect("grid set");
            let label = format!("({pa} mA, PW {pw} ps)");
            grid.push(Disturbance::of(&golden, pulse, label));
        }
    }
    let all: Vec<&Disturbance> = paper_sets.iter().chain(&grid).collect();
    let charge_correlation = {
        let xs: Vec<f64> = all.iter().map(|r| r.charge_pc).collect();
        let ys: Vec<f64> = all.iter().map(|r| r.peak * 1e3).collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let sx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum::<f64>().sqrt();
        let sy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum::<f64>().sqrt();
        cov / (sx * sy)
    };
    let mut csv = String::from("label,charge_pc,peak_mv,duration_s,area_vs,perturbed_cycles\n");
    for r in &all {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{}",
            r.label.replace(',', ";"),
            r.charge_pc,
            r.peak * 1e3,
            r.duration.as_secs_f64(),
            r.area,
            r.cycles
        );
    }
    Fig8 {
        paper_sets,
        grid,
        charge_correlation,
        csv,
    }
}
