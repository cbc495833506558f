//! The paper-figure gates: EXPERIMENTS.md's claims about Figs. 1, 6, 7 and
//! 8, asserted on the numbers the `fig*` binaries print, and the committed
//! `results/fig*.csv` held byte for byte against what they would write.
//!
//! These — not `cases.csv` identity against yesterday's step grid — are
//! what licenses a change to the analog or mixed kernels: a PR that moves a
//! number regenerates the CSV on purpose and still has to pass the claims.

use amsfi_bench::figures::{self, Disturbance};
use amsfi_faults::PulseShape;
use amsfi_waves::Time;

/// Asserts `csv` is what `results/<name>` holds.
fn assert_committed(name: &str, csv: &str) {
    let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).expect("committed result file");
    assert!(
        csv == committed,
        "{name} no longer regenerates byte for byte; if the change is meant, \
         re-run the fig binary and commit the file"
    );
}

#[test]
fn fig1_fit_conserves_peak_and_charge() {
    let fig = figures::fig1();
    assert_eq!(fig.fitted.peak(), fig.de.peak(), "peak matched exactly");
    assert!(fig.charge_error() < 1e-5, "{:e}", fig.charge_error());
    assert_committed("fig1_pulse_fit.csv", &fig.csv);
}

#[test]
fn fig6_sub_ns_pulse_disturbs_the_locked_pll_for_hundreds_of_cycles() {
    let fig = figures::fig6();
    assert!(
        (fig.locked_hz / 50e6 - 1.0).abs() < 1e-3,
        "locked at {:e} Hz",
        fig.locked_hz
    );
    // "during a much larger time" than the pulse.
    assert!(
        fig.duration_over_support() >= 1e4,
        "{}x",
        fig.duration_over_support()
    );
    // "a large number of cycles and not only during one cycle".
    assert!(
        (100..1000).contains(&fig.perturbed_cycles),
        "{} perturbed cycles",
        fig.perturbed_cycles
    );
    assert_committed("fig6_fout_periods.csv", &fig.periods_csv);
    assert_committed("fig6_vctrl.csv", &fig.vctrl_csv);
}

#[test]
fn fig7_trapezoid_matches_the_double_exponential_at_system_level() {
    let fig = figures::fig7();
    let (de, trapezoid) = (&fig.with_de, &fig.with_trapezoid);
    // "Very similar": the leading metric agrees.
    assert!((de.peak - trapezoid.peak).abs() / de.peak < 0.05);
    // "Slightly different": the linear fall lacks the exponential tail, so
    // every threshold-counting metric reads lower.
    assert!(trapezoid.duration < de.duration);
    assert!(trapezoid.area < de.area);
    assert!(trapezoid.cycles < de.cycles);
    assert_committed("fig7_model_comparison.csv", &fig.csv);
}

#[test]
fn fig8_disturbance_is_cumulative_in_injected_charge() {
    let fig = figures::fig8();
    // The paper's sets by injected charge: 0.6, 1.2, 2.4, 5.4 pC. The
    // (10 mA, 120 ps) < (8 mA, 300 ps) pair is the ordering only charge —
    // not amplitude alone — predicts.
    let by_charge: Vec<&Disturbance> = [0, 2, 1, 3].map(|i| &fig.paper_sets[i]).into();
    for pair in by_charge.windows(2) {
        let (less, more) = (pair[0], pair[1]);
        assert!(less.charge_pc < more.charge_pc);
        assert!(less.peak < more.peak, "{} vs {}", less.label, more.label);
        assert!(less.duration < more.duration);
        assert!(less.cycles < more.cycles);
    }
    // The smallest set stays below both thresholds; the others do not.
    assert_eq!(
        (by_charge[0].duration, by_charge[0].cycles),
        (Time::ZERO, 0)
    );
    assert!(
        fig.charge_correlation >= 0.999,
        "r = {}",
        fig.charge_correlation
    );
    assert_committed("fig8_parameter_sweep.csv", &fig.csv);
}
