//! Regenerates the paper's **Figure 1**: the proposed trapezoidal current
//! pulse model (a) and its fit to the classical double-exponential model (b).
//!
//! ```text
//! cargo run --release -p amsfi-bench --bin fig1_pulse_fit
//! ```

use amsfi_bench::figures::{self, Fig1};
use amsfi_bench::{ascii_plot, banner, write_result};
use amsfi_faults::PulseShape;
use amsfi_waves::Time;

fn main() {
    let fig = figures::fig1();
    let Fig1 {
        reference,
        de,
        fitted,
        ..
    } = &fig;
    banner("Fig. 1a — the proposed trapezoid model (paper reference pulse)");
    println!("  {reference}");
    println!(
        "  peak = {:.2} mA, charge = {:.2} pC, support = {}",
        reference.peak() * 1e3,
        reference.charge() * 1e12,
        reference.support()
    );
    let wave = reference.to_wave(200);
    println!();
    print!(
        "{}",
        ascii_plot(
            &wave,
            Time::ZERO,
            reference.support(),
            72,
            14,
            "I(t) [A], trapezoid"
        )
    );

    banner("Fig. 1b — fit of the trapezoid to the double-exponential model");
    println!("  source : {de}");
    println!("  fitted : {fitted}");
    println!(
        "  peak   : de {:.4} mA vs trapezoid {:.4} mA (rel err {:.2e})",
        de.peak() * 1e3,
        fitted.peak() * 1e3,
        fig.peak_error()
    );
    println!(
        "  charge : de {:.4} pC vs trapezoid {:.4} pC (rel err {:.2e})",
        de.charge() * 1e12,
        fitted.charge() * 1e12,
        fig.charge_error()
    );
    println!(
        "  max pointwise difference: {:.3} mA ({:.1} % of peak)",
        fig.max_diff * 1e3,
        100.0 * fig.max_diff / de.peak()
    );
    println!();
    let support = de.support().max(fitted.support());
    print!(
        "{}",
        ascii_plot(
            &de.to_wave(200),
            Time::ZERO,
            support,
            72,
            14,
            "I(t) [A], double exponential"
        )
    );
    print!(
        "{}",
        ascii_plot(
            &fitted.to_wave(200),
            Time::ZERO,
            support,
            72,
            14,
            "I(t) [A], fitted trapezoid"
        )
    );
    write_result("fig1_pulse_fit.csv", &fig.csv);

    println!();
    println!(
        "Paper claim check: the trapezoid parameters (PA, RT, FT, PW) can be \
         derived from the double-exponential model — peak matched exactly, \
         charge to {:.2e} relative error.",
        fig.charge_error()
    );
}
