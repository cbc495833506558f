//! Regenerates the paper's **Figure 7**: the same PLL injection performed
//! with the classical double-exponential pulse (a) and the proposed
//! trapezoid model (b). The paper's finding: "the results are very similar,
//! although the numeric values are slightly different" — validating the
//! simpler model.
//!
//! ```text
//! cargo run --release -p amsfi-bench --bin fig7_model_comparison
//! ```

use amsfi_bench::figures;
use amsfi_bench::{ascii_plot, banner, write_result};
use amsfi_circuits::pll::names;
use amsfi_waves::Time;

fn main() {
    let fig = figures::fig7();
    let (m_de, m_trap) = (&fig.with_de, &fig.with_trapezoid);
    banner("Fig. 7 — double-exponential vs. proposed trapezoid pulse");
    println!(
        "  double exponential : {} (charge {:.3} pC)",
        m_de.label, m_de.charge_pc
    );
    println!(
        "  fitted trapezoid   : {} (charge {:.3} pC)",
        m_trap.label, m_trap.charge_pc
    );

    banner("VCO input with the double-exponential injection (Fig. 7a)");
    print!(
        "{}",
        ascii_plot(
            m_de.faulty.analog(names::VCTRL).expect("monitored"),
            Time::from_us(168),
            Time::from_us(182),
            72,
            10,
            "vctrl [V], double-exp pulse"
        )
    );
    banner("VCO input with the trapezoid injection (Fig. 7b)");
    print!(
        "{}",
        ascii_plot(
            m_trap.faulty.analog(names::VCTRL).expect("monitored"),
            Time::from_us(168),
            Time::from_us(182),
            72,
            10,
            "vctrl [V], trapezoid pulse"
        )
    );

    banner("Metric comparison");
    println!(
        "  {:<28} {:>14} {:>14} {:>10}",
        "metric", "double-exp", "trapezoid", "rel diff"
    );
    let rel = |a: f64, b: f64| {
        if a.abs() < 1e-30 {
            0.0
        } else {
            100.0 * (a - b).abs() / a.abs()
        }
    };
    println!(
        "  {:<28} {:>11.2} mV {:>11.2} mV {:>9.1}%",
        "peak vctrl deviation",
        m_de.peak * 1e3,
        m_trap.peak * 1e3,
        rel(m_de.peak, m_trap.peak)
    );
    println!(
        "  {:<28} {:>14} {:>14} {:>9.1}%",
        "perturbation duration",
        m_de.duration.to_string(),
        m_trap.duration.to_string(),
        rel(m_de.duration.as_secs_f64(), m_trap.duration.as_secs_f64())
    );
    println!(
        "  {:<28} {:>11.3e} {:>14.3e} {:>9.1}%",
        "disturbance area (V*s)",
        m_de.area,
        m_trap.area,
        rel(m_de.area, m_trap.area)
    );
    println!(
        "  {:<28} {:>14} {:>14} {:>9.1}%",
        "perturbed F_out cycles",
        m_de.cycles,
        m_trap.cycles,
        rel(m_de.cycles as f64, m_trap.cycles as f64)
    );

    println!();
    println!(
        "  max difference between the two faulty vctrl traces: {:.2} mV \
         ({:.1} % of the {:.1} mV fault effect)",
        fig.cross_peak * 1e3,
        100.0 * fig.cross_peak / m_de.peak,
        m_de.peak * 1e3
    );
    write_result("fig7_model_comparison.csv", &fig.csv);

    banner("Paper-vs-measured");
    println!(
        "  Paper: results with the two pulse models are very similar, with\n\
         \x20 slightly different numeric values."
    );
    println!(
        "  Measured: system-level metrics agree within {:.1} % (peak) and the\n\
         \x20 faulty traces differ by at most {:.1} % of the fault effect.",
        rel(m_de.peak, m_trap.peak),
        100.0 * fig.cross_peak / m_de.peak
    );
}
