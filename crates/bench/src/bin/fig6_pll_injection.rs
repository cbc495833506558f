//! Regenerates the paper's **Figure 6**: fault injection results in the PLL
//! block.
//!
//! The paper's experiment: with the PLL locked (500 kHz reference, 50 MHz /
//! 20 ns generated clock), a current pulse with `RT = 100 ps, FT = 300 ps,
//! PW = 500 ps, PA = 10 mA` is injected at **0.17 ms** on the loop-filter
//! input (charge-pump output). The figure shows: the input signal, the
//! injection control signal, the nominal vs. faulty VCO input voltage, and
//! the generated clock — with the headline observation that the pulse
//! (2.5 % of one clock period) perturbs the filter output "during a much
//! larger time" and the clock "during a large number of cycles".
//!
//! ```text
//! cargo run --release -p amsfi-bench --bin fig6_pll_injection
//! ```

use amsfi_bench::figures::{self, T_INJECT};
use amsfi_bench::{ascii_plot, banner, write_result};
use amsfi_circuits::pll::names;
use amsfi_faults::PulseShape;
use amsfi_waves::Time;

fn main() {
    let fig = figures::fig6();
    let (pulse, dev) = (&fig.pulse, &fig.deviation);
    banner("Fig. 6 — fault injection in the PLL block");
    println!("  operating point : 500 kHz reference, /100, 50 MHz (20 ns) F_out");
    println!("  injection       : {pulse} at {T_INJECT} (after lock)");
    println!(
        "  pulse length    : {} = {:.1} % of the generated clock period",
        pulse.width(),
        100.0 * pulse.width().as_secs_f64() / 20e-9
    );

    banner("Nominal input voltage of VCO (locked)");
    print!(
        "{}",
        ascii_plot(
            fig.golden.analog(names::VCTRL).expect("monitored"),
            Time::from_us(165),
            Time::from_us(185),
            72,
            10,
            "vctrl [V], nominal"
        )
    );
    banner("Input voltage of VCO with fault injection");
    print!(
        "{}",
        ascii_plot(
            fig.faulty.analog(names::VCTRL).expect("monitored"),
            Time::from_us(165),
            Time::from_us(185),
            72,
            10,
            "vctrl [V], faulty"
        )
    );

    banner("Quantitative comparison (paper reads these off the waveforms)");
    println!(
        "  peak VCO-input deviation : {:.1} mV at {}",
        dev.peak * 1e3,
        dev.peak_time
    );
    println!(
        "  perturbation onset       : {:?}",
        dev.onset.map(|t| t.to_string())
    );
    println!("  perturbation duration    : {}", dev.duration());
    println!(
        "  duration / pulse support : {:.0}x",
        fig.duration_over_support()
    );

    println!();
    println!("  generated clock F_out:");
    println!(
        "    perturbed cycles (> 100 ps period error): {}",
        fig.perturbed_cycles
    );
    if let Some(w) = fig.worst_period {
        println!(
            "    worst period: {w} (nominal 20 ns, {:+.1} % error)",
            100.0 * ((w - Time::from_ns(20)).as_secs_f64() / 20e-9)
        );
    }
    println!(
        "    locked frequency before injection: {:.4e} Hz",
        fig.locked_hz
    );

    write_result("fig6_fout_periods.csv", &fig.periods_csv);
    write_result("fig6_vctrl.csv", &fig.vctrl_csv);
    // Full faulty trace as VCD, for GTKWave inspection of the figure.
    write_result(
        "fig6_faulty.vcd",
        &amsfi_waves::vcd::to_vcd(&fig.faulty, "Fig. 6 faulty PLL run, strike at 170 us"),
    );

    banner("Paper-vs-measured");
    println!(
        "  Paper: the current pulse injected during a very short time (2.5 % of\n\
         \x20 the generated clock period) has an impact on the filter output during\n\
         \x20 a much larger time ... perturbed during a large number of cycles and\n\
         \x20 not only during one cycle."
    );
    println!(
        "  Measured: {} of perturbation ({}x the pulse) and {} perturbed cycles.",
        dev.duration(),
        dev.duration() / pulse.support(),
        fig.perturbed_cycles
    );
}
