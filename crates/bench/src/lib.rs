//! Shared plumbing for the experiment binaries that regenerate the paper's
//! figures (see `src/bin/`) and for the Criterion performance benches.

#![warn(missing_docs)]

pub mod figures;

use amsfi_faults::PulseShape;
use amsfi_waves::{AnalogWave, Time};
use std::fmt::Write as _;
use std::path::PathBuf;

/// A square current pulse: no rise, no fall, arbitrarily large amplitude.
///
/// [`amsfi_faults::TrapezoidPulse`] deliberately rejects this shape (rise
/// and fall times must be positive), so the chaos harness and the PR 3
/// smoke binary carry their own pathological saboteur. At amplitudes of
/// 1e300 A and beyond it overflows the PLL loop filter to non-finite on
/// the first integration step, which is exactly the divergence the
/// simulation guards must catch.
#[derive(Debug, Clone)]
pub struct SquarePulse {
    /// Flat-top current in amperes (may be absurdly large on purpose).
    pub amplitude: f64,
    /// Pulse duration; the current is `amplitude` on `[0, width)`.
    pub width: Time,
}

impl PulseShape for SquarePulse {
    fn current(&self, elapsed: Time) -> f64 {
        if elapsed >= Time::ZERO && elapsed < self.width {
            self.amplitude
        } else {
            0.0
        }
    }
    fn support(&self) -> Time {
        self.width
    }
    fn charge(&self) -> f64 {
        self.amplitude * self.width.as_secs_f64()
    }
    fn peak(&self) -> f64 {
        self.amplitude
    }
}

/// Renders an analog waveform as an ASCII plot (time left-to-right, value
/// bottom-to-top), so experiment binaries can show the paper's waveform
/// figures directly in the terminal.
///
/// # Examples
///
/// ```
/// use amsfi_bench::ascii_plot;
/// use amsfi_waves::{AnalogWave, Time};
///
/// let w = AnalogWave::from_samples([
///     (Time::ZERO, 0.0),
///     (Time::from_ns(50), 1.0),
///     (Time::from_ns(100), 0.0),
/// ]);
/// let plot = ascii_plot(&w, Time::ZERO, Time::from_ns(100), 40, 10, "ramp");
/// assert!(plot.contains("ramp"));
/// ```
pub fn ascii_plot(
    wave: &AnalogWave,
    from: Time,
    to: Time,
    width: usize,
    height: usize,
    title: &str,
) -> String {
    let width = width.max(10);
    let height = height.max(4);
    let values: Vec<f64> = (0..width)
        .map(|col| {
            let t = from + (to - from) * col as i64 / (width - 1) as i64;
            wave.value_at(t)
        })
        .collect();
    let (mut lo, mut hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    if !(lo.is_finite() && hi.is_finite()) || (hi - lo).abs() < 1e-12 {
        hi = lo + 1.0;
    }
    let pad = 0.05 * (hi - lo);
    lo -= pad;
    hi += pad;
    let mut grid = vec![vec![' '; width]; height];
    for (col, &v) in values.iter().enumerate() {
        let row = ((v - lo) / (hi - lo) * (height - 1) as f64).round() as usize;
        let row = (height - 1).saturating_sub(row.min(height - 1));
        grid[row][col] = '*';
    }
    let mut out = String::new();
    let _ = writeln!(out, "  {title}  [{from} .. {to}]");
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{hi:9.4}")
        } else if i == height - 1 {
            format!("{lo:9.4}")
        } else {
            " ".repeat(9)
        };
        let line: String = row.iter().collect();
        let _ = writeln!(out, "{label} |{line}");
    }
    out
}

/// The directory experiment binaries write their CSV artifacts to
/// (`results/` under the workspace root, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("AMSFI_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes `contents` to `results/<name>` and logs the path.
pub fn write_result(name: &str, contents: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("write result file");
    println!("  -> wrote {}", path.display());
}

/// Prints a section header for experiment output.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plot_contains_extremes() {
        let w = AnalogWave::from_samples([
            (Time::ZERO, -1.0),
            (Time::from_ns(50), 3.0),
            (Time::from_ns(100), -1.0),
        ]);
        let plot = ascii_plot(&w, Time::ZERO, Time::from_ns(100), 60, 12, "peak");
        assert!(plot.contains('*'));
        assert!(plot.contains("3."));
        assert!(plot.contains("-1."));
    }

    #[test]
    fn plot_of_flat_wave_does_not_divide_by_zero() {
        let w = AnalogWave::from_samples([(Time::ZERO, 2.5), (Time::from_ns(10), 2.5)]);
        let plot = ascii_plot(&w, Time::ZERO, Time::from_ns(10), 20, 5, "flat");
        assert!(plot.contains('*'));
    }
}
