//! Textual and CSV campaign reports (the "Failure report" flow output).

use crate::campaign::CampaignResult;
use crate::classify::FaultClass;
use std::fmt::Write as _;

/// Renders a fixed-width summary table: one row per class plus totals.
///
/// # Examples
///
/// ```
/// use amsfi_core::{report, run_campaign, ClassifySpec, FaultCase};
/// use amsfi_waves::{Time, Trace};
///
/// let spec = ClassifySpec::new((Time::ZERO, Time::from_us(1)), vec![]);
/// let result = run_campaign(&spec, vec![FaultCase::new("x", Time::ZERO)], |_| {
///     Ok(Trace::new())
/// })?;
/// let table = report::summary_table(&result);
/// assert!(table.contains("no-effect"));
/// # Ok::<(), amsfi_core::RunError>(())
/// ```
pub fn summary_table(result: &CampaignResult) -> String {
    let summary = result.summary();
    let total: usize = summary.iter().map(|&(_, n)| n).sum();
    let mut out = String::new();
    let _ = writeln!(out, "{:<12} {:>8} {:>8}", "class", "count", "share");
    let _ = writeln!(out, "{:-<12} {:->8} {:->8}", "", "", "");
    for (class, count) in summary {
        let share = if total == 0 {
            0.0
        } else {
            100.0 * count as f64 / total as f64
        };
        let _ = writeln!(out, "{:<12} {count:>8} {share:>7.1}%", class.to_string());
    }
    let _ = writeln!(out, "{:-<12} {:->8} {:->8}", "", "", "");
    let _ = writeln!(out, "{:<12} {total:>8}", "total");
    if let Some(latency) = result.mean_latency() {
        let _ = writeln!(out, "mean error latency: {latency}");
    }
    out
}

/// Appends `text` as (part of) one CSV field: whatever would end the field
/// or the row early is replaced — `,`, line breaks and `"` always, and `|`
/// too inside the `|`-joined affected list. Labels reach this from journals
/// written by other processes, so they are outside input.
fn push_field(out: &mut String, text: &str, in_list: bool) {
    out.extend(text.chars().map(|c| match c {
        ',' => ';',
        '\n' | '\r' => ' ',
        '"' => '\'',
        '|' if in_list => '/',
        c => c,
    }));
}

/// Renders one CSV row per case: label, injection time, class, onset, end,
/// total mismatch, affected signals.
pub fn cases_csv(result: &CampaignResult) -> String {
    let mut out =
        String::from("label,injected_at_s,class,onset_s,end_s,total_mismatch_s,affected\n");
    for c in &result.cases {
        let fmt_opt =
            |t: Option<amsfi_waves::Time>| t.map_or(String::new(), |t| t.as_secs_f64().to_string());
        push_field(&mut out, &c.case.label, false);
        let _ = write!(
            out,
            ",{},{},{},{},{},",
            c.case.injected_at.as_secs_f64(),
            c.outcome.class,
            fmt_opt(c.outcome.error_onset),
            fmt_opt(c.outcome.error_end),
            c.outcome.total_mismatch.as_secs_f64(),
        );
        for (i, name) in c.outcome.affected.iter().enumerate() {
            if i > 0 {
                out.push('|');
            }
            push_field(&mut out, name, true);
        }
        out.push('\n');
    }
    out
}

/// Renders a per-target breakdown: groups case labels by the part before
/// `" @"` or the whole label, and tabulates class counts per target —
/// the "identify the significant nodes that should be protected" view of
/// the paper's introduction.
pub fn per_target_table(result: &CampaignResult) -> String {
    use std::collections::BTreeMap;
    let mut per: BTreeMap<&str, [usize; FaultClass::ALL.len()]> = BTreeMap::new();
    for c in &result.cases {
        let target = c.case.label.split(" @").next().unwrap_or(&c.case.label);
        let counts = per.entry(target).or_default();
        let idx = FaultClass::ALL
            .iter()
            .position(|&k| k == c.outcome.class)
            .expect("every class is in ALL");
        counts[idx] += 1;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} {:>9} {:>8} {:>10} {:>8} {:>11}",
        "target", "no-effect", "latent", "transient", "failure", "sim-failure"
    );
    let _ = writeln!(out, "{:-<82}", "");
    for (target, [ne, la, tr, fa, sf]) in per {
        let _ = writeln!(
            out,
            "{target:<32} {ne:>9} {la:>8} {tr:>10} {fa:>8} {sf:>11}"
        );
    }
    out
}

/// The 95 % Wilson score interval for an observed proportion
/// `hits / trials` — the standard way to quote a sampled campaign's failure
/// rate with its statistical confidence.
///
/// Returns `(low, high)`; `(0, 0)` when `trials` is zero.
///
/// # Examples
///
/// ```
/// use amsfi_core::report::wilson_interval;
///
/// let (lo, hi) = wilson_interval(10, 100);
/// assert!(lo > 0.04 && lo < 0.1);
/// assert!(hi > 0.1 && hi < 0.18);
/// ```
pub fn wilson_interval(hits: usize, trials: usize) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 0.0);
    }
    let n = trials as f64;
    let p = hits as f64 / n;
    let z = 1.959_963_985; // 95 %
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = p + z2 / (2.0 * n);
    let margin = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (
        ((centre - margin) / denom).max(0.0),
        ((centre + margin) / denom).min(1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, FaultCase};
    use crate::classify::ClassifySpec;
    use amsfi_waves::{Logic, Time, Trace};

    fn sample_result() -> CampaignResult {
        let spec = ClassifySpec::new((Time::ZERO, Time::from_us(1)), vec!["out".to_owned()]);
        let cases = vec![
            FaultCase::new("ff0.q[0] @ 100 ns", Time::from_ns(100)),
            FaultCase::new("ff0.q[1] @ 100 ns", Time::from_ns(100)),
            FaultCase::new("ff1.q[0] @ 100 ns", Time::from_ns(100)),
        ];
        run_campaign(&spec, cases, |case| {
            let mut t = Trace::new();
            t.record_digital("out", Time::ZERO, Logic::Zero)?;
            if case == Some(1) {
                t.record_digital("out", Time::from_ns(200), Logic::One)?;
            }
            Ok(t)
        })
        .unwrap()
    }

    #[test]
    fn summary_table_shows_counts_and_shares() {
        let table = summary_table(&sample_result());
        assert!(table.contains("no-effect"));
        assert!(table.contains("failure"));
        assert!(table.contains("total"));
        // Two no-effect of three = 66.7 %.
        assert!(table.contains("66.7%"), "{table}");
    }

    #[test]
    fn csv_has_one_row_per_case() {
        let csv = cases_csv(&sample_result());
        assert_eq!(csv.lines().count(), 4); // header + 3 cases
        assert!(csv.lines().nth(2).unwrap().contains("failure"));
    }

    /// Regression: only `,` in the label used to be replaced, so a label
    /// with a line break split its row and a signal name with a `,` grew
    /// the `affected` column into two.
    #[test]
    fn csv_neutralises_labels_and_names_that_would_break_the_table() {
        let spec = ClassifySpec::new((Time::ZERO, Time::from_us(1)), vec!["a,b|c\r".to_owned()]);
        let cases = vec![FaultCase::new("x\ny,\"z\" | w", Time::ZERO)];
        let result = run_campaign(&spec, cases, |_| Ok(Trace::new())).unwrap();
        let csv = cases_csv(&result);
        let rows: Vec<&str> = csv.lines().collect();
        assert_eq!(rows.len(), 2, "{csv:?}");
        let fields: Vec<&str> = rows[1].split(',').collect();
        assert_eq!(fields.len(), rows[0].split(',').count(), "{csv:?}");
        assert_eq!(fields[0], "x y;'z' | w");
        assert_eq!(fields[6], "a;b/c ");
    }

    #[test]
    fn wilson_interval_brackets_the_point_estimate() {
        let (lo, hi) = wilson_interval(5, 50);
        assert!(lo < 0.1 && hi > 0.1);
        assert!(lo >= 0.0 && hi <= 1.0);
        // Zero hits still has a nonzero upper bound (rule of three).
        let (lo0, hi0) = wilson_interval(0, 50);
        assert_eq!(lo0, 0.0);
        assert!(hi0 > 0.0 && hi0 < 0.12);
        // Degenerate inputs.
        assert_eq!(wilson_interval(0, 0), (0.0, 0.0));
        let (_, hi_all) = wilson_interval(50, 50);
        assert!(hi_all <= 1.0);
    }

    #[test]
    fn per_target_groups_by_label_prefix() {
        let table = per_target_table(&sample_result());
        assert!(table.contains("ff0.q[0]"));
        assert!(table.contains("ff0.q[1]"));
        assert!(table.contains("ff1.q[0]"));
    }
}
