//! Campaign observability: lock-free counters updated by the workers,
//! periodic progress lines, and a per-stage wall-clock breakdown.
//!
//! All counters are relaxed atomics — they are statistics, not
//! synchronisation — so the observability layer costs a few nanoseconds per
//! case and never serialises the workers.

use amsfi_core::FaultClass;
use amsfi_telemetry::{prom_render, KernelMetrics, Series};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The pipeline stages the engine attributes wall-clock time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Constructing the circuit instance for a case.
    Build,
    /// Running the (mixed-signal) simulation.
    Simulate,
    /// Comparing against the golden trace and classifying.
    Classify,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 3] = [Stage::Build, Stage::Simulate, Stage::Classify];

    pub(crate) fn idx(self) -> usize {
        match self {
            Stage::Build => 0,
            Stage::Simulate => 1,
            Stage::Classify => 2,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Build => "build",
            Stage::Simulate => "simulate",
            Stage::Classify => "classify",
        })
    }
}

/// Shared live counters for one engine run.
#[derive(Debug)]
pub struct EngineStats {
    started: Instant,
    /// Cases finished (classified or skipped).
    done: AtomicUsize,
    /// Total cases this run will execute (shard-local, excluding resumed).
    total: AtomicUsize,
    /// Per-class tallies, in [`FaultClass::ALL`] order.
    classes: [AtomicUsize; FaultClass::ALL.len()],
    /// Attempts beyond the first, across all cases.
    retries: AtomicUsize,
    /// Attempts that hit the per-case timeout.
    timeouts: AtomicUsize,
    /// Cases abandoned under [`crate::ErrorPolicy::SkipAndRecord`].
    skipped: AtomicUsize,
    /// Cases quarantined after exhausting the retry budget.
    quarantined: AtomicUsize,
    /// Cases that did not finish on the run's planned execution path.
    fallbacks: AtomicUsize,
    /// Forked cases that followed a tape.
    followed: AtomicUsize,
    /// Cases booked unrun: their injection wrote only unread state.
    inert: AtomicUsize,
    /// Cases pre-counted into `done`/`total` because a previous run already
    /// settled them (resumed `Done` + previously quarantined). They are part
    /// of the summary denominator but must not inflate the live rate.
    seeded: AtomicUsize,
    /// Nanoseconds per [`Stage`].
    stage_ns: [AtomicU64; 3],
    /// The kernel/engine metric registry — the telemetry handle's when
    /// telemetry is enabled, otherwise a private zeroed one so latency
    /// percentiles are always available.
    metrics: Arc<KernelMetrics>,
}

impl EngineStats {
    /// Fresh counters; `total` is the number of cases this run owns.
    pub fn new(total: usize) -> Self {
        Self::with_metrics(total, Arc::new(KernelMetrics::new()))
    }

    /// Fresh counters recording stage/case latency histograms into the
    /// given registry (shared with an enabled telemetry handle).
    pub fn with_metrics(total: usize, metrics: Arc<KernelMetrics>) -> Self {
        EngineStats {
            started: Instant::now(),
            done: AtomicUsize::new(0),
            total: AtomicUsize::new(total),
            classes: Default::default(),
            retries: AtomicUsize::new(0),
            timeouts: AtomicUsize::new(0),
            skipped: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            fallbacks: AtomicUsize::new(0),
            followed: AtomicUsize::new(0),
            inert: AtomicUsize::new(0),
            seeded: AtomicUsize::new(0),
            stage_ns: Default::default(),
            metrics,
        }
    }

    /// The metric registry shared with the kernels.
    pub fn metrics(&self) -> &Arc<KernelMetrics> {
        &self.metrics
    }

    /// Pre-counts cases settled by a previous run of the same journal so
    /// that the summary denominator covers every case exactly once:
    /// `done` resumed completions of which `quarantined` were quarantined.
    /// Without this, a case quarantined in run N disappeared from run
    /// N+1's `done`/`total`/`quarantined` tallies entirely.
    pub(crate) fn seed_resumed(&self, done: usize, quarantined: usize) {
        debug_assert!(quarantined <= done);
        self.done.fetch_add(done, Ordering::Relaxed);
        self.total.fetch_add(done, Ordering::Relaxed);
        self.quarantined.fetch_add(quarantined, Ordering::Relaxed);
        self.seeded.fetch_add(done, Ordering::Relaxed);
    }

    pub(crate) fn record_class(&self, class: FaultClass) {
        let idx = FaultClass::ALL
            .iter()
            .position(|&c| c == class)
            .unwrap_or(0);
        self.classes[idx].fetch_add(1, Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_skip(&self) {
        self.skipped.fetch_add(1, Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_quarantine(&self) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_fallbacks(&self, cases: usize) {
        self.fallbacks.fetch_add(cases, Ordering::Relaxed);
    }

    pub(crate) fn record_followed(&self) {
        self.followed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_inert(&self) {
        self.inert.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `elapsed` to `stage`'s wall-clock tally and the stage's
    /// latency histogram (for p50/p90/p99 reporting).
    pub fn record_stage(&self, stage: Stage, elapsed: Duration) {
        self.stage_ns[stage.idx()].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.metrics.stage_latency_us[stage.idx()].observe(elapsed.as_micros() as u64);
    }

    /// A consistent-enough copy of the counters for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            elapsed: self.started.elapsed(),
            done: self.done.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
            classes: std::array::from_fn(|i| self.classes[i].load(Ordering::Relaxed)),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            followed: self.followed.load(Ordering::Relaxed),
            inert: self.inert.load(Ordering::Relaxed),
            seeded: self.seeded.load(Ordering::Relaxed),
            stage_ns: [
                self.stage_ns[0].load(Ordering::Relaxed),
                self.stage_ns[1].load(Ordering::Relaxed),
                self.stage_ns[2].load(Ordering::Relaxed),
            ],
            stage_pctl_us: std::array::from_fn(|i| {
                let hist = &self.metrics.stage_latency_us[i];
                [
                    hist.percentile(50.0),
                    hist.percentile(90.0),
                    hist.percentile(99.0),
                ]
            }),
        }
    }
}

/// A point-in-time copy of [`EngineStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Wall-clock time since the engine run started.
    pub elapsed: Duration,
    /// Cases finished (classified or skipped).
    pub done: usize,
    /// Cases this run owns.
    pub total: usize,
    /// Per-class tallies in [`FaultClass::ALL`] order.
    pub classes: [usize; FaultClass::ALL.len()],
    /// Attempts beyond the first.
    pub retries: usize,
    /// Attempts that timed out.
    pub timeouts: usize,
    /// Cases abandoned after exhausting retries.
    pub skipped: usize,
    /// Cases quarantined after exhausting retries (a subset of the journal's
    /// poison list; disjoint from `skipped`). Includes cases quarantined by
    /// a *previous* run of the same journal, so resumed summaries count
    /// every case exactly once.
    pub quarantined: usize,
    /// Cases that did not finish on the run's planned execution path
    /// ([`EngineReport::path`](crate::EngineReport)): those of a batch group
    /// or a lane re-run scalar, forks whose snapshot would not restore and
    /// followers that left their tape's grid.
    pub fallbacks: usize,
    /// Forked cases whose fault provably stayed out of part of the
    /// simulator (a mixed bench's analog half) and that took that part off
    /// the tape of an earlier fork of the same snapshot instead of
    /// simulating it (see `amsfi_waves::ForkableSim::follow`). On the
    /// planned path: not a subset of `fallbacks`.
    pub followed: usize,
    /// Scalar or forked cases booked as golden against itself without
    /// running, because a dry run of their injection wrote only state no
    /// later evaluation reads (`BatchSpec::inert`).
    pub inert: usize,
    /// Of `done`, how many were settled by a previous run (resumed
    /// completions and prior quarantines). Excluded from [`rate`](Self::rate).
    pub seeded: usize,
    /// Nanoseconds attributed to each [`Stage`].
    pub stage_ns: [u64; 3],
    /// Per-stage latency percentiles `[p50, p90, p99]` in microseconds,
    /// indexed like [`Stage::ALL`]. Resolved from base-2 log histograms, so
    /// each value is the upper bound of its bucket.
    pub stage_pctl_us: [[u64; 3]; 3],
}

impl StatsSnapshot {
    /// Cases completed *by this run* per second of wall-clock time
    /// (seeded/resumed cases are excluded from the numerator).
    pub fn rate(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.done.saturating_sub(self.seeded) as f64 / secs
        }
    }

    /// The per-stage wall-clock breakdown as an aligned text table with
    /// per-attempt latency percentiles (microseconds).
    pub fn stage_table(&self) -> String {
        use std::fmt::Write as _;
        let total_ns: u64 = self.stage_ns.iter().sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>7} {:>10} {:>10} {:>10}",
            "stage", "wall-clock", "share", "p50", "p90", "p99"
        );
        for stage in Stage::ALL {
            let ns = self.stage_ns[stage.idx()];
            let share = if total_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / total_ns as f64
            };
            let [p50, p90, p99] = self.stage_pctl_us[stage.idx()];
            let _ = writeln!(
                out,
                "{:<10} {:>12} {share:>6.1}% {:>10} {:>10} {:>10}",
                stage.to_string(),
                format_ns(ns),
                format_us(p50),
                format_us(p90),
                format_us(p99),
            );
        }
        out
    }

    /// The per-stage breakdown as CSV
    /// (`stage,wall_clock_s,share,p50_us,p90_us,p99_us`).
    pub fn stage_csv(&self) -> String {
        use std::fmt::Write as _;
        let total_ns: u64 = self.stage_ns.iter().sum();
        let mut out = String::from("stage,wall_clock_s,share,p50_us,p90_us,p99_us\n");
        for stage in Stage::ALL {
            let ns = self.stage_ns[stage.idx()];
            let share = if total_ns == 0 {
                0.0
            } else {
                ns as f64 / total_ns as f64
            };
            let [p50, p90, p99] = self.stage_pctl_us[stage.idx()];
            let _ = writeln!(out, "{stage},{},{share},{p50},{p90},{p99}", ns as f64 / 1e9);
        }
        out
    }

    /// Renders the engine-level counters in Prometheus text exposition
    /// format (the kernel registry renders itself separately via
    /// [`KernelMetrics::to_prometheus`]).
    pub fn prometheus(&self) -> String {
        let gauge = |family, n: usize| Series::gauge(family, n as u64);
        let count = |family, n: usize| Series::counter(family, n as u64);
        let mut series = vec![
            gauge("amsfi_cases_done", self.done),
            gauge("amsfi_cases_total", self.total),
            gauge("amsfi_cases_resumed", self.seeded),
        ];
        series.extend(FaultClass::ALL.iter().zip(self.classes).map(|(class, n)| {
            count("amsfi_case_class_total", n).label("class", class.to_string())
        }));
        series.extend([
            count("amsfi_retries_total", self.retries),
            count("amsfi_timeouts_total", self.timeouts),
            count("amsfi_skipped_total", self.skipped),
            count("amsfi_quarantined_total", self.quarantined),
        ]);
        series.extend(Stage::ALL.map(|stage| {
            Series::counter(
                "amsfi_stage_wall_nanoseconds_total",
                self.stage_ns[stage.idx()],
            )
            .label("stage", stage.to_string())
        }));
        prom_render(&series)
    }
}

impl fmt::Display for StatsSnapshot {
    /// The periodic progress line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>7.1}s] {}/{} cases ({:.1}/s) \
             no-effect={} latent={} transient={} failure={} sim-failure={} \
             retries={} timeouts={} skipped={} quarantined={}",
            self.elapsed.as_secs_f64(),
            self.done,
            self.total,
            self.rate(),
            self.classes[0],
            self.classes[1],
            self.classes[2],
            self.classes[3],
            self.classes[4],
            self.retries,
            self.timeouts,
            self.skipped,
            self.quarantined,
        )
    }
}

fn format_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us} us")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{:.2} s", us as f64 / 1e6)
    }
}

fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = EngineStats::new(10);
        stats.record_class(FaultClass::Failure);
        stats.record_class(FaultClass::NoEffect);
        stats.record_retry();
        stats.record_timeout();
        stats.record_skip();
        stats.record_quarantine();
        let snap = stats.snapshot();
        assert_eq!(snap.done, 4);
        assert_eq!(snap.classes, [1, 0, 0, 1, 0]);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.timeouts, 1);
        assert_eq!(snap.skipped, 1);
        assert_eq!(snap.quarantined, 1);
        assert!(snap.rate() >= 0.0);
    }

    #[test]
    fn stage_breakdown_sums_to_100_percent() {
        let stats = EngineStats::new(1);
        stats.record_stage(Stage::Build, Duration::from_millis(10));
        stats.record_stage(Stage::Simulate, Duration::from_millis(70));
        stats.record_stage(Stage::Classify, Duration::from_millis(20));
        let snap = stats.snapshot();
        let table = snap.stage_table();
        assert!(table.contains("simulate"), "{table}");
        assert!(table.contains("70.0%"), "{table}");
        let csv = snap.stage_csv();
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.contains("build,0.01,0.1"), "{csv}");
    }

    #[test]
    fn progress_line_mentions_rate_and_tallies() {
        let stats = EngineStats::new(5);
        stats.record_class(FaultClass::Transient);
        let line = stats.snapshot().to_string();
        assert!(line.contains("1/5 cases"), "{line}");
        assert!(line.contains("transient=1"), "{line}");
    }

    #[test]
    fn seeding_counts_resumed_and_quarantined_once() {
        // A resumed run owning 3 fresh cases, with 2 previously done of
        // which 1 was quarantined: the denominator covers all 5 exactly
        // once and the quarantine tally survives the resume.
        let stats = EngineStats::new(3);
        stats.seed_resumed(2, 1);
        stats.record_class(FaultClass::NoEffect);
        let snap = stats.snapshot();
        assert_eq!(snap.total, 5);
        assert_eq!(snap.done, 3);
        assert_eq!(snap.quarantined, 1);
        assert_eq!(snap.seeded, 2);
        // The live rate only counts this run's single completion.
        assert!(snap.rate() <= snap.done as f64 / snap.elapsed.as_secs_f64());
    }

    #[test]
    fn stage_percentiles_appear_in_table_and_csv() {
        let stats = EngineStats::new(4);
        for ms in [1u64, 2, 4, 100] {
            stats.record_stage(Stage::Simulate, Duration::from_millis(ms));
        }
        let snap = stats.snapshot();
        let [p50, p90, p99] = snap.stage_pctl_us[Stage::Simulate.idx()];
        assert!(p50 <= p90 && p90 <= p99, "{:?}", snap.stage_pctl_us);
        assert!(p99 >= 100_000, "p99 must cover the 100 ms outlier: {p99}");
        let table = snap.stage_table();
        assert!(table.contains("p99"), "{table}");
        let csv = snap.stage_csv();
        assert!(csv.starts_with("stage,wall_clock_s,share,p50_us,p90_us,p99_us"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn prometheus_dump_has_engine_counters() {
        let stats = EngineStats::new(2);
        stats.record_class(FaultClass::Failure);
        stats.record_quarantine();
        let text = stats.snapshot().prometheus();
        assert!(text.contains("amsfi_cases_done 2"), "{text}");
        assert!(
            text.contains("amsfi_case_class_total{class=\"failure\"} 1"),
            "{text}"
        );
        assert!(text.contains("amsfi_quarantined_total 1"), "{text}");
    }

    #[test]
    fn prometheus_text_is_pinned() {
        let snap = StatsSnapshot {
            elapsed: Duration::from_millis(1500),
            done: 31,
            total: 32,
            classes: [3, 4, 5, 6, 7],
            retries: 8,
            timeouts: 9,
            skipped: 10,
            quarantined: 11,
            fallbacks: 12,
            followed: 13,
            inert: 18,
            seeded: 14,
            stage_ns: [15, 16, 17],
            stage_pctl_us: [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        };
        let expected = r#"# TYPE amsfi_cases_done gauge
amsfi_cases_done 31
# TYPE amsfi_cases_total gauge
amsfi_cases_total 32
# TYPE amsfi_cases_resumed gauge
amsfi_cases_resumed 14
# TYPE amsfi_case_class_total counter
amsfi_case_class_total{class="no-effect"} 3
amsfi_case_class_total{class="latent"} 4
amsfi_case_class_total{class="transient"} 5
amsfi_case_class_total{class="failure"} 6
amsfi_case_class_total{class="sim-failure"} 7
# TYPE amsfi_retries_total counter
amsfi_retries_total 8
# TYPE amsfi_timeouts_total counter
amsfi_timeouts_total 9
# TYPE amsfi_skipped_total counter
amsfi_skipped_total 10
# TYPE amsfi_quarantined_total counter
amsfi_quarantined_total 11
# TYPE amsfi_stage_wall_nanoseconds_total counter
amsfi_stage_wall_nanoseconds_total{stage="build"} 15
amsfi_stage_wall_nanoseconds_total{stage="simulate"} 16
amsfi_stage_wall_nanoseconds_total{stage="classify"} 17
"#;
        assert_eq!(snap.prometheus(), expected);
    }
}
