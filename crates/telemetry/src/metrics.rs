//! Kernel metrics: counters and fixed-bucket log-scale histograms.
//!
//! Everything here is allocation-free on the hot path — an observation is
//! one or two relaxed atomic adds — so the simulation kernels can record
//! solver steps, proposed timesteps and guard trips on every iteration
//! without measurable cost. Each registry lists its series once (a
//! [`Series`] list); [`prom_render`] turns any list into Prometheus text
//! exposition format for `amsfi run --metrics <path>`.

use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable, signed gauge (e.g. workers currently connected).
///
/// Like [`Counter`] it is a single relaxed atomic, but it can go down as
/// well as up; `get` clamps at zero for Prometheus rendering because every
/// gauge tracked here is a population count.
#[derive(Debug, Default)]
pub struct Gauge(std::sync::atomic::AtomicI64);

impl Gauge {
    /// Creates a zeroed gauge.
    pub const fn new() -> Self {
        Gauge(std::sync::atomic::AtomicI64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value, clamped at zero.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed).max(0) as u64
    }
}

/// Number of buckets in a [`LogHistogram`]: one per power of two of the
/// `u64` range, plus a dedicated zero bucket.
pub(crate) const HIST_BUCKETS: usize = 65;

/// A fixed-bucket base-2 log-scale histogram of `u64` observations.
///
/// Bucket `0` holds exactly the value `0`; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i)`. Observation is a pair of relaxed atomic adds — no
/// allocation, no locks — so it is safe to call from simulation kernels.
/// Percentiles are resolved to the *upper bound* of the bucket containing
/// the requested rank, i.e. they over-estimate by at most 2×, which is
/// plenty for latency triage across nine orders of magnitude.
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn index(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Upper bound (inclusive) of bucket `i`.
    pub fn upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[Self::index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Per-bucket observation counts.
    pub fn counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The value at percentile `p` (0–100), resolved to the containing
    /// bucket's upper bound. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        percentile(&self.counts(), p)
    }
}

/// The value at percentile `p` (0–100) of a bucket-count array, resolved
/// to the containing bucket's upper bound; 0 when empty.
pub(crate) fn percentile(counts: &[u64; HIST_BUCKETS], p: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return LogHistogram::upper_bound(i);
        }
    }
    u64::MAX
}

impl fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .finish()
    }
}

/// The labels under which [`KernelMetrics`] counts guard trips, one per
/// kind of `amsfi_waves::GuardViolation` a case can be booked with
/// (telemetry sits below everything in the crate graph, so the engine maps
/// one to the other).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardKind {
    /// A signal or node went NaN/Inf.
    NonFinite,
    /// The per-attempt step budget ran out.
    StepBudget,
    /// The adaptive timestep collapsed below the floor.
    TimestepCollapse,
    /// The wall-clock deadline expired or the attempt was cancelled.
    Deadline,
}

impl GuardKind {
    /// All kinds, in declaration order (which indexes the trip counters).
    pub const ALL: [GuardKind; 4] = [
        GuardKind::NonFinite,
        GuardKind::StepBudget,
        GuardKind::TimestepCollapse,
        GuardKind::Deadline,
    ];

    /// Stable label used in metric labels and event names.
    pub fn label(self) -> &'static str {
        match self {
            GuardKind::NonFinite => "non-finite",
            GuardKind::StepBudget => "step-budget",
            GuardKind::TimestepCollapse => "timestep-collapse",
            GuardKind::Deadline => "deadline",
        }
    }
}

/// Stage names, index-aligned with `amsfi_engine::Stage` and the
/// `stage_latency_us` histogram array.
const STAGE_NAMES: [&str; 3] = ["build", "simulate", "classify"];

/// The fixed metric registry shared by the kernels and the engine.
///
/// One instance is created per enabled [`Telemetry`](crate::Telemetry)
/// handle and threaded (as an `Arc`) into simulation budgets and the
/// engine stats; all fields are individually thread-safe.
#[derive(Debug, Default)]
pub struct KernelMetrics {
    /// Analog integration steps taken (`AnalogSolver::step`).
    pub solver_steps: Counter,
    /// Digital events taken off an event wheel: each
    /// `Simulator::run_until`'s `events_processed` delta (cancelled
    /// inertial drives count, idle zero-delay re-drives the scalar kernel
    /// never queues do not) and each word machine's word events.
    pub digital_events: Counter,
    /// Mixed-signal synchronization iterations.
    pub sync_steps: Counter,
    /// Distribution of proposed analog timesteps, in femtoseconds.
    pub proposed_dt_fs: LogHistogram,
    /// Distribution of per-attempt budget steps consumed.
    pub steps_used: LogHistogram,
    guard_trips: [Counter; 4],
    /// Snapshot-cache hits in the forked executor.
    pub snapshot_hits: Counter,
    /// Snapshot-cache misses in the forked executor (fork requested but no
    /// usable cached prefix).
    pub snapshot_misses: Counter,
    /// Journal records appended.
    pub journal_records: Counter,
    /// Journal bytes written.
    pub journal_bytes: Counter,
    /// Per-stage latency distributions, microseconds; indexed build,
    /// simulate, classify.
    pub stage_latency_us: [LogHistogram; 3],
    /// End-to-end per-case latency distribution, microseconds.
    pub case_latency_us: LogHistogram,
    /// Events dropped because the event queue was full or closed.
    pub events_dropped: Counter,
    /// Cases aborted early because an online classifier sealed the verdict
    /// before the simulation horizon.
    pub early_aborts: Counter,
    /// Simulated femtoseconds *not* run thanks to early aborts (horizon
    /// minus seal instant, summed over aborted cases).
    pub saved_sim_fs: Counter,
    /// Estimated kernel steps not run thanks to early aborts (consumed
    /// steps scaled by the unsimulated fraction of each case).
    pub saved_steps: Counter,
    /// Approximate bytes of golden trace kept resident and shared across
    /// workers (counted once per engine run).
    pub golden_trace_bytes: Counter,
    /// Mutant lanes retired early because their full machine state
    /// reconverged with the golden machine's (batch reconvergence seal).
    pub lane_seals: Counter,
    /// Distribution of live *mutant* lanes per word observed at each
    /// batch lock-step stop (`amsfi run --batch`): how full
    /// the 63 mutant slots actually are, the utilization the word kernel's
    /// speedup rides on. The in-word golden lane is excluded — it is live
    /// by construction, and excluding it keeps every observation ≤ 63, one
    /// log₂ bucket below the word width.
    pub lane_occupancy: LogHistogram,
}

impl KernelMetrics {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one guard trip of the given kind.
    pub fn guard_trip(&self, kind: GuardKind) {
        self.guard_trips[kind as usize].inc();
    }

    /// Trip count for one guard kind.
    pub fn guard_trips(&self, kind: GuardKind) -> u64 {
        self.guard_trips[kind as usize].get()
    }

    /// Total guard trips across all kinds.
    pub fn guard_trips_total(&self) -> u64 {
        self.guard_trips.iter().map(Counter::get).sum()
    }

    /// The registry's series in export order: the one list both
    /// [`to_prometheus`](Self::to_prometheus) and
    /// [`snapshot`](Self::snapshot) walk. One row per series: Prometheus
    /// family, snapshot name, source.
    #[rustfmt::skip]
    pub(crate) fn series(&self) -> Vec<Series<'_>> {
        let count = |family, snapshot, c: &Counter| Series::counter(family, c.get()).ship(snapshot);
        let hist = |family, snapshot, h| Series::histogram(family, h).ship(snapshot);
        let mut list = vec![
            count("amsfi_solver_steps_total", "solver_steps", &self.solver_steps),
            count("amsfi_digital_events_total", "digital_events", &self.digital_events),
            count("amsfi_sync_steps_total", "sync_steps", &self.sync_steps),
        ];
        list.extend(GuardKind::ALL.map(|kind| {
            Series::counter("amsfi_guard_trips_total", self.guard_trips(kind))
                .label("kind", kind.label())
                .ship(format!("guard_{}", kind.label()))
        }));
        list.extend([
            count("amsfi_snapshot_cache_total", "snapshot_hits", &self.snapshot_hits).label("outcome", "hit"),
            count("amsfi_snapshot_cache_total", "snapshot_misses", &self.snapshot_misses).label("outcome", "miss"),
            count("amsfi_journal_records_total", "journal_records", &self.journal_records),
            count("amsfi_journal_bytes_total", "journal_bytes", &self.journal_bytes),
            count("amsfi_events_dropped_total", "events_dropped", &self.events_dropped),
            count("amsfi_early_aborts_total", "early_aborts", &self.early_aborts),
            count("amsfi_saved_sim_femtoseconds_total", "saved_sim_fs", &self.saved_sim_fs),
            count("amsfi_saved_steps_total", "saved_steps", &self.saved_steps),
            Series::gauge("amsfi_golden_trace_bytes", self.golden_trace_bytes.get()).ship("golden_trace_bytes"),
            count("amsfi_lane_seals_total", "lane_seals", &self.lane_seals),
            hist("amsfi_lane_occupancy", "lane_occupancy", &self.lane_occupancy),
            hist("amsfi_proposed_dt_femtoseconds", "proposed_dt_fs", &self.proposed_dt_fs),
            hist("amsfi_budget_steps_used", "steps_used", &self.steps_used),
        ]);
        list.extend(STAGE_NAMES.iter().zip(&self.stage_latency_us).map(|(stage, h)| {
            Series::histogram("amsfi_stage_latency_microseconds", h)
                .label("stage", *stage)
                .ship(format!("stage_latency_us_{stage}"))
        }));
        list.push(hist("amsfi_case_latency_microseconds", "case_latency_us", &self.case_latency_us));
        list
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        prom_render(&self.series())
    }
}

/// Coordinator-side metrics for the distributed campaign service
/// (`amsfi serve`), rendered in the same Prometheus text format as
/// [`KernelMetrics`].
///
/// All fields are individually thread-safe: connection handler threads,
/// the lease reaper and the progress ticker all update one shared
/// instance without locks.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Workers currently connected (handshake completed, socket open).
    pub workers_connected: Gauge,
    /// Worker connections accepted over the coordinator's lifetime.
    pub workers_total: Counter,
    /// Campaigns submitted (startup flags + remote `submit` frames).
    pub campaigns_submitted: Counter,
    /// Campaigns whose every shard has completed.
    pub campaigns_completed: Counter,
    /// Shard leases granted (including re-leases after a reshard).
    pub shards_leased: Counter,
    /// Shards completed (a `shard_done` frame was accepted).
    pub shards_completed: Counter,
    /// Shards returned to the pool after their worker died or went silent.
    pub shards_resharded: Counter,
    /// Of the reshards, how many were triggered by a heartbeat/lease
    /// timeout (the rest were connection drops).
    pub lease_timeouts: Counter,
    /// Journal records live-merged into a campaign (new information only:
    /// duplicates from a resharded overlap are not counted again).
    pub cases_merged: Counter,
    /// Record frames rejected (stale lease, bad syntax, out-of-range
    /// index, or fingerprint mismatch).
    pub records_rejected: Counter,
    /// Protocol frames received.
    pub frames_rx: Counter,
    /// Protocol frames sent.
    pub frames_tx: Counter,
    /// Campaigns rebuilt from submission manifests at startup.
    pub campaigns_recovered: Counter,
    /// Journal entries replayed into memory during crash recovery —
    /// cases that will never be re-simulated.
    pub cases_recovered: Counter,
    /// Graceful-drain requests accepted (`drain` frames or API calls).
    pub drain_requests: Counter,
    /// Leased shards flagged as stragglers (lane rate fell below
    /// k·median of the campaign's active leases). Counts flag
    /// *transitions*, not scans: a shard flagged once and still slow
    /// does not re-count.
    pub stragglers_flagged: Counter,
}

impl ServeMetrics {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let count = |family, c: &Counter| Series::counter(family, c.get());
        prom_render(&[
            Series::gauge(
                "amsfi_serve_workers_connected",
                self.workers_connected.get(),
            ),
            count("amsfi_serve_workers_total", &self.workers_total),
            count("amsfi_serve_campaigns_total", &self.campaigns_submitted)
                .label("state", "submitted"),
            count("amsfi_serve_campaigns_total", &self.campaigns_completed)
                .label("state", "completed"),
            count("amsfi_serve_shards_total", &self.shards_leased).label("state", "leased"),
            count("amsfi_serve_shards_total", &self.shards_completed).label("state", "completed"),
            count("amsfi_serve_shards_total", &self.shards_resharded).label("state", "resharded"),
            count("amsfi_serve_lease_timeouts_total", &self.lease_timeouts),
            count("amsfi_serve_cases_merged_total", &self.cases_merged),
            count("amsfi_serve_records_rejected_total", &self.records_rejected),
            count("amsfi_serve_frames_total", &self.frames_rx).label("dir", "rx"),
            count("amsfi_serve_frames_total", &self.frames_tx).label("dir", "tx"),
            count(
                "amsfi_serve_campaigns_recovered_total",
                &self.campaigns_recovered,
            ),
            count("amsfi_serve_cases_recovered_total", &self.cases_recovered),
            count("amsfi_serve_drain_requests_total", &self.drain_requests),
            count(
                "amsfi_serve_stragglers_flagged_total",
                &self.stragglers_flagged,
            ),
        ])
    }
}

/// What a [`Series`] reads: its Prometheus type and its value.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reading<'a> {
    Counter(u64),
    Gauge(u64),
    Histogram(&'a LogHistogram),
}

/// One row of a registry's series list: a Prometheus family, at most one
/// label, the name it ships under in a
/// [`MetricsSnapshot`](crate::MetricsSnapshot) (kernel series only) and
/// its reading. A registry builds its list once per export;
/// [`prom_render`] writes any list.
#[derive(Debug)]
pub struct Series<'a> {
    family: &'static str,
    label: Option<(&'static str, String)>,
    pub(crate) snapshot: Option<String>,
    pub(crate) reading: Reading<'a>,
}

impl<'a> Series<'a> {
    fn new(family: &'static str, reading: Reading<'a>) -> Self {
        Series {
            family,
            label: None,
            snapshot: None,
            reading,
        }
    }

    /// A counter sample.
    pub fn counter(family: &'static str, value: u64) -> Self {
        Self::new(family, Reading::Counter(value))
    }

    /// A gauge sample.
    pub fn gauge(family: &'static str, value: u64) -> Self {
        Self::new(family, Reading::Gauge(value))
    }

    /// A histogram's `_bucket`/`_sum`/`_count` samples.
    pub fn histogram(family: &'static str, h: &'a LogHistogram) -> Self {
        Self::new(family, Reading::Histogram(h))
    }

    /// Adds the series' label.
    #[must_use]
    pub fn label(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.label = Some((name, value.into()));
        self
    }

    /// Names the series in the metrics snapshot a worker ships.
    fn ship(mut self, name: impl Into<String>) -> Self {
        self.snapshot = Some(name.into());
        self
    }
}

/// Renders a series list in Prometheus text exposition format, with a
/// `# TYPE` line wherever the family changes.
pub fn prom_render(series: &[Series<'_>]) -> String {
    let mut out = String::with_capacity(64 * series.len());
    let mut family = "";
    for s in series {
        if s.family != family {
            family = s.family;
            let ty = match s.reading {
                Reading::Counter(_) => "counter",
                Reading::Gauge(_) => "gauge",
                Reading::Histogram(_) => "histogram",
            };
            prom_type(&mut out, family, ty);
        }
        let label = s
            .label
            .as_ref()
            .map(|(name, value)| (*name, value.as_str()));
        match s.reading {
            Reading::Counter(v) | Reading::Gauge(v) => {
                prom_sample(&mut out, family, label.as_slice(), v);
            }
            Reading::Histogram(h) => prom_histogram(&mut out, family, label.as_slice(), h),
        }
    }
    out
}

/// Writes a `# TYPE` header line.
pub fn prom_type(out: &mut String, name: &str, ty: &str) {
    let _ = writeln!(out, "# TYPE {name} {ty}");
}

/// Writes one sample line with optional labels.
pub fn prom_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    out.push_str(name);
    for (i, (k, v)) in labels.iter().enumerate() {
        out.push(if i == 0 { '{' } else { ',' });
        let _ = write!(out, "{k}=\"{}\"", prom_escape_label(v));
    }
    if !labels.is_empty() {
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote and newline must be backslash-escaped inside
/// the quoted value. Worker names and campaign ids are attacker-ish
/// inputs (they arrive over the wire), so this is load-bearing, not
/// cosmetic: an unescaped `"` would let one worker corrupt the whole
/// fleet export.
fn prom_escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Writes the cumulative `_bucket`/`_sum`/`_count` series for one
/// histogram (the caller writes the shared `# TYPE` header).
fn prom_histogram(out: &mut String, name: &str, labels: &[(&str, &str)], h: &LogHistogram) {
    prom_histogram_counts(out, name, labels, &h.counts(), h.sum());
}

/// Writes the cumulative `_bucket`/`_sum`/`_count` series of one
/// histogram given as a bucket-count array (the caller writes the shared
/// `# TYPE` header) — the coordinator's fleet export renders the worker
/// histograms it received as snapshots this way.
pub fn prom_histogram_counts(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    counts: &[u64; HIST_BUCKETS],
    sum: u64,
) {
    let total: u64 = counts.iter().sum();
    let last = counts
        .iter()
        .rposition(|&c| c > 0)
        .unwrap_or(0)
        .min(HIST_BUCKETS - 2);
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate().take(last + 1) {
        cum += c;
        let le = LogHistogram::upper_bound(i).to_string();
        let mut ls: Vec<(&str, &str)> = labels.to_vec();
        ls.push(("le", &le));
        prom_sample(out, &format!("{name}_bucket"), &ls, cum);
    }
    let mut ls: Vec<(&str, &str)> = labels.to_vec();
    ls.push(("le", "+Inf"));
    prom_sample(out, &format!("{name}_bucket"), &ls, total);
    prom_sample(out, &format!("{name}_sum"), labels, sum);
    prom_sample(out, &format!("{name}_count"), labels, total);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        c.add(0);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_sum_to_count() {
        let h = LogHistogram::new();
        let values = [0u64, 1, 1, 2, 3, 7, 8, 100, 1023, 1024, u64::MAX, 55_555];
        for &v in &values {
            h.observe(v);
        }
        let counts = h.counts();
        assert_eq!(
            counts.iter().sum::<u64>(),
            values.len() as u64,
            "bucket counts must sum to the observation count"
        );
        assert_eq!(h.count(), values.len() as u64);
        // The cumulative distribution must be monotone non-decreasing.
        let mut cum = 0u64;
        let mut prev = 0u64;
        for &c in &counts {
            cum += c;
            assert!(cum >= prev, "cumulative counts regressed");
            prev = cum;
        }
        // Each value landed in a bucket whose bounds contain it.
        assert_eq!(counts[0], 1); // the single 0
        assert_eq!(counts[1], 2); // the two 1s
        assert_eq!(counts[2], 2); // 2 and 3
        assert_eq!(counts[64], 1); // u64::MAX
    }

    #[test]
    fn histogram_percentiles_are_ordered_and_bound_values() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p90 && p90 <= p99);
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        assert!((900..=1023).contains(&p99), "p99 = {p99}");
        assert_eq!(LogHistogram::new().percentile(50.0), 0);
    }

    #[test]
    fn guard_trips_by_kind() {
        let m = KernelMetrics::new();
        m.guard_trip(GuardKind::NonFinite);
        m.guard_trip(GuardKind::NonFinite);
        m.guard_trip(GuardKind::Deadline);
        assert_eq!(m.guard_trips(GuardKind::NonFinite), 2);
        assert_eq!(m.guard_trips(GuardKind::StepBudget), 0);
        assert_eq!(m.guard_trips_total(), 3);
    }

    #[test]
    fn hostile_label_values_are_escaped() {
        let mut out = String::new();
        prom_sample(
            &mut out,
            "amsfi_test_metric",
            &[
                ("worker", "w\"1\""),
                ("campaign", "a\\b"),
                ("note", "line1\nline2"),
            ],
            7,
        );
        assert_eq!(
            out,
            "amsfi_test_metric{worker=\"w\\\"1\\\"\",campaign=\"a\\\\b\",note=\"line1\\nline2\"} 7\n"
        );
        // The rendered line must stay a single physical line: the quoted
        // value carries the two-character sequence `\n`, not a newline.
        assert_eq!(out.matches('\n').count(), 1);
        assert!(out.ends_with('\n'));
        // Escaping round-trips through a text-format parser's unescape.
        let unescaped = out
            .replace("\\\\", "\u{0}")
            .replace("\\\"", "\"")
            .replace("\\n", "\n")
            .replace('\u{0}', "\\");
        assert!(unescaped.contains("worker=\"w\"1\"\""));
        assert_eq!(prom_escape_label("plain-value_1.0"), "plain-value_1.0");
    }

    #[test]
    fn prometheus_dump_is_line_parseable() {
        let m = KernelMetrics::new();
        m.solver_steps.add(123);
        m.proposed_dt_fs.observe(1000);
        m.stage_latency_us[1].observe(42);
        m.guard_trip(GuardKind::StepBudget);
        let text = m.to_prometheus();
        assert!(text.contains("amsfi_solver_steps_total 123"));
        assert!(text.contains("amsfi_guard_trips_total{kind=\"step-budget\"} 1"));
        assert!(text.contains("amsfi_stage_latency_microseconds_count{stage=\"simulate\"} 1"));
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "bad comment line: {line}");
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!name.is_empty());
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "unparseable value in: {line}"
            );
        }
    }
}
