//! Shippable metric snapshots: a serializable, mergeable view of a
//! [`KernelMetrics`] registry.
//!
//! The distributed campaign service needs each worker's counters and
//! log₂ histograms to survive the process boundary: a worker samples its
//! registry into a [`MetricsSnapshot`], ships it inside heartbeat /
//! `shard_done` frames, and the coordinator folds the fleet's snapshots
//! into one Prometheus export. Three properties drive the design:
//!
//! * **Cumulative, not incremental.** A snapshot always carries the
//!   worker's *total* counts since process start. The coordinator keys
//!   snapshots by worker name and keeps the latest — so a snapshot
//!   re-delivered after a reconnect or replayed from a cache is
//!   idempotent by construction (last-wins), with no delta bookkeeping
//!   on either side.
//! * **Mergeable.** Fleet totals are the field-wise sum of the per-worker
//!   snapshots. Histogram buckets add, so merging per-worker histograms
//!   in any order or grouping equals the histogram a single process
//!   would have recorded over the same observations (see the
//!   `hist_props` property tests).
//! * **Wire-safe.** The encoding is one line of `name=value` records
//!   (`;`-separated) using only `[A-Za-z0-9_.:,=;-]` — it embeds in a
//!   journal-escaped frame value without growth and survives hostile
//!   truncation as a decode error, never a panic.

use crate::metrics::{percentile, KernelMetrics, LogHistogram, Reading, HIST_BUCKETS};
use std::fmt;

/// A sparse, serializable copy of one [`LogHistogram`]: the non-empty
/// buckets plus the running sum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Sum of all observed values.
    pub sum: u64,
    /// `(bucket index, count)` pairs, ascending index, counts > 0.
    pub buckets: Vec<(u8, u64)>,
}

impl HistSnapshot {
    /// Captures a live histogram.
    pub fn of(h: &LogHistogram) -> Self {
        Self::sparse(h.sum(), &h.counts())
    }

    fn sparse(sum: u64, counts: &[u64; HIST_BUCKETS]) -> Self {
        HistSnapshot {
            sum,
            buckets: counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (i as u8, c))
                .collect(),
        }
    }

    /// Expands back to the dense bucket array (out-of-range indices from
    /// a hostile peer are dropped).
    pub fn counts(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for &(i, c) in &self.buckets {
            if (i as usize) < HIST_BUCKETS {
                out[i as usize] += c;
            }
        }
        out
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|&(_, c)| c).sum()
    }

    /// The value at percentile `p` (0–100), resolved to the containing
    /// bucket's upper bound; 0 when empty. Same contract as
    /// [`LogHistogram::percentile`].
    pub fn percentile(&self, p: f64) -> u64 {
        percentile(&self.counts(), p)
    }

    /// Adds `other`'s buckets and sum into `self` (bucket-wise sum —
    /// the associative, commutative fleet merge).
    pub fn merge_from(&mut self, other: &HistSnapshot) {
        let mut counts = self.counts();
        for &(i, c) in &other.buckets {
            if (i as usize) < HIST_BUCKETS {
                counts[i as usize] += c;
            }
        }
        *self = Self::sparse(self.sum.wrapping_add(other.sum), &counts);
    }
}

/// A serializable, mergeable sample of a metric registry: named counters
/// and named log₂ histograms. See the module docs for the contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, ascending name, unique.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` pairs, ascending name, unique.
    pub hists: Vec<(String, HistSnapshot)>,
}

/// Keeps snapshot names wire-safe: anything outside the identifier set
/// becomes `-`, and an empty name becomes `_`, so a hostile name can
/// never break (or vanish from) the record framing.
fn sanitize_name(name: &str) -> String {
    if name.is_empty() {
        return "_".to_owned();
    }
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '/' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets counter `name` to `value` (inserting or replacing).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        let name = sanitize_name(name);
        match self
            .counters
            .binary_search_by(|(n, _)| n.as_str().cmp(&name))
        {
            Ok(i) => self.counters[i].1 = value,
            Err(i) => self.counters.insert(i, (name, value)),
        }
    }

    /// Sets histogram `name` (inserting or replacing).
    pub fn set_hist(&mut self, name: &str, hist: HistSnapshot) {
        let name = sanitize_name(name);
        match self.hists.binary_search_by(|(n, _)| n.as_str().cmp(&name)) {
            Ok(i) => self.hists[i].1 = hist,
            Err(i) => self.hists.insert(i, (name, hist)),
        }
    }

    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map_or(0, |i| self.counters[i].1)
    }

    /// Histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.hists[i].1)
    }

    /// Field-wise sum of `other` into `self`: counters add, histogram
    /// buckets add. Associative and commutative, so fleet totals do not
    /// depend on merge order or grouping.
    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            let merged = self.counter(name).wrapping_add(*value);
            self.set_counter(name, merged);
        }
        for (name, hist) in &other.hists {
            match self.hists.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.hists[i].1.merge_from(hist),
                Err(i) => self.hists.insert(i, (name.clone(), hist.clone())),
            }
        }
    }

    /// Encodes as one line: `;`-separated `name=value` records, where a
    /// histogram value is `h:<sum>:<idx>.<count>,<idx>.<count>,...`.
    /// Empty-bucket histograms encode as `h:<sum>:`.
    pub fn encode(&self) -> String {
        use fmt::Write as _;
        let mut out = String::with_capacity(64 + 16 * (self.counters.len() + self.hists.len()));
        for (name, value) in &self.counters {
            if !out.is_empty() {
                out.push(';');
            }
            let _ = write!(out, "{name}={value}");
        }
        for (name, hist) in &self.hists {
            if !out.is_empty() {
                out.push(';');
            }
            let _ = write!(out, "{name}=h:{}:", hist.sum);
            for (i, (idx, count)) in hist.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{idx}.{count}");
            }
        }
        out
    }

    /// Decodes [`encode`](Self::encode)'s output. Returns `None` on any
    /// structural damage (truncation, non-numeric counts, out-of-range
    /// bucket indices) — a hostile or torn snapshot is dropped whole
    /// rather than half-merged.
    pub fn decode(text: &str) -> Option<MetricsSnapshot> {
        let mut snap = MetricsSnapshot::new();
        if text.is_empty() {
            return Some(snap);
        }
        for record in text.split(';') {
            let (name, value) = record.split_once('=')?;
            if name.is_empty() || name != sanitize_name(name) {
                return None;
            }
            if let Some(rest) = value.strip_prefix("h:") {
                let (sum, buckets) = rest.split_once(':')?;
                let mut hist = HistSnapshot {
                    sum: sum.parse().ok()?,
                    buckets: Vec::new(),
                };
                if !buckets.is_empty() {
                    let mut last: Option<u8> = None;
                    for pair in buckets.split(',') {
                        let (idx, count) = pair.split_once('.')?;
                        let idx: u8 = idx.parse().ok()?;
                        let count: u64 = count.parse().ok()?;
                        if (idx as usize) >= HIST_BUCKETS || count == 0 {
                            return None;
                        }
                        if last.is_some_and(|l| idx <= l) {
                            return None; // indices must ascend: no dup buckets
                        }
                        last = Some(idx);
                        hist.buckets.push((idx, count));
                    }
                }
                snap.set_hist(name, hist);
            } else {
                snap.set_counter(name, value.parse().ok()?);
            }
        }
        Some(snap)
    }
}

impl KernelMetrics {
    /// Samples the registry into a shippable [`MetricsSnapshot`]: every
    /// series of the Prometheus export, under its snapshot name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for series in self.series() {
            let Some(name) = &series.snapshot else {
                continue;
            };
            match series.reading {
                Reading::Counter(v) | Reading::Gauge(v) => snap.set_counter(name, v),
                Reading::Histogram(h) => snap.set_hist(name, HistSnapshot::of(h)),
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GuardKind;

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = MetricsSnapshot::new();
        assert_eq!(MetricsSnapshot::decode(&snap.encode()), Some(snap));
    }

    #[test]
    fn full_snapshot_round_trips() {
        let m = KernelMetrics::new();
        m.solver_steps.add(123);
        m.guard_trip(GuardKind::Deadline);
        m.case_latency_us.observe(0);
        m.case_latency_us.observe(999);
        m.case_latency_us.observe(u64::MAX);
        m.stage_latency_us[1].observe(42);
        let snap = m.snapshot();
        let wire = snap.encode();
        assert_eq!(MetricsSnapshot::decode(&wire), Some(snap.clone()));
        assert_eq!(snap.counter("solver_steps"), 123);
        assert_eq!(snap.counter("guard_deadline"), 1);
        assert_eq!(snap.hist("case_latency_us").unwrap().count(), 3);
        assert_eq!(snap.hist("case_latency_us").unwrap().percentile(50.0), 1023);
    }

    #[test]
    fn hostile_names_are_sanitized_and_survive() {
        let mut snap = MetricsSnapshot::new();
        snap.set_counter("evil name;with=framing\nchars", 7);
        let wire = snap.encode();
        let back = MetricsSnapshot::decode(&wire).expect("sanitized name decodes");
        assert_eq!(back.counter("evil-name-with-framing-chars"), 7);
    }

    #[test]
    fn truncation_is_a_decode_error_not_a_panic() {
        let m = KernelMetrics::new();
        m.solver_steps.add(10);
        m.case_latency_us.observe(5);
        let wire = m.snapshot().encode();
        for cut in 0..wire.len() {
            // Any strict prefix either decodes to a valid (smaller)
            // snapshot or is rejected — never a panic.
            let _ = MetricsSnapshot::decode(&wire[..cut]);
        }
        assert!(MetricsSnapshot::decode("x=h:3").is_none());
        assert!(MetricsSnapshot::decode("x=h:3:0.").is_none());
        assert!(MetricsSnapshot::decode("x=h:3:200.1").is_none());
        assert!(MetricsSnapshot::decode("=5").is_none());
        assert!(MetricsSnapshot::decode("x=5;;").is_none());
        assert!(MetricsSnapshot::decode("x=h:0:3.1,3.1").is_none());
    }

    #[test]
    fn merge_is_fieldwise_sum() {
        let a_metrics = KernelMetrics::new();
        a_metrics.solver_steps.add(5);
        a_metrics.case_latency_us.observe(100);
        let b_metrics = KernelMetrics::new();
        b_metrics.solver_steps.add(7);
        b_metrics.digital_events.add(2);
        b_metrics.case_latency_us.observe(100);
        b_metrics.case_latency_us.observe(100_000);

        let mut fleet = a_metrics.snapshot();
        fleet.merge_from(&b_metrics.snapshot());
        assert_eq!(fleet.counter("solver_steps"), 12);
        assert_eq!(fleet.counter("digital_events"), 2);
        let h = fleet.hist("case_latency_us").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum, 100_200);

        // Equal to the single-process histogram over the same values.
        let single = KernelMetrics::new();
        for v in [100u64, 100, 100_000] {
            single.case_latency_us.observe(v);
        }
        assert_eq!(h, single.snapshot().hist("case_latency_us").unwrap());
    }
}
