//! `amsfi-telemetry` — structured events, kernel metrics and a JSONL run
//! ledger for the amsfi fault-injection campaign stack.
//!
//! Hand-rolled and dependency-free, following the same vendoring
//! discipline as the workspace's `rand`/`proptest`/`criterion` shims: no
//! network, no serde, no tracing ecosystem. Three pieces:
//!
//! * **Events** ([`Event`]) — timestamped records sent into a bounded
//!   `std::sync::mpsc` queue; a background drainer writes them as an
//!   append-only JSONL event stream.
//! * **Kernel metrics** ([`KernelMetrics`], [`LogHistogram`], [`Counter`])
//!   — allocation-free counters and base-2 log-scale histograms for hot
//!   simulation loops, rendered in Prometheus text format.
//! * **A no-op mode** — [`Telemetry::disabled`] is a handle whose every
//!   operation is a branch on a `None`; the instrumented kernels pay
//!   nothing measurable when telemetry is off (enforced by
//!   `pr4_telemetry_bench` in `amsfi-bench`).
//!
//! ```
//! use amsfi_telemetry::{Event, Telemetry};
//!
//! // Disabled: every call is a cheap no-op.
//! let tele = Telemetry::disabled();
//! tele.emit_with(|| Event::new("span", "never-built"));
//! assert!(!tele.is_enabled());
//!
//! // Enabled without an event sink: metrics only.
//! let tele = Telemetry::builder().build().unwrap();
//! tele.metrics().unwrap().solver_steps.inc();
//! tele.emit(Event::new("span", "simulate").with_case(3)); // no sink: discarded
//! tele.close();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod event;
pub mod metrics;
pub mod snapshot;

pub use event::{Event, ParseEventError};
pub use metrics::{
    prom_histogram_counts, prom_render, prom_sample, prom_type, Counter, Gauge, GuardKind,
    KernelMetrics, LogHistogram, Series, ServeMetrics,
};
pub use snapshot::{HistSnapshot, MetricsSnapshot};

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long `flush()` will wait for the drainer to catch up.
const FLUSH_TIMEOUT: Duration = Duration::from_secs(5);

/// What the drainer takes off the event queue.
enum Msg {
    /// An event to write.
    Event(Event),
    /// A [`Telemetry::flush`] call: answered once every message queued
    /// ahead of it is written and the writer flushed.
    Flush(mpsc::Sender<()>),
}

struct Shared {
    metrics: Arc<KernelMetrics>,
    /// The event queue, when an events path is configured.
    events: Option<SyncSender<Msg>>,
    start: Instant,
    shutdown: Arc<AtomicBool>,
    drainer: Mutex<Option<JoinHandle<()>>>,
    /// Trace-context pairs stamped onto every emitted event (worker name,
    /// campaign, shard, epoch...). Set by the distributed worker around
    /// each lease so multi-process event streams can be joined.
    context: Mutex<Vec<(String, String)>>,
}

impl Shared {
    /// Appends the current trace context to an event's fields, skipping
    /// keys the event already carries (explicit fields win).
    fn stamp_context(&self, ev: &mut Event) {
        let Ok(ctx) = self.context.lock() else {
            return;
        };
        for (key, value) in ctx.iter() {
            if !ev.fields.iter().any(|(k, _)| k == key) {
                ev.fields.push((key.clone(), value.clone()));
            }
        }
    }
}

impl fmt::Debug for Shared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("events", &self.events.is_some())
            .finish_non_exhaustive()
    }
}

/// A cheaply cloneable telemetry handle.
///
/// Either *disabled* (every operation is a no-op behind one branch) or
/// *enabled* with a [`KernelMetrics`] registry and, optionally, a JSONL
/// event stream drained by a background thread. [`Telemetry::flush`]
/// makes the file complete up to the call; [`Telemetry::close`] stops the
/// drainer after a final drain.
#[derive(Clone, Default)]
pub struct Telemetry {
    shared: Option<Arc<Shared>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.shared {
            None => f.write_str("Telemetry(disabled)"),
            Some(s) => write!(f, "Telemetry(enabled, events={})", s.events.is_some()),
        }
    }
}

impl Telemetry {
    /// The no-op handle: no metrics, no events, near-zero cost.
    pub fn disabled() -> Self {
        Telemetry { shared: None }
    }

    /// Starts configuring an enabled handle.
    pub fn builder() -> TelemetryBuilder {
        TelemetryBuilder {
            events: None,
            capacity: 8192,
        }
    }

    /// An enabled handle over an event queue (if any) and its drainer.
    fn enabled(
        events: Option<SyncSender<Msg>>,
        drainer: Option<JoinHandle<()>>,
        shutdown: Arc<AtomicBool>,
    ) -> Self {
        Telemetry {
            shared: Some(Arc::new(Shared {
                metrics: Arc::new(KernelMetrics::new()),
                events,
                start: Instant::now(),
                shutdown,
                drainer: Mutex::new(drainer),
                context: Mutex::new(Vec::new()),
            })),
        }
    }

    /// True when this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The metric registry, when enabled.
    pub fn metrics(&self) -> Option<&Arc<KernelMetrics>> {
        self.shared.as_ref().map(|s| &s.metrics)
    }

    /// Emits an event to the JSONL stream, stamping its timestamp. A
    /// no-op unless enabled *with* an events path. Never blocks: when the
    /// queue is full (or closed) the event is dropped and counted in
    /// `events_dropped`.
    pub fn emit(&self, mut ev: Event) {
        if let Some(shared) = &self.shared {
            if let Some(events) = &shared.events {
                ev.t_us = shared.start.elapsed().as_micros() as u64;
                shared.stamp_context(&mut ev);
                if events.try_send(Msg::Event(ev)).is_err() {
                    shared.metrics.events_dropped.inc();
                }
            }
        }
    }

    /// Replaces the trace context: key/value pairs appended to every
    /// subsequent event until the next `set_context` /
    /// [`clear_context`](Self::clear_context). Explicit event fields with
    /// the same key win over context pairs. No-op when disabled.
    ///
    /// The distributed worker sets `worker`/`epoch` per session and
    /// `campaign`/`shard`/`fingerprint` per lease, which is what lets
    /// `amsfi report --distributed` join per-process JSONL streams into
    /// one causally-grouped view.
    pub fn set_context(&self, pairs: &[(&str, &str)]) {
        if let Some(shared) = &self.shared {
            if let Ok(mut ctx) = shared.context.lock() {
                *ctx = pairs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect();
            }
        }
    }

    /// Removes every trace-context pair. No-op when disabled.
    pub fn clear_context(&self) {
        self.set_context(&[]);
    }

    /// Like [`emit`](Self::emit) but the event is only *built* when it
    /// would actually be written — use this on warm paths so formatting
    /// costs nothing when telemetry is off.
    pub fn emit_with(&self, build: impl FnOnce() -> Event) {
        if let Some(shared) = &self.shared {
            if shared.events.is_some() {
                self.emit(build());
            }
        }
    }

    /// Returns once every event emitted before the call is written to the
    /// event file and the writer flushed, or after an internal timeout.
    /// No-op when disabled, without an events path, or after
    /// [`close`](Self::close).
    pub fn flush(&self) {
        let Some(events) = self.shared.as_ref().and_then(|s| s.events.as_ref()) else {
            return;
        };
        let deadline = Instant::now() + FLUSH_TIMEOUT;
        let (done, written) = mpsc::channel();
        // The queue is FIFO: the marker reaches the drainer after every
        // event accepted before it.
        let mut msg = Msg::Flush(done);
        loop {
            match events.try_send(msg) {
                Ok(()) => break,
                Err(TrySendError::Full(back)) if Instant::now() < deadline => {
                    msg = back;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => return,
            }
        }
        let _ = written.recv_timeout(deadline.saturating_duration_since(Instant::now()));
    }

    /// Shuts down the event drainer: signals it and joins it after a
    /// final drain. Events emitted afterwards are dropped and counted.
    /// Idempotent; a no-op when disabled.
    pub fn close(&self) {
        if let Some(shared) = &self.shared {
            shared.shutdown.store(true, Ordering::Release);
            let handle = shared.drainer.lock().ok().and_then(|mut d| d.take());
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }
}

/// Builder for an enabled [`Telemetry`] handle.
#[derive(Debug)]
pub struct TelemetryBuilder {
    events: Option<PathBuf>,
    capacity: usize,
}

impl TelemetryBuilder {
    /// Writes a JSONL event stream to `path` (created/truncated).
    #[must_use]
    pub fn events_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.events = Some(path.into());
        self
    }

    /// Event-queue capacity: how many events may wait for the drainer
    /// before further ones are dropped (at least one).
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Builds the handle, spawning the drainer thread if an events path
    /// was configured.
    pub fn build(self) -> std::io::Result<Telemetry> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let (events, drainer) = match self.events {
            Some(path) => {
                let writer = BufWriter::new(File::create(&path)?);
                let (events, queue) = mpsc::sync_channel(self.capacity.max(1));
                let drainer = spawn_drainer(queue, Arc::clone(&shutdown), writer);
                (Some(events), Some(drainer))
            }
            None => (None, None),
        };
        Ok(Telemetry::enabled(events, drainer, shutdown))
    }
}

/// Drains the queue in batches: everything waiting, then one writer
/// flush, then a 1 ms sleep — an emit never wakes the drainer. Stops after
/// the batch that follows `close`, or once every handle is gone.
fn spawn_drainer(
    queue: Receiver<Msg>,
    shutdown: Arc<AtomicBool>,
    mut writer: BufWriter<File>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("amsfi-telemetry".into())
        .spawn(move || {
            let mut broken = false;
            loop {
                // Read before draining: every event emitted before `close`
                // set the flag is in this batch.
                let stop = shutdown.load(Ordering::Acquire);
                let disconnected = loop {
                    match queue.try_recv() {
                        Ok(Msg::Event(ev)) => {
                            if !broken && writeln!(writer, "{}", ev.to_json()).is_err() {
                                // Keep draining so producers never stall, but
                                // stop writing and warn once.
                                eprintln!(
                                    "amsfi-telemetry: event sink write failed; discarding events"
                                );
                                broken = true;
                            }
                        }
                        Ok(Msg::Flush(done)) => {
                            if !broken {
                                let _ = writer.flush();
                            }
                            let _ = done.send(());
                        }
                        Err(TryRecvError::Empty) => break false,
                        Err(TryRecvError::Disconnected) => break true,
                    }
                };
                if !broken {
                    let _ = writer.flush();
                }
                if stop || disconnected {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
        .expect("spawn telemetry drainer")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_events(tag: &str) -> (PathBuf, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("amsfi-telemetry-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        (dir, path)
    }

    fn read_events(path: &std::path::Path) -> Vec<Event> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(|l| Event::parse(l).expect("valid JSONL"))
            .collect()
    }

    #[test]
    fn disabled_handle_is_inert() {
        let tele = Telemetry::disabled();
        assert!(!tele.is_enabled());
        assert!(tele.metrics().is_none());
        tele.emit(Event::new("span", "x"));
        tele.emit_with(|| unreachable!("must not build events when disabled"));
        tele.flush();
        tele.close();
    }

    #[test]
    fn metrics_only_mode_records_without_a_sink() {
        let tele = Telemetry::builder().build().unwrap();
        assert!(tele.is_enabled());
        tele.metrics().unwrap().solver_steps.add(3);
        tele.emit(Event::new("span", "x")); // silently discarded: no sink
        assert_eq!(tele.metrics().unwrap().solver_steps.get(), 3);
        assert_eq!(tele.metrics().unwrap().events_dropped.get(), 0);
        tele.close();
    }

    #[test]
    fn trace_context_stamps_events_and_spans() {
        let (dir, path) = temp_events("ctx");
        let tele = Telemetry::builder().events_path(&path).build().unwrap();

        tele.set_context(&[("worker", "w1"), ("campaign", "osc")]);
        tele.emit(Event::new("tick", "a"));
        // An explicit field with the same key wins over the context.
        tele.emit(Event::new("tick", "b").with_field("campaign", "explicit"));
        tele.emit(Event::new("span", "simulate").with_dur_us(5));
        tele.clear_context();
        tele.emit(Event::new("tick", "c"));
        tele.close();

        let events = read_events(&path);
        assert_eq!(events.len(), 4);
        let field = |ev: &Event, k: &str| {
            ev.fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(field(&events[0], "worker").as_deref(), Some("w1"));
        assert_eq!(field(&events[0], "campaign").as_deref(), Some("osc"));
        assert_eq!(field(&events[1], "campaign").as_deref(), Some("explicit"));
        assert_eq!(
            events[1]
                .fields
                .iter()
                .filter(|(k, _)| k == "campaign")
                .count(),
            1,
            "context must not duplicate an explicit field"
        );
        assert_eq!(field(&events[2], "worker").as_deref(), Some("w1"));
        assert_eq!(events[2].kind, "span");
        assert_eq!(field(&events[3], "worker"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn events_stream_to_jsonl_in_order() {
        let (dir, path) = temp_events("order");
        let tele = Telemetry::builder().events_path(&path).build().unwrap();
        for i in 0..10usize {
            tele.emit(Event::new("tick", "n").with_case(i));
        }
        tele.close();
        tele.close(); // idempotent

        let events = read_events(&path);
        assert_eq!(events.len(), 10);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.kind, "tick");
            assert_eq!(ev.case, Some(i as u64));
        }
        assert_eq!(tele.metrics().unwrap().events_dropped.get(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_returns_once_the_events_are_in_the_file() {
        let (dir, path) = temp_events("flush");
        let tele = Telemetry::builder().events_path(&path).build().unwrap();
        for round in 1..=3usize {
            for i in 0..100usize {
                tele.emit(Event::new("tick", "n").with_case(i));
            }
            tele.flush();
            // Read while the drainer is still running: no `close` yet.
            assert_eq!(read_events(&path).len(), 100 * round);
        }
        tele.close();
        tele.flush(); // after close: returns at once
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_full_queue_drops_and_counts_without_blocking() {
        // No drainer: the queue fills and stays full.
        let (events, queue) = mpsc::sync_channel(2);
        let tele = Telemetry::enabled(Some(events), None, Arc::default());
        for i in 0..5usize {
            tele.emit(Event::new("tick", "n").with_case(i));
        }
        let dropped = || tele.metrics().unwrap().events_dropped.get();
        assert_eq!(dropped(), 3);
        let mut kept = Vec::new();
        while let Ok(Msg::Event(ev)) = queue.try_recv() {
            kept.push(ev.case);
        }
        assert_eq!(kept, [Some(0), Some(1)]);
        // A closed queue counts too.
        drop(queue);
        tele.emit(Event::new("tick", "late"));
        assert_eq!(dropped(), 4);
    }

    #[test]
    fn concurrent_emitters_lose_nothing() {
        const THREADS: usize = 4;
        const EACH: usize = 200;
        let (dir, path) = temp_events("mpsc");
        let tele = Telemetry::builder()
            .events_path(&path)
            .capacity(THREADS * EACH)
            .build()
            .unwrap();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let tele = tele.clone();
                scope.spawn(move || {
                    for i in 0..EACH {
                        tele.emit(Event::new("tick", "n").with_case(t * 1000 + i));
                    }
                });
            }
        });
        tele.close();
        let mut seen: Vec<u64> = read_events(&path).iter().filter_map(|ev| ev.case).collect();
        assert_eq!(seen.len(), THREADS * EACH);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), THREADS * EACH, "duplicate or lost events");
        assert_eq!(tele.metrics().unwrap().events_dropped.get(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
