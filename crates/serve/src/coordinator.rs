//! The campaign coordinator: accepts submissions, shards them, leases
//! shards to workers, live-merges the records they stream back, and
//! survives workers dying mid-shard.
//!
//! # Lease / reshard state machine
//!
//! Every campaign is split into `shards` deterministic round-robin
//! [`Shard`]s (the same partition `amsfi run --shard` uses). Each shard
//! slot is in exactly one of three states:
//!
//! ```text
//!            lease_req                shard_done (all cases settled)
//!   Idle ───────────────▶ Leased ───────────────────────────────▶ Done
//!    ▲                      │
//!    │   connection drop,   │
//!    │   shard_abort, lease │
//!    └──────────────────────┘
//!        timeout (reaper)
//! ```
//!
//! A lease carries the indices the coordinator has already merged for
//! that shard, so a re-leased shard *resumes*: the new worker skips them
//! (`EngineConfig::completed`) instead of re-running and double-counting.
//! Records quoting a reclaimed (stale) lease id are rejected, so a zombie
//! worker that comes back after its lease timed out cannot corrupt the
//! merge — at worst its records duplicate information the replacement
//! worker already streamed, and [`journal::apply_entry`]'s last-wins /
//! never-demote rule keeps the merged map consistent either way.
//!
//! # Live merge
//!
//! Each streamed record is validated ([`journal::parse_line`], index
//! range, shard ownership, live lease) and folded into the campaign's
//! in-memory entry map with the same [`journal::apply_entry`] precedence
//! used by `amsfi merge`. Only records that change the map are appended
//! to the campaign's namespaced journal file, so the on-disk journal
//! stays an exact, replayable transcript of the merged state and the
//! final report is byte-identical to a single-process run.
//!
//! # Crash recovery
//!
//! Every accepted submission is persisted as a [`SubmitManifest`] next
//! to its journal. On startup (unless [`CoordinatorConfig::recover`] is off)
//! the coordinator scans the journal directory, re-resolves each
//! manifest against its catalog, verifies the case count and
//! fingerprint still match, and replays the merged journal back into
//! memory — so a restarted coordinator re-leases only the unmerged
//! indices and no case is ever simulated twice across a crash. Lease
//! ids are namespaced by a persisted epoch counter
//! ([`crate::manifest::bump_epoch`]), which invalidates every pre-crash
//! lease id wholesale: a zombie worker quoting one is rejected through
//! the ordinary stale-lease path.
//!
//! # Graceful drain
//!
//! A `drain` frame (or [`Coordinator::request_drain`]) flips the
//! coordinator into drain mode: lease requests are answered `no_work
//! drained=1`, in-flight shards finish streaming and merging, journals
//! stay flushed per record as always, and [`Coordinator::run`] returns
//! once the last lease settles — as opposed to
//! [`Coordinator::request_shutdown`], which stops the accept loop at
//! once and relies on crash recovery for anything in flight.

use crate::manifest::{self, SubmitManifest};
use crate::proto::{self, Frame, ProtoError, PROTOCOL_VERSION};
use crate::view::{TopCampaign, TopView, TopWorker};
use crate::CampaignSource;
use amsfi_engine::journal::{self, Journal, JournalEntry, JournalMeta};
use amsfi_engine::{Event, Shard, Telemetry};
use amsfi_telemetry::{
    prom_histogram_counts, prom_sample, prom_type, HistSnapshot, MetricsSnapshot, ServeMetrics,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Tuning and wiring for a [`Coordinator`].
pub struct CoordinatorConfig {
    /// Directory for the per-campaign merged journals (created if absent).
    pub journal_dir: PathBuf,
    /// A leased shard whose worker neither streams a record nor
    /// heartbeats for this long is reclaimed and re-leased.
    pub lease_timeout: Duration,
    /// How often the reaper scans for expired leases.
    pub reap_interval: Duration,
    /// Poll delay suggested to workers when no shard is available.
    pub retry_ms: u64,
    /// Exit [`Coordinator::run`] once every submitted campaign completes.
    pub until_drained: bool,
    /// Emit a progress line to stderr this often; `None` disables.
    pub progress: Option<Duration>,
    /// Write the Prometheus metrics snapshot here on every progress tick
    /// and at shutdown.
    pub metrics_path: Option<PathBuf>,
    /// Structured event sink.
    pub telemetry: Telemetry,
    /// Resolves submitted campaign names to case lists.
    pub source: CampaignSource,
    /// Rebuild the campaign table from submission manifests found in
    /// `journal_dir` at startup (see the module docs on crash recovery).
    pub recover: bool,
    /// Read/write deadline on every worker/client socket, so a hung or
    /// half-open peer can never pin a coordinator thread. `None`
    /// disables deadlines (not recommended outside tests).
    pub io_timeout: Option<Duration>,
    /// Straggler rule: a leased shard whose lane rate falls below
    /// `straggler_factor` × the median lane rate of its campaign's
    /// active leases is flagged (in `status`, `top` and a telemetry
    /// event). Observation only — flagging never reshards or cancels.
    /// Set to 0 to disable.
    pub straggler_factor: f64,
}

impl CoordinatorConfig {
    /// Defaults: 10 s lease timeout, 1 s reap interval, 250 ms worker
    /// poll, run forever, no progress, no metrics file, crash recovery
    /// on, 30 s socket deadlines.
    pub fn new(journal_dir: impl Into<PathBuf>, source: CampaignSource) -> Self {
        CoordinatorConfig {
            journal_dir: journal_dir.into(),
            lease_timeout: Duration::from_secs(10),
            reap_interval: Duration::from_secs(1),
            retry_ms: 250,
            until_drained: false,
            progress: None,
            metrics_path: None,
            telemetry: Telemetry::disabled(),
            source,
            recover: true,
            io_timeout: Some(Duration::from_secs(30)),
            straggler_factor: 0.5,
        }
    }
}

impl std::fmt::Debug for CoordinatorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoordinatorConfig")
            .field("journal_dir", &self.journal_dir)
            .field("lease_timeout", &self.lease_timeout)
            .field("until_drained", &self.until_drained)
            .finish_non_exhaustive()
    }
}

/// What [`Coordinator::submit`] reports back.
#[derive(Debug, Clone)]
pub struct SubmitInfo {
    /// Coordinator-assigned campaign id.
    pub id: u64,
    /// Campaign name.
    pub name: String,
    /// Total cases.
    pub cases: usize,
    /// Shard count.
    pub shards: usize,
    /// Campaign fingerprint.
    pub fingerprint: u64,
    /// Path of the campaign's merged journal.
    pub journal: PathBuf,
}

/// One shard slot's lifecycle state; see the module docs.
enum Slot {
    Idle,
    Leased {
        lease: u64,
        worker: String,
        granted: Instant,
        last_seen: Instant,
        /// Cases of this shard already settled when the lease was
        /// granted — the baseline the straggler scan measures lane
        /// progress against.
        merged_at_grant: usize,
        /// Currently flagged by the straggler rule (observation only).
        straggler: bool,
    },
    Done,
}

/// Sliding window the merge-rate / ETA estimate looks back over.
const RATE_WINDOW: Duration = Duration::from_secs(20);
/// Cap on retained rate samples (oldest evicted first).
const RATE_SAMPLES_MAX: usize = 512;

struct CampaignState {
    meta: JournalMeta,
    limit: Option<usize>,
    checkpoint: bool,
    early_abort: bool,
    slots: Vec<Slot>,
    journal: Journal,
    entries: BTreeMap<usize, JournalEntry>,
    resharded: u64,
    completed: bool,
    /// `(when, merged-count)` samples taken on newly-merged cases,
    /// trimmed to [`RATE_WINDOW`]; the basis for cases/sec and ETA.
    samples: VecDeque<(Instant, usize)>,
}

impl CampaignState {
    fn merged(&self) -> usize {
        self.entries.len()
    }

    /// Records a merge-progress sample (called on each newly-seen case).
    fn note_merge(&mut self, now: Instant) {
        let merged = self.entries.len();
        self.samples.push_back((now, merged));
        while self.samples.len() > RATE_SAMPLES_MAX {
            self.samples.pop_front();
        }
        self.trim_samples(now);
    }

    fn trim_samples(&mut self, now: Instant) {
        while let Some(&(t, _)) = self.samples.front() {
            if now.duration_since(t) > RATE_WINDOW {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Observed merge rate in millicases/sec over the sliding window;
    /// 0 when the window has no baseline (empty or a single instant).
    fn rate_mcps(&mut self, now: Instant) -> u64 {
        self.trim_samples(now);
        let Some(&(t0, m0)) = self.samples.front() else {
            return 0;
        };
        let span_us = now.duration_since(t0).as_micros() as u64;
        let delta = self.merged().saturating_sub(m0) as u64;
        if span_us < 200_000 || delta == 0 {
            return 0;
        }
        delta.saturating_mul(1_000_000_000) / span_us
    }

    /// ETA to full merge from the observed rate; `None` when complete
    /// or when no rate is observable yet.
    fn eta_ms(&mut self, now: Instant) -> Option<u64> {
        if self.completed {
            return None;
        }
        let rate = self.rate_mcps(now);
        if rate == 0 {
            return None;
        }
        let remaining = self.meta.cases.saturating_sub(self.merged()) as u64;
        Some(remaining.saturating_mul(1_000_000) / rate)
    }

    fn slot_counts(&self) -> (usize, usize, usize) {
        let (mut idle, mut leased, mut done) = (0, 0, 0);
        for slot in &self.slots {
            match slot {
                Slot::Idle => idle += 1,
                Slot::Leased { .. } => leased += 1,
                Slot::Done => done += 1,
            }
        }
        (idle, leased, done)
    }
}

struct LeaseRef {
    campaign: u64,
    shard_index: usize,
    conn: u64,
}

struct WorkerInfo {
    name: String,
    leases: usize,
    /// When the last frame (any kind) arrived from this worker.
    last_seen: Instant,
    /// `no_work` replies sent — growing with zero leases means the
    /// worker is idle-polling in backoff.
    nowork: u64,
}

/// The latest cumulative metrics snapshot a worker shipped, keyed by
/// worker *name* (so it survives reconnects) — last-wins, which is what
/// makes replayed deliveries idempotent.
struct WorkerStats {
    snapshot: MetricsSnapshot,
    updated: Instant,
}

#[derive(Default)]
struct State {
    campaigns: BTreeMap<u64, CampaignState>,
    leases: BTreeMap<u64, LeaseRef>,
    workers: BTreeMap<u64, WorkerInfo>,
    worker_stats: BTreeMap<String, WorkerStats>,
    /// Live socket per connection, so shutdown/drain can sever them all
    /// and the detached handler threads unblock promptly.
    conns: BTreeMap<u64, TcpStream>,
    next_campaign: u64,
    next_lease: u64,
    next_conn: u64,
}

impl State {
    /// True once at least one campaign was submitted and all completed.
    fn drained(&self) -> bool {
        !self.campaigns.is_empty() && self.campaigns.values().all(|c| c.completed)
    }

    fn merged_total(&self) -> u64 {
        self.campaigns.values().map(|c| c.merged() as u64).sum()
    }
}

struct Shared {
    cfg: CoordinatorConfig,
    state: Mutex<State>,
    metrics: Arc<ServeMetrics>,
    shutdown: AtomicBool,
    draining: AtomicBool,
    /// Handler threads currently alive; shutdown waits (bounded) for
    /// zero so no thread still appends to a journal a successor process
    /// may be replaying.
    active_conns: AtomicUsize,
    epoch: u64,
    start: Instant,
    /// True while [`Coordinator::run`] sits in its accept loop; the reaper
    /// runs exactly as long.
    accepting: AtomicBool,
    /// Where the listener accepts: [`Shared::wake_if_stopped`] connects
    /// here.
    wake_addr: SocketAddr,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("coordinator state poisoned")
    }

    /// The accept loop's exit condition: shut down, or drain complete
    /// (nothing is leased, everything streamed so far is merged and
    /// flushed). Takes the state lock.
    fn stopped(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
            || (self.draining.load(Ordering::SeqCst) && self.lock().leases.is_empty())
    }

    /// Unblocks the accept loop, which sleeps in `accept` between
    /// connections, if its exit condition holds: one connection to its own
    /// listener, dropped unread. Called with the state unlocked after
    /// whatever may have made the condition true — a shutdown, a drain
    /// request, a lease settling — and on every reaper tick, so a wake
    /// that could not connect (reported as a `wake_failed` event) costs at
    /// most one `reap_interval`. Before and after the loop there is nothing
    /// to wake: it checks the condition before its first accept.
    fn wake_if_stopped(&self) {
        if !self.accepting.load(Ordering::SeqCst) || !self.stopped() {
            return;
        }
        if let Err(e) = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1)) {
            self.event("wake_failed", |ev| ev.with_field("error", e));
        }
    }

    fn event(&self, name: &str, build: impl FnOnce(Event) -> Event) {
        self.cfg
            .telemetry
            .emit_with(|| build(Event::new("serve", name)));
    }
}

/// A bound, not-yet-running coordinator. [`Coordinator::run`] serves until
/// drained (if configured) or [`Coordinator::request_shutdown`].
pub struct Coordinator {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("addr", &self.listener.local_addr().ok())
            .finish_non_exhaustive()
    }
}

impl Coordinator {
    /// Binds `addr` (e.g. `127.0.0.1:0`), prepares the journal
    /// directory, bumps the lease epoch, and (by default) recovers the
    /// campaign table from any submission manifests found there.
    ///
    /// # Errors
    ///
    /// Socket bind, directory-creation, or epoch-persist failure.
    /// Recovery itself never fails the bind: an unrecoverable manifest
    /// is warned about and skipped, its journal left untouched.
    pub fn bind(addr: &str, cfg: CoordinatorConfig) -> io::Result<Coordinator> {
        std::fs::create_dir_all(&cfg.journal_dir)?;
        // Namespacing lease ids by a persisted epoch invalidates every
        // pre-crash lease id without tracking them individually.
        let epoch = manifest::bump_epoch(&cfg.journal_dir)?;
        let listener = TcpListener::bind(addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            let loopback = match wake_addr {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            };
            wake_addr.set_ip(loopback);
        }
        let state = State {
            next_lease: epoch << 32,
            ..State::default()
        };
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(state),
            metrics: Arc::new(ServeMetrics::new()),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            epoch,
            start: Instant::now(),
            accepting: AtomicBool::new(false),
            wake_addr,
        });
        if shared.cfg.recover {
            recover_campaigns(&shared);
        }
        Ok(Coordinator { listener, shared })
    }

    /// The address the coordinator is listening on.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The coordinator's metric registry (shared with the Prometheus
    /// export).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Submits a campaign locally (the CLI's startup `--campaign` flags
    /// use this; remote clients send a `submit` frame instead).
    ///
    /// # Errors
    ///
    /// Unknown campaign name, empty case list, or journal-creation
    /// failure.
    pub fn submit(
        &self,
        name: &str,
        shards: usize,
        limit: Option<usize>,
        checkpoint: bool,
        early_abort: bool,
    ) -> Result<SubmitInfo, String> {
        submit(&self.shared, name, shards, limit, checkpoint, early_abort)
    }

    /// True once every submitted campaign has completed.
    pub fn drained(&self) -> bool {
        self.shared.lock().drained()
    }

    /// Asks [`Coordinator::run`] to return now. Abrupt: in-flight leases
    /// are abandoned to crash recovery.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_if_stopped();
    }

    /// Begins a graceful drain: no further leases are granted, and
    /// [`Coordinator::run`] returns once every in-flight lease has
    /// finished merging (journals are already flushed per record).
    pub fn request_drain(&self) {
        begin_drain(&self.shared);
    }

    /// The lease epoch this incarnation runs in (bumped every start).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// The live fleet view — the exact payload an `amsfi top` client
    /// receives — for tests and embedding tools.
    pub fn fleet_view(&self) -> TopView {
        fleet_view(&self.shared)
    }

    /// The fleet Prometheus export text (what `--metrics` writes), for
    /// tests and embedding tools.
    pub fn fleet_prometheus(&self) -> String {
        fleet_prometheus(&self.shared)
    }

    /// The human-readable status body (what `amsfi status` prints),
    /// built from the same fleet view `top` renders.
    pub fn status(&self) -> String {
        match status_frame(&self.shared) {
            Frame::Status { body, .. } => body,
            _ => unreachable!("status_frame always returns Frame::Status"),
        }
    }

    /// A snapshot of a campaign's merged entries, for tests and tools.
    pub fn merged_entries(&self, id: u64) -> Option<BTreeMap<usize, JournalEntry>> {
        self.shared
            .lock()
            .campaigns
            .get(&id)
            .map(|c| c.entries.clone())
    }

    /// Serves connections until drained (when configured), shut down, or
    /// a fatal listener error.
    ///
    /// # Errors
    ///
    /// Fatal listener failure only; per-connection trouble is contained
    /// in that connection's handler thread.
    pub fn run(&self) -> io::Result<()> {
        self.shared.accepting.store(true, Ordering::SeqCst);
        let reaper = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || reaper_loop(&shared))
        };
        let progress = self.shared.cfg.progress.map(|interval| {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || progress_loop(&shared, interval))
        });

        // Whatever makes `stopped` true wakes the blocking accept below
        // (`Shared::wake_if_stopped`).
        let result = loop {
            if self.shared.stopped() {
                break Ok(());
            }
            match self.listener.accept() {
                Ok(_) if self.shared.stopped() => break Ok(()),
                Ok((stream, peer)) => {
                    let shared = Arc::clone(&self.shared);
                    // Handler threads are detached on purpose: one may sit
                    // in a blocking read on a dead-silent zombie socket
                    // until its io deadline fires, and joining it would
                    // stall the accept loop. They hold only an Arc on
                    // shared state and exit on EOF/timeout; shutdown
                    // severs their sockets below and waits for the count
                    // to drain.
                    std::thread::spawn(move || handle_conn(&shared, stream, peer));
                }
                Err(e) => break Err(e),
            }
        };

        self.shared.accepting.store(false, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        reaper.join().ok();
        if let Some(p) = progress {
            p.join().ok();
        }
        // Sever every live connection so no detached handler can still
        // append to a journal a successor coordinator may be replaying,
        // then wait (bounded) for the handlers to finish their cleanup.
        {
            let state = self.shared.lock();
            for conn in state.conns.values() {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.shared.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        write_metrics_file(&self.shared);
        self.shared.cfg.telemetry.flush();
        result
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

fn submit(
    shared: &Shared,
    name: &str,
    shards: usize,
    limit: Option<usize>,
    checkpoint: bool,
    early_abort: bool,
) -> Result<SubmitInfo, String> {
    let campaign = (shared.cfg.source)(name, limit)
        .ok_or_else(|| format!("unknown campaign {name:?} (not in this coordinator's catalog)"))?;
    let meta = campaign.meta();
    drop(campaign); // the coordinator never runs cases, only identifies them
    if meta.cases == 0 {
        return Err(format!("campaign {name:?} has no cases"));
    }
    let shard_count = shards.clamp(1, meta.cases);

    let mut state = shared.lock();
    state.next_campaign += 1;
    let id = state.next_campaign;
    let stem = format!("campaign-{id:04}-{}", sanitize(name));
    // Persist the manifest before creating the journal: recovery
    // tolerates a manifest without a journal (it creates one), but an
    // orphan journal would block this id forever.
    let manifest = SubmitManifest {
        id,
        name: meta.name.clone(),
        shards: shard_count,
        limit,
        checkpoint,
        early_abort,
        cases: meta.cases,
        fingerprint: meta.fingerprint,
    };
    let manifest_path = shared.cfg.journal_dir.join(format!("{stem}.submit"));
    manifest
        .save(&manifest_path)
        .map_err(|e| format!("persisting submission: {e}"))?;
    let path = shared.cfg.journal_dir.join(format!("{stem}.journal"));
    let (journal, entries) = match Journal::open(&path, &meta, false) {
        Ok(v) => v,
        Err(e) => {
            let _ = std::fs::remove_file(&manifest_path);
            return Err(e.to_string());
        }
    };
    let info = SubmitInfo {
        id,
        name: meta.name.clone(),
        cases: meta.cases,
        shards: shard_count,
        fingerprint: meta.fingerprint,
        journal: path,
    };
    state.campaigns.insert(
        id,
        CampaignState {
            meta,
            limit,
            checkpoint,
            early_abort,
            slots: (0..shard_count).map(|_| Slot::Idle).collect(),
            journal,
            entries,
            resharded: 0,
            completed: false,
            samples: VecDeque::new(),
        },
    );
    drop(state);
    shared.metrics.campaigns_submitted.inc();
    shared.event("submit", |e| {
        e.with_field("campaign", id)
            .with_field("name", &info.name)
            .with_field("cases", info.cases)
            .with_field("shards", info.shards)
    });
    Ok(info)
}

/// Rebuilds the campaign table from submission manifests in the journal
/// directory. Never fatal: a manifest that cannot be recovered (catalog
/// drift, unreadable journal) is warned about and skipped; its files
/// are left on disk for `amsfi merge`/`amsfi run --resume`.
fn recover_campaigns(shared: &Shared) {
    let dir = &shared.cfg.journal_dir;
    let (manifests, broken) = match SubmitManifest::scan(dir) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("serve: cannot scan {} for recovery: {e}", dir.display());
            return;
        }
    };
    for (path, why) in &broken {
        eprintln!(
            "serve: ignoring unreadable manifest {}: {why}",
            path.display()
        );
    }
    for m in manifests {
        let Some(campaign) = (shared.cfg.source)(&m.name, m.limit) else {
            eprintln!(
                "serve: not recovering campaign {} ({:?}): not in this coordinator's catalog",
                m.id, m.name
            );
            continue;
        };
        let meta = campaign.meta();
        drop(campaign);
        if meta.cases != m.cases || meta.fingerprint != m.fingerprint {
            // The catalog resolves the name to a different case list than
            // the one the campaign was submitted with. Re-leasing would
            // mix two case universes under one fingerprint — refuse.
            eprintln!(
                "serve: not recovering campaign {} ({:?}): catalog drift — manifest has {} \
                 cases / fingerprint {:016x}, catalog resolves {} / {:016x}",
                m.id, m.name, m.cases, m.fingerprint, meta.cases, meta.fingerprint
            );
            continue;
        }
        let path = dir.join(format!(
            "campaign-{:04}-{}.journal",
            m.id,
            sanitize(&m.name)
        ));
        let (journal, entries) = match Journal::open(&path, &meta, true) {
            Ok(v) => v,
            Err(e) => {
                eprintln!(
                    "serve: not recovering campaign {} ({:?}): {e}",
                    m.id, m.name
                );
                continue;
            }
        };
        let shard_count = m.shards.clamp(1, meta.cases);
        // A shard is finished iff every index it owns has settled —
        // the same criterion `finish_shard` applies to a live
        // `shard_done` claim.
        let slots: Vec<Slot> = (0..shard_count)
            .map(|i| {
                let shard = Shard::new(i, shard_count).expect("index < count");
                if shard
                    .case_indices(meta.cases)
                    .all(|j| entries.contains_key(&j))
                {
                    Slot::Done
                } else {
                    Slot::Idle
                }
            })
            .collect();
        let completed = slots.iter().all(|s| matches!(s, Slot::Done));
        let recovered_cases = entries.len() as u64;
        let mut state = shared.lock();
        state.next_campaign = state.next_campaign.max(m.id);
        state.campaigns.insert(
            m.id,
            CampaignState {
                meta,
                limit: m.limit,
                checkpoint: m.checkpoint,
                early_abort: m.early_abort,
                slots,
                journal,
                entries,
                resharded: 0,
                completed,
                samples: VecDeque::new(),
            },
        );
        drop(state);
        shared.metrics.campaigns_recovered.inc();
        shared.metrics.cases_recovered.add(recovered_cases);
        eprintln!(
            "serve: recovered campaign {} ({:?}): {recovered_cases}/{} cases already merged{}",
            m.id,
            m.name,
            m.cases,
            if completed { ", complete" } else { "" },
        );
        shared.event("recover", |e| {
            e.with_field("campaign", m.id)
                .with_field("name", &m.name)
                .with_field("cases_recovered", recovered_cases)
                .with_field("complete", completed)
        });
    }
    // Everything recovered may already be complete; honour
    // `--until-drained` without waiting for a frame that never comes.
    if shared.cfg.until_drained && shared.lock().drained() {
        shared.shutdown.store(true, Ordering::SeqCst);
    }
}

/// Flips the coordinator into drain mode (idempotent).
fn begin_drain(shared: &Shared) {
    if !shared.draining.swap(true, Ordering::SeqCst) {
        shared.metrics.drain_requests.inc();
        shared.event("drain", |e| e);
    }
    shared.wake_if_stopped();
}

/// Returns a leased shard to the pool. `timeout` distinguishes the
/// reaper's lease-timeout path from a connection drop / abort.
fn release_lease(shared: &Shared, state: &mut State, lease_id: u64, why: &str, timeout: bool) {
    let Some(lref) = state.leases.remove(&lease_id) else {
        return;
    };
    if let Some(w) = state.workers.get_mut(&lref.conn) {
        w.leases = w.leases.saturating_sub(1);
    }
    if let Some(c) = state.campaigns.get_mut(&lref.campaign) {
        if let Some(slot) = c.slots.get_mut(lref.shard_index) {
            if matches!(slot, Slot::Leased { lease, .. } if *lease == lease_id) {
                *slot = Slot::Idle;
                c.resharded += 1;
                shared.metrics.shards_resharded.inc();
                if timeout {
                    shared.metrics.lease_timeouts.inc();
                }
                shared.event("reshard", |e| {
                    e.with_field("campaign", lref.campaign)
                        .with_field("shard", lref.shard_index)
                        .with_field("lease", lease_id)
                        .with_field("why", why)
                });
            }
        }
    }
}

fn reaper_loop(shared: &Shared) {
    while shared.accepting.load(Ordering::SeqCst) {
        std::thread::sleep(shared.cfg.reap_interval);
        let now = Instant::now();
        let mut state = shared.lock();
        let expired: Vec<u64> = state
            .leases
            .iter()
            .filter_map(|(&lease_id, lref)| {
                let c = state.campaigns.get(&lref.campaign)?;
                match c.slots.get(lref.shard_index)? {
                    Slot::Leased { last_seen, .. }
                        if now.duration_since(*last_seen) > shared.cfg.lease_timeout =>
                    {
                        Some(lease_id)
                    }
                    _ => None,
                }
            })
            .collect();
        for lease_id in expired {
            release_lease(shared, &mut state, lease_id, "lease timeout", true);
        }
        drop(state);
        scan_stragglers(shared, now);
        shared.wake_if_stopped();
    }
}

/// The straggler rule, run on each reaper tick: within one campaign,
/// every leased shard's *lane rate* is (cases settled since grant) /
/// (lease age); a lane whose rate falls below `straggler_factor` ×
/// the median of its campaign's active lanes is flagged. Flagging is
/// observation only — it marks the slot (shown by `status`/`top`),
/// emits one telemetry event per transition, and bumps a counter; the
/// lease itself is left entirely alone (the reaper's timeout path is
/// the only reclaim policy).
///
/// Guards against false positives: a campaign needs ≥ 2 active lanes
/// (a median of one lane is itself), and a lane is only judged once
/// it is at least two reap intervals old.
fn scan_stragglers(shared: &Shared, now: Instant) {
    if shared.cfg.straggler_factor <= 0.0 {
        return;
    }
    let min_age = shared.cfg.reap_interval * 2;
    struct Flagged {
        campaign: u64,
        name: String,
        shard: usize,
        lease: u64,
        worker: String,
        rate_mcps: u64,
        median_mcps: u64,
    }
    let mut flagged: Vec<Flagged> = Vec::new();
    let mut state = shared.lock();
    for (&campaign_id, c) in state.campaigns.iter_mut() {
        let shard_count = c.slots.len();
        // Lane rates in millicases/sec for every judgeable lease.
        let mut lanes: Vec<(usize, u64)> = Vec::new();
        for (i, slot) in c.slots.iter().enumerate() {
            let Slot::Leased {
                granted,
                merged_at_grant,
                ..
            } = slot
            else {
                continue;
            };
            let age = now.duration_since(*granted);
            if age < min_age {
                continue;
            }
            let shard = Shard::new(i, shard_count).expect("slot index < count");
            let settled = shard
                .case_indices(c.meta.cases)
                .filter(|j| c.entries.contains_key(j))
                .count();
            let progressed = settled.saturating_sub(*merged_at_grant) as u64;
            let rate = progressed.saturating_mul(1_000_000_000) / age.as_micros().max(1) as u64;
            lanes.push((i, rate));
        }
        if lanes.len() < 2 {
            continue;
        }
        let mut rates: Vec<u64> = lanes.iter().map(|&(_, r)| r).collect();
        rates.sort_unstable();
        let median = rates[rates.len() / 2];
        let threshold = (median as f64 * shared.cfg.straggler_factor) as u64;
        for (i, rate) in lanes {
            let slow = median > 0 && rate < threshold;
            if let Slot::Leased {
                lease,
                worker,
                straggler,
                ..
            } = &mut c.slots[i]
            {
                if slow && !*straggler {
                    flagged.push(Flagged {
                        campaign: campaign_id,
                        name: c.meta.name.clone(),
                        shard: i,
                        lease: *lease,
                        worker: worker.clone(),
                        rate_mcps: rate,
                        median_mcps: median,
                    });
                }
                *straggler = slow;
            }
        }
    }
    drop(state);
    for f in flagged {
        shared.metrics.stragglers_flagged.inc();
        shared.event("straggler", |e| {
            e.with_field("campaign", &f.name)
                .with_field("campaign_id", f.campaign)
                .with_field("shard", f.shard)
                .with_field("lease", f.lease)
                .with_field("worker", &f.worker)
                .with_field("rate_mcps", f.rate_mcps)
                .with_field("median_mcps", f.median_mcps)
        });
    }
}

fn progress_loop(shared: &Shared, interval: Duration) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let (campaigns, complete, merged, workers, leases) = {
            let state = shared.lock();
            (
                state.campaigns.len(),
                state.campaigns.values().filter(|c| c.completed).count(),
                state.merged_total(),
                state.workers.len(),
                state.leases.len(),
            )
        };
        eprintln!(
            "serve: {campaigns} campaigns ({complete} complete), {workers} workers, \
             {leases} active leases, {merged} cases merged"
        );
        write_metrics_file(shared);
    }
}

fn write_metrics_file(shared: &Shared) {
    if let Some(path) = &shared.cfg.metrics_path {
        let text = fleet_prometheus(shared);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("serve: metrics write {}: {e}", path.display());
        }
    }
}

/// Records a freshly shipped worker metrics snapshot, keyed by worker
/// name. Cumulative + last-wins = idempotent under reconnect/replay.
fn store_worker_metrics(shared: &Shared, conn: u64, metrics: Option<MetricsSnapshot>) {
    let Some(snapshot) = metrics else {
        return;
    };
    let mut state = shared.lock();
    let Some(name) = state.workers.get(&conn).map(|w| w.name.clone()) else {
        return; // metrics before hello: nothing to key them by
    };
    state.worker_stats.insert(
        name,
        WorkerStats {
            snapshot,
            updated: Instant::now(),
        },
    );
}

/// The single fleet-aggregation path: everything `amsfi top` renders,
/// everything `amsfi status` summarises, and every derived gauge in the
/// fleet Prometheus export comes out of this one function.
fn fleet_view(shared: &Shared) -> TopView {
    let mut state = shared.lock();
    let now = Instant::now();
    let mut view = TopView {
        epoch: shared.epoch,
        drained: state.drained(),
        uptime_ms: shared.start.elapsed().as_millis() as u64,
        campaigns: Vec::new(),
        workers: Vec::new(),
    };
    let ids: Vec<u64> = state.campaigns.keys().copied().collect();
    for id in ids {
        let c = state.campaigns.get_mut(&id).expect("id just listed");
        let (idle, leased, done) = c.slot_counts();
        let stragglers: Vec<usize> = c
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                matches!(
                    s,
                    Slot::Leased {
                        straggler: true,
                        ..
                    }
                )
                .then_some(i)
            })
            .collect();
        let rate_mcps = c.rate_mcps(now);
        let eta_ms = c.eta_ms(now);
        view.campaigns.push(TopCampaign {
            id,
            name: c.meta.name.clone(),
            merged: c.merged(),
            cases: c.meta.cases,
            shards_done: done,
            shards_leased: leased,
            shards_idle: idle,
            rate_mcps,
            eta_ms,
            stragglers,
            resharded: c.resharded,
        });
    }
    // Workers: connected ones (possibly several conns under one name)
    // unioned with every name that ever shipped a metrics snapshot, so a
    // dead worker's contribution stays visible.
    let mut by_name: BTreeMap<String, TopWorker> = BTreeMap::new();
    for w in state.workers.values() {
        let seen_ms = now.duration_since(w.last_seen).as_millis() as u64;
        let entry = by_name.entry(w.name.clone()).or_insert_with(|| TopWorker {
            name: w.name.clone(),
            last_seen_ms: seen_ms,
            ..TopWorker::default()
        });
        entry.connected = true;
        entry.leases += w.leases;
        entry.nowork += w.nowork;
        entry.last_seen_ms = entry.last_seen_ms.min(seen_ms);
    }
    for (name, ws) in &state.worker_stats {
        let entry = by_name.entry(name.clone()).or_insert_with(|| TopWorker {
            name: name.clone(),
            last_seen_ms: now.duration_since(ws.updated).as_millis() as u64,
            ..TopWorker::default()
        });
        if let Some(h) = ws.snapshot.hist("case_latency_us") {
            entry.cases = h.count();
            entry.p50_us = h.percentile(50.0);
            entry.p99_us = h.percentile(99.0);
        }
        if let Some(h) = ws.snapshot.hist("lane_occupancy") {
            entry.lane_p50 = h.percentile(50.0);
        }
        entry.replay_hits = ws.snapshot.counter("worker_records_replayed");
        entry.reconnects = ws.snapshot.counter("worker_reconnects");
    }
    view.workers = by_name.into_values().collect();
    view
}

/// Renders the whole fleet in Prometheus text format: the coordinator's
/// own [`ServeMetrics`], every worker's shipped kernel metrics with a
/// `worker` label plus an unlabelled fleet aggregate, per-worker latency
/// quantile gauges, and the derived per-campaign gauges (cases/sec, ETA,
/// stragglers, reshards, merge lag).
fn fleet_prometheus(shared: &Shared) -> String {
    let view = fleet_view(shared);
    let mut out = shared.metrics.to_prometheus();
    let state = shared.lock();

    let mut counter_names: BTreeSet<String> = BTreeSet::new();
    let mut hist_names: BTreeSet<String> = BTreeSet::new();
    for ws in state.worker_stats.values() {
        counter_names.extend(ws.snapshot.counters.iter().map(|(n, _)| n.clone()));
        hist_names.extend(ws.snapshot.hists.iter().map(|(n, _)| n.clone()));
    }
    for name in &counter_names {
        let family = format!("amsfi_fleet_{name}_total");
        prom_type(&mut out, &family, "counter");
        let mut total = 0u64;
        for (worker, ws) in &state.worker_stats {
            let v = ws.snapshot.counter(name);
            total = total.wrapping_add(v);
            prom_sample(&mut out, &family, &[("worker", worker)], v);
        }
        prom_sample(&mut out, &family, &[], total);
    }
    for name in &hist_names {
        let family = format!("amsfi_fleet_{name}");
        prom_type(&mut out, &family, "histogram");
        let mut fleet = HistSnapshot::default();
        for (worker, ws) in &state.worker_stats {
            if let Some(h) = ws.snapshot.hist(name) {
                prom_histogram_counts(&mut out, &family, &[("worker", worker)], &h.counts(), h.sum);
                fleet.merge_from(h);
            }
        }
        prom_histogram_counts(&mut out, &family, &[], &fleet.counts(), fleet.sum);
    }
    let executed: u64 = state
        .worker_stats
        .values()
        .filter_map(|ws| ws.snapshot.hist("case_latency_us"))
        .map(HistSnapshot::count)
        .sum();
    let merged = state.merged_total();
    drop(state);

    prom_type(
        &mut out,
        "amsfi_fleet_case_latency_p50_microseconds",
        "gauge",
    );
    for w in &view.workers {
        prom_sample(
            &mut out,
            "amsfi_fleet_case_latency_p50_microseconds",
            &[("worker", &w.name)],
            w.p50_us,
        );
    }
    prom_type(
        &mut out,
        "amsfi_fleet_case_latency_p99_microseconds",
        "gauge",
    );
    for w in &view.workers {
        prom_sample(
            &mut out,
            "amsfi_fleet_case_latency_p99_microseconds",
            &[("worker", &w.name)],
            w.p99_us,
        );
    }

    let campaign_labels: Vec<(String, &TopCampaign)> = view
        .campaigns
        .iter()
        .map(|c| (c.id.to_string(), c))
        .collect();
    prom_type(&mut out, "amsfi_fleet_cases_per_second_milli", "gauge");
    for (id, c) in &campaign_labels {
        prom_sample(
            &mut out,
            "amsfi_fleet_cases_per_second_milli",
            &[("campaign", &c.name), ("id", id)],
            c.rate_mcps,
        );
    }
    prom_type(&mut out, "amsfi_fleet_eta_milliseconds", "gauge");
    for (id, c) in &campaign_labels {
        if let Some(eta) = c.eta_ms {
            prom_sample(
                &mut out,
                "amsfi_fleet_eta_milliseconds",
                &[("campaign", &c.name), ("id", id)],
                eta,
            );
        }
    }
    prom_type(&mut out, "amsfi_fleet_stragglers", "gauge");
    for (id, c) in &campaign_labels {
        prom_sample(
            &mut out,
            "amsfi_fleet_stragglers",
            &[("campaign", &c.name), ("id", id)],
            c.stragglers.len() as u64,
        );
    }
    prom_type(&mut out, "amsfi_fleet_resharded_total", "counter");
    for (id, c) in &campaign_labels {
        prom_sample(
            &mut out,
            "amsfi_fleet_resharded_total",
            &[("campaign", &c.name), ("id", id)],
            c.resharded,
        );
    }
    // Cases workers report having executed minus cases merged: a fleet
    // that executes faster than it merges (or replays work the
    // coordinator already has) shows up here.
    prom_type(&mut out, "amsfi_fleet_merge_lag_cases", "gauge");
    prom_sample(
        &mut out,
        "amsfi_fleet_merge_lag_cases",
        &[],
        executed.saturating_sub(merged),
    );
    out
}

fn status_frame(shared: &Shared) -> Frame {
    // One aggregation path: the status page is a rendering of the same
    // fleet view `amsfi top` receives, plus per-lease detail lines.
    let view = fleet_view(shared);
    let mut body = format!(
        "amsfi-serve up {:.1}s (epoch {}{})\ncampaigns: {} submitted, {} complete, {} cases merged\n",
        view.uptime_ms as f64 / 1000.0,
        view.epoch,
        if shared.draining.load(Ordering::SeqCst) {
            ", draining"
        } else {
            ""
        },
        view.campaigns.len(),
        view.campaigns.iter().filter(|c| c.merged == c.cases).count(),
        view.campaigns.iter().map(|c| c.merged as u64).sum::<u64>(),
    );
    let state = shared.lock();
    for c in &view.campaigns {
        let percent = if c.cases > 0 {
            100.0 * c.merged as f64 / c.cases as f64
        } else {
            100.0
        };
        let fingerprint = state
            .campaigns
            .get(&c.id)
            .map_or(0, |cs| cs.meta.fingerprint);
        body.push_str(&format!(
            "  [{}] {}: {}/{} cases merged ({percent:.1}%), shards {}/{} done ({} leased, {} idle), \
             resharded {}, fingerprint {fingerprint:016x}\n",
            c.id,
            c.name,
            c.merged,
            c.cases,
            c.shards_done,
            c.shards_done + c.shards_leased + c.shards_idle,
            c.shards_leased,
            c.shards_idle,
            c.resharded,
        ));
        if c.rate_mcps > 0 {
            body.push_str(&format!(
                "      rate {:.1} cases/s{}\n",
                c.rate_mcps as f64 / 1000.0,
                c.eta_ms.map_or(String::new(), |eta| format!(
                    ", ETA {:.1}s",
                    eta as f64 / 1000.0
                )),
            ));
        }
        let Some(cs) = state.campaigns.get(&c.id) else {
            continue;
        };
        for (i, slot) in cs.slots.iter().enumerate() {
            if let Slot::Leased {
                lease,
                worker,
                granted,
                last_seen,
                straggler,
                ..
            } = slot
            {
                body.push_str(&format!(
                    "      shard {i}/{} leased to {worker} (lease {lease}, age {:.1}s, \
                     idle {:.1}s){}\n",
                    cs.slots.len(),
                    granted.elapsed().as_secs_f64(),
                    last_seen.elapsed().as_secs_f64(),
                    if *straggler { " STRAGGLER" } else { "" },
                ));
            }
        }
    }
    let connected = view.workers.iter().filter(|w| w.connected).count();
    body.push_str(&format!("workers: {connected} connected\n"));
    for w in &view.workers {
        body.push_str(&format!(
            "  {} ({} leases, {}last seen {:.1}s ago, {} cases, p50 {}us, p99 {}us, \
             {} replayed, {} reconnects)\n",
            w.name,
            w.leases,
            if w.connected { "" } else { "disconnected, " },
            w.last_seen_ms as f64 / 1000.0,
            w.cases,
            w.p50_us,
            w.p99_us,
            w.replay_hits,
            w.reconnects,
        ));
    }
    body.push_str(&format!(
        "drained: {}\n",
        if view.drained { "yes" } else { "no" }
    ));
    let merged_total = state.merged_total();
    let campaigns = state.campaigns.len();
    let workers = state.workers.len();
    let drained = state.drained();
    drop(state);
    Frame::Status {
        campaigns,
        workers,
        merged: merged_total,
        drained,
        body,
    }
}

/// Grants the lowest (campaign, shard) idle slot, or reports no work.
fn grant_lease(shared: &Shared, conn: u64, worker_name: &str) -> Frame {
    if shared.draining.load(Ordering::SeqCst) {
        // Draining: no further work will ever come, so report drained —
        // workers running `--exit-when-done` disconnect on seeing it.
        if let Some(w) = shared.lock().workers.get_mut(&conn) {
            w.nowork += 1;
        }
        return Frame::NoWork {
            retry_ms: shared.cfg.retry_ms,
            drained: true,
        };
    }
    let mut state = shared.lock();
    let mut found: Option<(u64, usize)> = None;
    for (&id, c) in &state.campaigns {
        if c.completed {
            continue;
        }
        if let Some(i) = c.slots.iter().position(|s| matches!(s, Slot::Idle)) {
            found = Some((id, i));
            break;
        }
    }
    let Some((campaign_id, shard_index)) = found else {
        let drained = state.drained();
        if let Some(w) = state.workers.get_mut(&conn) {
            w.nowork += 1;
        }
        return Frame::NoWork {
            retry_ms: shared.cfg.retry_ms,
            drained,
        };
    };
    state.next_lease += 1;
    let lease_id = state.next_lease;
    if let Some(w) = state.workers.get_mut(&conn) {
        w.leases += 1;
    }
    let c = state
        .campaigns
        .get_mut(&campaign_id)
        .expect("campaign just found");
    let shard_count = c.slots.len();
    let shard = Shard::new(shard_index, shard_count).expect("index < count");
    let now = Instant::now();
    c.slots[shard_index] = Slot::Leased {
        lease: lease_id,
        worker: worker_name.to_owned(),
        granted: now,
        last_seen: now,
        merged_at_grant: 0,
        straggler: false,
    };
    // A re-leased shard resumes: cases the dead predecessor already
    // streamed (or a pre-crash incarnation merged) are handed over as
    // `done` so they are never re-run.
    let done = journal::settled(&c.entries, c.meta.cases, shard);
    if let Slot::Leased {
        merged_at_grant, ..
    } = &mut c.slots[shard_index]
    {
        *merged_at_grant = done.len();
    }
    let frame = Frame::Lease {
        lease: lease_id,
        campaign: campaign_id,
        name: c.meta.name.clone(),
        shard,
        cases: c.meta.cases,
        fingerprint: c.meta.fingerprint,
        limit: c.limit,
        checkpoint: c.checkpoint,
        early_abort: c.early_abort,
        done,
    };
    state.leases.insert(
        lease_id,
        LeaseRef {
            campaign: campaign_id,
            shard_index,
            conn,
        },
    );
    drop(state);
    shared.metrics.shards_leased.inc();
    shared.event("lease", |e| {
        e.with_field("campaign", campaign_id)
            .with_field("shard", shard_index)
            .with_field("lease", lease_id)
            .with_field("worker", worker_name)
    });
    frame
}

/// Folds one streamed record into its campaign. Every reject is counted
/// and logged; none is fatal to the connection.
fn merge_record(shared: &Shared, conn: u64, lease_id: u64, line: &str) {
    let mut state = shared.lock();
    let Some(lref) = state.leases.get(&lease_id) else {
        // Stale lease: the shard was reclaimed (timeout) or finished.
        // The replacement worker re-reports anything this record carried.
        shared.metrics.records_rejected.inc();
        return;
    };
    if lref.conn != conn {
        shared.metrics.records_rejected.inc();
        return;
    }
    let (campaign_id, shard_index) = (lref.campaign, lref.shard_index);
    let Some(c) = state.campaigns.get_mut(&campaign_id) else {
        shared.metrics.records_rejected.inc();
        return;
    };
    let shard_count = c.slots.len();
    if let Some(Slot::Leased { last_seen, .. }) = c.slots.get_mut(shard_index) {
        *last_seen = Instant::now();
    }
    let Some((index, entry)) = journal::parse_line(line) else {
        shared.metrics.records_rejected.inc();
        shared.event("record_rejected", |e| {
            e.with_field("lease", lease_id).with_field("why", "syntax")
        });
        return;
    };
    let shard = Shard::new(shard_index, shard_count).expect("slot index < count");
    if index >= c.meta.cases || !shard.owns(index) {
        shared.metrics.records_rejected.inc();
        shared.event("record_rejected", |e| {
            e.with_field("lease", lease_id)
                .with_field("case", index)
                .with_field("why", "out of shard")
        });
        return;
    }
    let newly_seen = !c.entries.contains_key(&index);
    let before = c.entries.get(&index).cloned();
    journal::apply_entry(&mut c.entries, index, entry);
    if c.entries.get(&index) != before.as_ref() {
        // Only state-changing records reach the disk journal, so the file
        // replays to exactly the in-memory merge.
        if let Err(e) = c.journal.append_line(line) {
            eprintln!("serve: journal append failed: {e}");
        }
        if newly_seen {
            c.note_merge(Instant::now());
            shared.metrics.cases_merged.inc();
        }
    }
}

/// Marks a shard finished if (and only if) every one of its cases has
/// settled; otherwise the shard goes back to the pool.
fn finish_shard(shared: &Shared, conn: u64, lease_id: u64) {
    let mut state = shared.lock();
    let Some(lref) = state.leases.get(&lease_id) else {
        return; // stale shard_done after a timeout reshard
    };
    if lref.conn != conn {
        return;
    }
    let (campaign_id, shard_index) = (lref.campaign, lref.shard_index);
    let complete = {
        let Some(c) = state.campaigns.get(&campaign_id) else {
            return;
        };
        let shard = Shard::new(shard_index, c.slots.len()).expect("slot index < count");
        let all_settled = shard
            .case_indices(c.meta.cases)
            .all(|i| c.entries.contains_key(&i));
        all_settled
    };
    if !complete {
        // The worker claimed completion but cases are missing (a lost
        // record frame or a buggy worker): treat as an abort.
        release_lease(shared, &mut state, lease_id, "incomplete shard_done", false);
        return;
    }
    state.leases.remove(&lease_id);
    if let Some(w) = state.workers.get_mut(&conn) {
        w.leases = w.leases.saturating_sub(1);
    }
    let campaign_done = {
        let c = state
            .campaigns
            .get_mut(&campaign_id)
            .expect("checked above");
        c.slots[shard_index] = Slot::Done;
        let done = c.slots.iter().all(|s| matches!(s, Slot::Done));
        c.completed = done;
        done
    };
    shared.metrics.shards_completed.inc();
    shared.event("shard_done", |e| {
        e.with_field("campaign", campaign_id)
            .with_field("shard", shard_index)
            .with_field("lease", lease_id)
    });
    if campaign_done {
        shared.metrics.campaigns_completed.inc();
        shared.event("campaign_done", |e| e.with_field("campaign", campaign_id));
        if shared.cfg.until_drained && state.drained() {
            shared.shutdown.store(true, Ordering::SeqCst);
        }
    }
}

fn handle_conn(shared: &Shared, stream: TcpStream, peer: SocketAddr) {
    stream.set_nodelay(true).ok();
    // Deadlines on every socket: a hung or half-open peer costs one
    // blocked read until the deadline fires, never a pinned thread.
    stream.set_read_timeout(shared.cfg.io_timeout).ok();
    stream.set_write_timeout(shared.cfg.io_timeout).ok();
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let sever_handle = stream.try_clone().ok();
    shared.active_conns.fetch_add(1, Ordering::SeqCst);
    let conn = {
        let mut state = shared.lock();
        state.next_conn += 1;
        let id = state.next_conn;
        if let Some(h) = sever_handle {
            state.conns.insert(id, h);
        }
        id
    };
    let mut writer = stream;
    let mut registered = false;

    let send = |writer: &mut TcpStream, frame: &Frame| -> bool {
        match proto::write_frame(writer, frame) {
            Ok(()) => {
                shared.metrics.frames_tx.inc();
                true
            }
            Err(_) => false,
        }
    };

    loop {
        let frame = match proto::read_frame(&mut reader) {
            Ok(f) => {
                shared.metrics.frames_rx.inc();
                if registered {
                    // Any frame is proof of life for the worker's health
                    // line in `top` (lease liveness is tracked separately,
                    // per shard).
                    if let Some(w) = shared.lock().workers.get_mut(&conn) {
                        w.last_seen = Instant::now();
                    }
                }
                f
            }
            Err(ProtoError::Io(_)) => break, // EOF or reset: clean up below
            Err(e) => {
                // Structural garbage (bad length prefix, malformed known
                // frame): tell the peer once and drop the connection —
                // framing can no longer be trusted.
                shared.event("proto_error", |ev| {
                    ev.with_field("peer", peer).with_field("error", &e)
                });
                send(
                    &mut writer,
                    &Frame::Error {
                        reason: e.to_string(),
                    },
                );
                break;
            }
        };
        match frame {
            Frame::Hello { worker, protocol } => {
                if protocol != PROTOCOL_VERSION {
                    send(
                        &mut writer,
                        &Frame::Error {
                            reason: format!(
                                "protocol {protocol} unsupported (coordinator speaks \
                                 {PROTOCOL_VERSION})"
                            ),
                        },
                    );
                    break;
                }
                let mut state = shared.lock();
                let now = Instant::now();
                state.workers.insert(
                    conn,
                    WorkerInfo {
                        name: worker,
                        leases: 0,
                        last_seen: now,
                        nowork: 0,
                    },
                );
                drop(state);
                if !registered {
                    registered = true;
                    shared.metrics.workers_connected.inc();
                    shared.metrics.workers_total.inc();
                }
                if !send(
                    &mut writer,
                    &Frame::Welcome {
                        server: "amsfi-serve".to_owned(),
                        protocol: PROTOCOL_VERSION,
                        epoch: shared.epoch,
                    },
                ) {
                    break;
                }
            }
            Frame::Submit {
                campaign,
                shards,
                limit,
                checkpoint,
                early_abort,
            } => {
                let reply = match submit(shared, &campaign, shards, limit, checkpoint, early_abort)
                {
                    Ok(info) => Frame::Submitted {
                        id: info.id,
                        name: info.name,
                        cases: info.cases,
                        shards: info.shards,
                        fingerprint: info.fingerprint,
                    },
                    Err(reason) => Frame::Error { reason },
                };
                if !send(&mut writer, &reply) {
                    break;
                }
            }
            Frame::LeaseRequest => {
                let name = shared
                    .lock()
                    .workers
                    .get(&conn)
                    .map_or_else(|| format!("conn-{conn}"), |w| w.name.clone());
                let reply = grant_lease(shared, conn, &name);
                if !send(&mut writer, &reply) {
                    break;
                }
            }
            Frame::Record { lease, line } => merge_record(shared, conn, lease, &line),
            Frame::Heartbeat { lease, metrics } => {
                let mut state = shared.lock();
                if let Some(lref) = state.leases.get(&lease) {
                    if lref.conn == conn {
                        let (campaign, shard_index) = (lref.campaign, lref.shard_index);
                        if let Some(c) = state.campaigns.get_mut(&campaign) {
                            if let Some(Slot::Leased { last_seen, .. }) =
                                c.slots.get_mut(shard_index)
                            {
                                *last_seen = Instant::now();
                            }
                        }
                    }
                }
                drop(state);
                store_worker_metrics(shared, conn, metrics);
            }
            Frame::ShardDone { lease, metrics } => {
                store_worker_metrics(shared, conn, metrics);
                finish_shard(shared, conn, lease);
                shared.wake_if_stopped();
            }
            Frame::TopRequest => {
                let reply = Frame::Top {
                    view: fleet_view(shared),
                };
                if !send(&mut writer, &reply) {
                    break;
                }
            }
            Frame::ShardAbort { lease, reason } => {
                release_lease(shared, &mut shared.lock(), lease, &reason, false);
                shared.wake_if_stopped();
            }
            Frame::StatusRequest => {
                let reply = status_frame(shared);
                if !send(&mut writer, &reply) {
                    break;
                }
            }
            Frame::Drain => {
                begin_drain(shared);
                // Reply with the status snapshot at the moment draining
                // began, so `amsfi drain` can report what is in flight.
                let reply = status_frame(shared);
                if !send(&mut writer, &reply) {
                    break;
                }
            }
            Frame::Bye => break,
            // Replies we never expect as requests, and frames from a newer
            // protocol revision: ignore, per the forward-compat contract.
            Frame::Welcome { .. }
            | Frame::Submitted { .. }
            | Frame::Lease { .. }
            | Frame::NoWork { .. }
            | Frame::Status { .. }
            | Frame::Top { .. }
            | Frame::Error { .. }
            | Frame::Unknown { .. } => {}
        }
    }

    // Connection gone: every lease it held goes straight back to the pool
    // (no need to wait for the reaper).
    let mut state = shared.lock();
    let held: Vec<u64> = state
        .leases
        .iter()
        .filter(|(_, lref)| lref.conn == conn)
        .map(|(&id, _)| id)
        .collect();
    for lease_id in held {
        release_lease(shared, &mut state, lease_id, "connection lost", false);
    }
    state.workers.remove(&conn);
    state.conns.remove(&conn);
    drop(state);
    shared.wake_if_stopped();
    if registered {
        shared.metrics.workers_connected.dec();
    }
    shared.active_conns.fetch_sub(1, Ordering::SeqCst);
}
