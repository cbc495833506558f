//! The work-stealing campaign executor.
//!
//! One run is one driver: the execution path is resolved once into a plan
//! (scalar, checkpoint fork or bit-parallel batch), the golden run follows,
//! and workers then pull *units* of pending cases — one case, or one batch
//! group — from a shared atomic cursor (work stealing by construction: a
//! worker stuck on a slow mixed-signal simulation simply stops claiming
//! work while the others drain the queue). Each case gets a bounded retry
//! budget with exponential backoff, an optional wall-clock timeout, and
//! panic isolation — one diverging solver no longer kills a million-case
//! campaign. Every route to a verdict ends in one booking step that counts
//! the case and streams it to the results [`journal`], so a
//! run can be killed at any instant and resumed.

use crate::journal::{
    self, Journal, JournalEntry, JournalError, JournalMeta, QuarantinedCase, SkippedCase,
};
use crate::shard::Shard;
use crate::stats::{EngineStats, Stage, StatsSnapshot};
use crate::BoxError;
use amsfi_core::{
    classify, injection_stops, CampaignResult, CaseOutcome, CaseResult, ClassifySpec, FaultCase,
    Golden, MismatchClassifier, OnlineClassifier, SimFailure,
};
use amsfi_digital::{BatchReport, LaneOutcome, LaneWatch};
use amsfi_telemetry::{Event, GuardKind, KernelMetrics, Telemetry};
use amsfi_waves::{
    CancelToken, Checkpoint, DigitalSlot, Follow, ForkableSim, MismatchToggles, SimBudget,
    SimObserver, SimTape, Time, Trace, LANES,
};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The most cases one batch group holds: eight words of mutant lanes. The
/// word kernel seats a group's cases on 63 lanes as earlier ones seal and
/// spills the rest to further machines, so a group costs a machine per 63
/// cases that do not seal early, not per 63 cases.
const BATCH_UNIT: usize = 8 * (LANES - 1);

/// How many batch groups each of several workers gets to claim, once the
/// campaign is big enough: work stealing evens the workers' finishing
/// times out only to within one group, so groups shrink (in whole words)
/// as workers are added rather than leave a few workers with one long
/// group each.
const GROUPS_PER_WORKER: usize = 4;

/// What the engine does when a case exhausts its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Stop claiming new work and return the first error. Cases already
    /// journaled are kept, so a fail-fast run is still resumable.
    FailFast,
    /// Record the case as skipped (journal + report) and keep going. This
    /// is the default: large campaigns should survive individual diverging
    /// simulations.
    #[default]
    SkipAndRecord,
}

/// Tuning knobs for one engine run. All fields have workable defaults;
/// use the `with_*` builders to override.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads. `0` (the default) means one per available core.
    pub workers: usize,
    /// Wall-clock budget per attempt. `None` disables the timeout.
    pub timeout: Option<Duration>,
    /// Extra attempts after the first failure.
    pub retries: u32,
    /// Sleep before retry `n` is `backoff * 2^(n-1)`.
    pub backoff: Duration,
    /// See [`ErrorPolicy`].
    pub error_policy: ErrorPolicy,
    /// The slice of the case list this process executes.
    pub shard: Shard,
    /// Where to stream results; `None` keeps them in memory only.
    pub journal: Option<PathBuf>,
    /// Continue an existing journal instead of refusing to overwrite it.
    pub resume: bool,
    /// Emit a progress line to stderr this often; `None` disables.
    pub progress: Option<Duration>,
    /// Run cases by forking from golden-prefix checkpoints instead of
    /// re-simulating the fault-free prefix per case. Requires the campaign
    /// to carry a [`ForkSpec`]; campaigns without one fall back to their
    /// from-scratch runner.
    pub checkpoint: bool,
    /// Per-attempt simulation step cap (see [`SimBudget::with_max_steps`]).
    /// `None` leaves the step count unguarded.
    pub max_steps: Option<u64>,
    /// Adaptive-timestep floor: a kernel proposing a step strictly below
    /// this trips a timestep-collapse guard. `None` leaves it unguarded.
    pub min_dt: Option<Time>,
    /// Quarantine poison cases: a case that exhausts its retry budget is
    /// journaled as quarantined and excluded from every future `--resume`
    /// of that journal, instead of being re-attempted on each resume.
    pub quarantine: bool,
    /// Telemetry sink: structured JSONL events plus kernel metrics. The
    /// default [`Telemetry::disabled`] handle is a near-zero-cost no-op.
    pub telemetry: Telemetry,
    /// Classify each case *while* it simulates and cooperatively abort it
    /// the moment its verdict is sealed (see
    /// [`amsfi_core::OnlineClassifier`]). Off by default: the default path
    /// stays post-hoc and bit-for-bit unchanged.
    pub early_abort: bool,
    /// Called with every finished case's journal v2 record line (done,
    /// skipped or quarantined), as it is written. This is how a remote
    /// worker streams results to the distributed coordinator while the
    /// shard is still running; it fires whether or not a local
    /// [`EngineConfig::journal`] is configured.
    pub record_sink: Option<RecordSink>,
    /// Case indices to treat as already completed and never claim, on top
    /// of whatever a resumed journal contains. A re-leased shard carries
    /// the indices its dead predecessor already streamed to the
    /// coordinator, so a partially-completed shard resumes instead of
    /// re-running (and double-reporting) finished cases.
    pub completed: Vec<usize>,
    /// Run cases bit-parallel: workers claim *groups* of up to eight times
    /// [`amsfi_waves::LANES`]` - 1` cases and simulate them as the mutant
    /// lanes of word machines — one event wheel evaluating all lanes as
    /// plane arithmetic, the last lane of the word carrying the golden
    /// machine, a lane whose case seals taking the next (see
    /// [`BatchSpec`]). Per-lane verdicts stay byte-identical
    /// to scalar runs; a lane that fails in isolation falls back to the
    /// scalar path for that case alone. Campaigns without a
    /// [`Campaign::batch`] spec fall back to the scalar path entirely, and
    /// with one, [`EngineConfig::checkpoint`] is moot: every group forks
    /// from the golden run's snapshot at its first instant either way.
    pub batch: bool,
}

type RecordFn = dyn Fn(usize, &str) + Send + Sync;

/// A callback receiving `(case index, journal v2 record line)` for every
/// finished case; see [`EngineConfig::record_sink`].
#[derive(Clone)]
pub struct RecordSink(Arc<RecordFn>);

impl RecordSink {
    /// Wraps a callback.
    pub fn new(f: impl Fn(usize, &str) + Send + Sync + 'static) -> Self {
        RecordSink(Arc::new(f))
    }

    /// Delivers one record line.
    pub fn deliver(&self, index: usize, line: &str) {
        (self.0)(index, line);
    }
}

impl fmt::Debug for RecordSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RecordSink(..)")
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            timeout: None,
            retries: 0,
            backoff: Duration::from_millis(50),
            error_policy: ErrorPolicy::default(),
            shard: Shard::FULL,
            journal: None,
            resume: false,
            progress: None,
            checkpoint: false,
            max_steps: None,
            min_dt: None,
            quarantine: false,
            telemetry: Telemetry::disabled(),
            early_abort: false,
            record_sink: None,
            completed: Vec::new(),
            batch: false,
        }
    }
}

impl EngineConfig {
    /// Sets the worker-thread count (`0` = one per core).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-attempt wall-clock timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the retry budget (extra attempts after the first failure).
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the base backoff between attempts.
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Sets the [`ErrorPolicy`].
    #[must_use]
    pub fn with_error_policy(mut self, policy: ErrorPolicy) -> Self {
        self.error_policy = policy;
        self
    }

    /// Restricts this run to one [`Shard`] of the case list.
    #[must_use]
    pub fn with_shard(mut self, shard: Shard) -> Self {
        self.shard = shard;
        self
    }

    /// Streams results to (and resumes from) a journal file.
    #[must_use]
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Allows continuing an existing journal.
    #[must_use]
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Enables periodic progress lines on stderr.
    #[must_use]
    pub fn with_progress(mut self, interval: Duration) -> Self {
        self.progress = Some(interval);
        self
    }

    /// Enables golden-prefix checkpoint & fork execution.
    #[must_use]
    pub fn with_checkpoint(mut self, checkpoint: bool) -> Self {
        self.checkpoint = checkpoint;
        self
    }

    /// Caps the simulation steps each attempt may take.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Floors the adaptive timestep for every attempt.
    #[must_use]
    pub fn with_min_dt(mut self, min_dt: Time) -> Self {
        self.min_dt = Some(min_dt);
        self
    }

    /// Enables poison-case quarantine under [`ErrorPolicy::SkipAndRecord`].
    #[must_use]
    pub fn with_quarantine(mut self, quarantine: bool) -> Self {
        self.quarantine = quarantine;
        self
    }

    /// Routes structured events and kernel metrics through `telemetry`.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables early-verdict streaming classification (see
    /// [`EngineConfig::early_abort`]).
    #[must_use]
    pub fn with_early_abort(mut self, early_abort: bool) -> Self {
        self.early_abort = early_abort;
        self
    }

    /// Streams every finished case's journal record line to `sink` (see
    /// [`EngineConfig::record_sink`]).
    #[must_use]
    pub fn with_record_sink(mut self, sink: RecordSink) -> Self {
        self.record_sink = Some(sink);
        self
    }

    /// Marks `indices` as already completed elsewhere (see
    /// [`EngineConfig::completed`]).
    #[must_use]
    pub fn with_completed(mut self, indices: Vec<usize>) -> Self {
        self.completed = indices;
        self
    }

    /// Enables bit-parallel group execution (see [`EngineConfig::batch`]).
    #[must_use]
    pub fn with_batch(mut self, batch: bool) -> Self {
        self.batch = batch;
        self
    }

    /// No-op: `--batch` *is* the word-parallel kernel. Kept only because
    /// the frozen `benchmark/src/adapter/campaigns.rs` still calls
    /// `.with_batch(true).with_word(true)`; the next PR that may edit
    /// `benchmark/` drops that call and this shim together.
    #[doc(hidden)]
    #[must_use]
    pub fn with_word(self, _: bool) -> Self {
        self
    }

    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
    }
}

/// Per-attempt context handed to a campaign's run closure.
///
/// Tells the closure which case to inject (`None` = golden run) and lets it
/// attribute wall-clock time to pipeline stages via [`CaseCtx::stage`]. The
/// classify stage is timed by the engine itself.
#[derive(Debug)]
pub struct CaseCtx {
    index: Option<usize>,
    attempt: u32,
    stats: Option<Arc<EngineStats>>,
    budget: SimBudget,
    telemetry: Telemetry,
    timer: Mutex<(Instant, Option<Stage>)>,
    observer: Mutex<SimObserver>,
    /// Where the observer's classifier leaves its sealed verdict.
    sealed: Option<Arc<OnceLock<CaseOutcome>>>,
    /// Set by [`Campaign::forked`]'s fork closure when the attempt's trace
    /// came from following a tape.
    followed: AtomicBool,
}

impl CaseCtx {
    fn attached(
        index: Option<usize>,
        attempt: u32,
        stats: Arc<EngineStats>,
        budget: SimBudget,
        telemetry: Telemetry,
        early: Option<OnlineClassifier>,
    ) -> Self {
        let (observer, sealed) = early.map(watch).unzip();
        CaseCtx {
            index,
            attempt,
            stats: Some(stats),
            budget,
            telemetry,
            timer: Mutex::new((Instant::now(), None)),
            observer: Mutex::new(observer.unwrap_or_default()),
            sealed,
            followed: AtomicBool::new(false),
        }
    }

    /// A context with no stats sink, an unlimited budget and no telemetry,
    /// for calling a campaign's runner or [`BatchSpec`] outside an engine
    /// run (`batch_equivalence.rs` drives a golden run and a word group
    /// forked from it with one).
    pub fn detached(index: Option<usize>) -> Self {
        CaseCtx {
            index,
            attempt: 0,
            stats: None,
            budget: SimBudget::unlimited(),
            telemetry: Telemetry::disabled(),
            timer: Mutex::new((Instant::now(), None)),
            observer: Mutex::default(),
            sealed: None,
            followed: AtomicBool::new(false),
        }
    }

    /// Takes the attempt's streaming trace observer under
    /// [`EngineConfig::with_early_abort`] (an empty one otherwise, and on
    /// every call after the first). Runners hand it to their kernel, as
    /// [`Campaign::forked`] does; once the case's online classifier seals,
    /// the kernel retires the run, and the runner passes that error on.
    pub fn take_observer(&self) -> SimObserver {
        std::mem::take(&mut self.observer.lock().expect("observer slot poisoned"))
    }

    /// Which case to inject; `None` asks for the golden (fault-free) run.
    pub fn index(&self) -> Option<usize> {
        self.index
    }

    /// Zero-based attempt number (`> 0` on retries).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The attempt's simulation budget (step cap, timestep floor and
    /// deadline token from the engine config). Runners install a clone on
    /// their kernel — [`Campaign::forked`] does this automatically via
    /// [`ForkableSim::install_budget`] — so guard trips surface as
    /// structured [`SimFailure`] verdicts instead of hung attempts.
    pub fn budget(&self) -> &SimBudget {
        &self.budget
    }

    /// Marks the start of `stage`, closing (and crediting) the previous one.
    ///
    /// Calling this is optional — a runner that never calls it simply
    /// contributes nothing to the stage breakdown.
    pub fn stage(&self, stage: Stage) {
        let mut timer = self.timer.lock().expect("stage timer poisoned");
        let now = Instant::now();
        if let (Some(stats), Some(open)) = (&self.stats, timer.1) {
            stats.record_stage(open, now - timer.0);
            self.emit_stage(open, now - timer.0);
        }
        *timer = (now, Some(stage));
    }

    fn finish(&self) {
        let mut timer = self.timer.lock().expect("stage timer poisoned");
        if let (Some(stats), Some(open)) = (&self.stats, timer.1.take()) {
            stats.record_stage(open, timer.0.elapsed());
            self.emit_stage(open, timer.0.elapsed());
        }
    }

    fn emit_stage(&self, stage: Stage, elapsed: Duration) {
        self.telemetry.emit_with(|| {
            let scope = if self.index.is_some() {
                "case"
            } else {
                "golden"
            };
            let mut event = Event::new("span", format!("{scope}/{stage}"))
                .with_dur_us(elapsed.as_micros() as u64)
                .with_field("attempt", self.attempt);
            if let Some(index) = self.index {
                event = event.with_case(index);
            }
            event
        });
    }
}

/// Shared simulation callback: produces the trace for `ctx.index()`
/// (golden when `None`).
///
/// `Arc` + `'static` because a timed-out attempt keeps running on its
/// (abandoned) thread and must not borrow from the engine's stack.
pub type CaseRunner = Arc<dyn Fn(&CaseCtx) -> Result<Trace, BoxError> + Send + Sync>;

/// A type-erased simulator checkpoint: a rung of the golden run's ladder.
/// Snapshots are `Send` (they move between threads) but not `Sync` —
/// simulator component trait objects are `Send`-only — so the engine
/// deep-clones them under a lock instead of sharing references.
pub trait AnySnapshot: Send {
    /// Deep-clones the snapshot.
    fn clone_snapshot(&self) -> Snapshot;
    /// Downcast access for the campaign's fork closure, which consumes the
    /// copy the engine made for it.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any + Clone + Send> AnySnapshot for T {
    fn clone_snapshot(&self) -> Snapshot {
        Box::new(self.clone())
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// An owned, type-erased checkpoint (see [`AnySnapshot`]).
pub type Snapshot = Box<dyn AnySnapshot>;

/// Emits `(time, snapshot)` pairs during the snapshotting golden run.
pub type SnapshotSink<'a> = dyn FnMut(Time, Snapshot) + 'a;

/// How a campaign supports golden-prefix checkpoint & fork execution
/// (enabled per run with [`EngineConfig::with_checkpoint`]; batch groups
/// fork from it too).
///
/// Most campaigns should not build this by hand: [`Campaign::forked`]
/// derives both the from-scratch runner and this spec from one pair of
/// build/inject closures, which is what guarantees forked and from-scratch
/// traces are byte-identical (they share the `advance_to` stop sequence,
/// so adaptive-step solvers take identical step grids).
#[derive(Clone)]
pub struct ForkSpec {
    /// The distinct injection instants every run stops at, ascending (see
    /// [`amsfi_core::injection_stops`]).
    pub stops: Vec<Time>,
    /// The simulation horizon every run advances to.
    pub t_end: Time,
    /// Runs the golden simulation through every stop, handing the sink a
    /// snapshot at each stop in the ascending `keep`; returns its trace.
    #[allow(clippy::type_complexity)]
    pub golden: Arc<
        dyn for<'a> Fn(&CaseCtx, &[Time], &mut SnapshotSink<'a>) -> Result<Trace, BoxError>
            + Send
            + Sync,
    >,
    /// Resumes one faulty run from its own copy of the snapshot taken at
    /// the case's injection instant and returns its full-length trace. The
    /// [`TapeSlot`] is the calling worker's.
    #[allow(clippy::type_complexity)]
    pub fork: Arc<dyn Fn(&CaseCtx, Snapshot, &TapeSlot) -> Result<Trace, BoxError> + Send + Sync>,
}

/// What one engine worker keeps for a [`ForkSpec`] between the cases it
/// forks: the tape of the last run that led (see
/// [`ForkableSim::lead_to`]) with the snapshot instant it led from, for the
/// worker's later forks of that snapshot to follow. One tape, not one per
/// stop: a worker's claims move through the stops roughly in order, and a
/// case that finds the wrong tape leads again.
#[derive(Default)]
pub struct TapeSlot(Mutex<Option<(Time, SimTape)>>);

impl fmt::Debug for TapeSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TapeSlot(..)")
    }
}

impl TapeSlot {
    /// The tape led from the snapshot at `stop`. A tape from any other stop
    /// is dropped on the way: the run asking is about to record its own.
    fn tape_from(&self, stop: Time) -> Option<SimTape> {
        let mut slot = self.0.lock().expect("tape slot poisoned");
        match &*slot {
            Some((at, tape)) if *at == stop => Some(Arc::clone(tape)),
            _ => {
                *slot = None;
                None
            }
        }
    }

    fn publish(&self, stop: Time, tape: SimTape) {
        *self.0.lock().expect("tape slot poisoned") = Some((stop, tape));
    }
}

impl fmt::Debug for ForkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForkSpec")
            .field("stops", &self.stops.len())
            .field("t_end", &self.t_end)
            .finish_non_exhaustive()
    }
}

/// How a campaign supports bit-parallel group execution (enabled per run
/// with [`EngineConfig::with_batch`], on a campaign with a [`ForkSpec`]).
///
/// `run(ctx, group, budget, watch, rung)` simulates all cases in `group` (indices
/// into [`Campaign::cases`] in ascending injection order, at most eight
/// words' worth: each machine has 63 mutant lanes beside the in-word golden
/// lane and seats a case on a lane an earlier case sealed on) lock-step
/// against the golden machine and returns the kernel's own
/// [`BatchReport`]: the golden trace with one [`LaneOutcome`] per index, in
/// order, forking from `rung`: its own copy of the golden run's snapshot
/// at the group's first injection instant. Every lane runs under `budget`,
/// and the group under `watch` (`true` once a lane's verdict has sealed)
/// when given. The engine checks the
/// golden-lane trace against the campaign's golden run once per group —
/// lanes' mismatch toggles are taken against the one, verdicts are the
/// other's — and degrades the group to the scalar path when they differ.
/// Campaigns should not build this by hand:
/// [`Campaign::forked_batch`](crate::campaigns) derives it from the same
/// build/inject closures as the scalar paths, which is what guarantees
/// batch and scalar traces are byte-identical.
#[derive(Clone)]
pub struct BatchSpec {
    /// Runs one case group lock-step; see [`BatchSpec`].
    #[allow(clippy::type_complexity)]
    pub run: Arc<
        dyn Fn(
                &CaseCtx,
                &[usize],
                SimBudget,
                Option<&mut LaneWatch<'_>>,
                Snapshot,
            ) -> Result<BatchReport, BoxError>
            + Send
            + Sync,
    >,
}

impl fmt::Debug for BatchSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BatchSpec(..)")
    }
}

/// A runnable campaign: the fault list, how to classify, and how to
/// produce a trace for one case.
#[derive(Clone)]
pub struct Campaign {
    /// Name, recorded in the journal header.
    pub name: String,
    /// How traces are compared and verdicts drawn.
    pub spec: ClassifySpec,
    /// The full (unsharded) case list.
    pub cases: Vec<FaultCase>,
    /// Produces the trace for one case; see [`CaseRunner`].
    pub runner: CaseRunner,
    /// Checkpoint & fork support; `None` means `--checkpoint` falls back
    /// to the from-scratch runner, and `--batch` to the scalar one.
    pub fork: Option<ForkSpec>,
    /// Bit-parallel group support; `None` means `--batch` falls back to
    /// the scalar runner.
    pub batch: Option<BatchSpec>,
}

impl fmt::Debug for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("name", &self.name)
            .field("cases", &self.cases.len())
            .finish_non_exhaustive()
    }
}

impl Campaign {
    /// The journal-header identity of this campaign.
    pub fn meta(&self) -> JournalMeta {
        JournalMeta::of(&self.name, &self.cases)
    }

    /// Builds a campaign whose from-scratch runner and [`ForkSpec`] are
    /// derived from one pair of closures, so `--checkpoint` runs are
    /// byte-identical to plain runs by construction.
    ///
    /// * `build` constructs the fault-free simulator with monitoring
    ///   already attached.
    /// * `inject(sim, i)` arms fault case `i` on a simulator positioned
    ///   exactly at that case's injection instant.
    ///
    /// Both execution paths advance the simulator through every distinct
    /// injection stop up to the case's own injection time (the golden run
    /// through all of them), then to `t_end`. Sharing the stop sequence is
    /// what keeps adaptive-step analog/mixed kernels on identical step
    /// grids in both paths; see [`amsfi_waves::ForkableSim`].
    pub fn forked<S, B, I>(
        name: impl Into<String>,
        spec: ClassifySpec,
        cases: Vec<FaultCase>,
        t_end: Time,
        build: B,
        inject: I,
    ) -> Campaign
    where
        S: ForkableSim + 'static,
        B: Fn(&CaseCtx) -> Result<S, BoxError> + Send + Sync + 'static,
        I: Fn(&mut S, usize) -> Result<(), BoxError> + Send + Sync + 'static,
    {
        fn sim_err<E: std::error::Error + Send + Sync + 'static>(e: E) -> BoxError {
            Box::new(e)
        }
        let stops = injection_stops(&cases, t_end);
        let case_stops: Arc<Vec<Time>> =
            Arc::new(cases.iter().map(|c| c.injected_at.min(t_end)).collect());
        let build = Arc::new(build);
        let inject = Arc::new(inject);
        let stops_shared = Arc::new(stops.clone());

        let runner: CaseRunner = {
            let (build, inject) = (Arc::clone(&build), Arc::clone(&inject));
            let (stops, case_stops) = (Arc::clone(&stops_shared), Arc::clone(&case_stops));
            Arc::new(move |ctx: &CaseCtx| {
                let mut sim = build(ctx)?;
                sim.install_budget(ctx.budget().clone());
                sim.install_observer(ctx.take_observer());
                ctx.stage(Stage::Simulate);
                match ctx.index() {
                    None => {
                        for &stop in stops.iter() {
                            sim.advance_to(stop).map_err(sim_err)?;
                        }
                    }
                    Some(i) => {
                        let at = case_stops[i];
                        for &stop in stops.iter().take_while(|&&s| s <= at) {
                            sim.advance_to(stop).map_err(sim_err)?;
                        }
                        inject(&mut sim, i)?;
                    }
                }
                sim.advance_to(t_end).map_err(sim_err)?;
                Ok(sim.snapshot_trace())
            })
        };

        let golden = {
            let build = Arc::clone(&build);
            let stops = Arc::clone(&stops_shared);
            Arc::new(
                move |ctx: &CaseCtx,
                      keep: &[Time],
                      sink: &mut SnapshotSink<'_>|
                      -> Result<Trace, BoxError> {
                    let mut sim = build(ctx)?;
                    sim.install_budget(ctx.budget().clone());
                    ctx.stage(Stage::Simulate);
                    for &stop in stops.iter() {
                        sim.advance_to(stop).map_err(sim_err)?;
                        if keep.binary_search(&stop).is_ok() {
                            sink(stop, Box::new(Checkpoint::capture(&sim)));
                        }
                    }
                    sim.advance_to(t_end).map_err(sim_err)?;
                    Ok(sim.snapshot_trace())
                },
            )
        };

        // A fork leads or follows where its kernel can prove it may (the
        // from-scratch `runner` above never does: it stays the oracle). A
        // tape reaches the worker's slot only from a run that went all the
        // way: an attempt that errs, is cancelled or times out returns
        // before `publish`.
        let fork = {
            let inject = Arc::clone(&inject);
            Arc::new(
                move |ctx: &CaseCtx, snap: Snapshot, tapes: &TapeSlot| -> Result<Trace, BoxError> {
                    let cp = snap.into_any().downcast::<Checkpoint<S>>().map_err(|_| {
                        Box::new(ForkPathError::Restore(
                            "snapshot does not hold this campaign's simulator type".to_owned(),
                        )) as BoxError
                    })?;
                    let i = ctx
                        .index()
                        .ok_or("the golden run is never forked from a snapshot")?;
                    ctx.stage(Stage::Simulate);
                    let stop = cp.at();
                    let mut sim = cp.into_sim();
                    sim.install_budget(ctx.budget().clone());
                    sim.install_observer(ctx.take_observer());
                    inject(&mut sim, i)?;
                    let followed = match tapes.tape_from(stop) {
                        Some(tape) => sim.follow(&tape).map_err(sim_err)?,
                        None => Follow::Refused,
                    };
                    match followed {
                        Follow::Done => ctx.followed.store(true, Ordering::Relaxed),
                        Follow::LeftGrid => return Err(Box::new(ForkPathError::LeftGrid)),
                        Follow::Refused => {
                            if let Some(tape) = sim.lead_to(t_end).map_err(sim_err)? {
                                tapes.publish(stop, tape);
                            }
                        }
                    }
                    Ok(sim.snapshot_trace())
                },
            )
        };

        Campaign {
            name: name.into(),
            spec,
            cases,
            runner,
            fork: Some(ForkSpec {
                stops,
                t_end,
                golden,
                fork,
            }),
            batch: None,
        }
    }
}

/// A forked run could not finish on the fork path. Both ways are
/// deterministic — the same snapshot and the same tape would fail the same
/// way again — so the engine does not retry: the case degrades gracefully
/// to its from-scratch runner.
#[derive(Debug, Clone)]
pub enum ForkPathError {
    /// The checkpoint snapshot could not be restored for this campaign
    /// (wrong simulator type or structural drift).
    Restore(String),
    /// The run followed a tape and left its step grid
    /// ([`Follow::LeftGrid`]).
    LeftGrid,
}

impl ForkPathError {
    /// The `reason` field of the `checkpoint`/`fallback` event.
    fn reason(&self) -> &'static str {
        match self {
            ForkPathError::Restore(_) => "restore",
            ForkPathError::LeftGrid => "left-grid",
        }
    }
}

impl fmt::Display for ForkPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForkPathError::Restore(why) => write!(f, "snapshot restore failed: {why}"),
            ForkPathError::LeftGrid => f.write_str("the run left the grid of the tape it followed"),
        }
    }
}

impl std::error::Error for ForkPathError {}

/// Everything an engine run produces.
#[derive(Debug)]
pub struct EngineReport {
    /// Classified cases (resumed + newly executed), in case order, plus
    /// the golden trace. For a sharded run this covers only the cases
    /// present in the journal/shard.
    pub result: CampaignResult,
    /// Cases abandoned under [`ErrorPolicy::SkipAndRecord`].
    pub skipped: Vec<SkippedCase>,
    /// Poison cases quarantined under [`EngineConfig::with_quarantine`]
    /// (this run's and every prior resumed run's).
    pub quarantined: Vec<QuarantinedCase>,
    /// Final counter snapshot (rates, tallies, stage breakdown).
    pub stats: StatsSnapshot,
    /// How many cases were taken from the journal instead of re-run.
    pub resumed: usize,
    /// The execution path the run resolved its flags and the campaign's
    /// capabilities to: `"scalar"`, `"fork"` or `"batch"`. Cases that did
    /// not finish on it are counted in [`StatsSnapshot::fallbacks`].
    pub path: &'static str,
}

/// Fatal engine errors. Per-case trouble is only fatal under
/// [`ErrorPolicy::FailFast`]; otherwise it lands in
/// [`EngineReport::skipped`].
#[derive(Debug)]
pub enum EngineError {
    /// Journal I/O, syntax or campaign-mismatch failure.
    Journal(JournalError),
    /// The golden (fault-free) run failed; nothing can be classified.
    Golden(String),
    /// A case failed under [`ErrorPolicy::FailFast`].
    Case {
        /// Index of the failing case.
        index: usize,
        /// Its label.
        label: String,
        /// Attempts made (first try + retries).
        attempts: u32,
        /// The last error observed.
        error: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Journal(e) => e.fmt(f),
            EngineError::Golden(e) => write!(f, "golden run failed: {e}"),
            EngineError::Case {
                index,
                label,
                attempts,
                error,
            } => write!(
                f,
                "case {index} ({label}) failed after {attempts} attempt(s): {error}"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JournalError> for EngineError {
    fn from(e: JournalError) -> Self {
        EngineError::Journal(e)
    }
}

/// The `--early-abort` watch of one scalar or forked attempt: shown the
/// trace as it grows, it retires the run once `classifier` seals, leaving
/// the verdict in the slot returned with it.
fn watch(mut classifier: OnlineClassifier) -> (SimObserver, Arc<OnceLock<CaseOutcome>>) {
    let sealed = Arc::new(OnceLock::new());
    let slot = Arc::clone(&sealed);
    let observer = SimObserver::new(move |t, view| {
        classifier.observe(t, view);
        match classifier.sealed() {
            Some(verdict) => {
                slot.get_or_init(|| verdict.clone());
                true
            }
            None => false,
        }
    });
    (observer, sealed)
}

/// How one attempt ended (before retry/policy handling).
enum Attempt {
    /// A full-horizon trace; `followed` when a fork took part of it off its
    /// worker's tape instead of simulating it.
    Ok {
        trace: Trace,
        followed: bool,
    },
    /// The attempt's online classifier sealed the verdict mid-simulation
    /// and its watch retired the run (`--early-abort`): a final,
    /// *classified* outcome — not retried. `steps` is the attempt's
    /// simulation-step tally at retirement, used to estimate the saving.
    Sealed {
        outcome: Box<CaseOutcome>,
        steps: u64,
    },
    Failed(String),
    /// The kernel tripped a [`SimBudget`] guard (or otherwise surfaced a
    /// parseable [`SimFailure`]): a deterministic, *classified* outcome —
    /// not retried, not skipped.
    SimFailed(SimFailure),
    /// The fork path could not finish the case (see [`ForkPathError`]);
    /// non-retryable, the case falls back to its from-scratch runner.
    OffForkPath(ForkPathError),
    TimedOut,
}

impl Attempt {
    /// How a panic-isolated runner call on `ctx` ended. A run that ended
    /// in an error after its watch sealed a verdict was retired by it.
    fn of(out: std::thread::Result<Result<Trace, BoxError>>, ctx: &CaseCtx) -> Attempt {
        let sealed = ctx.sealed.as_ref().and_then(|sealed| sealed.get());
        if let (Ok(Err(_)), Some(sealed)) = (&out, sealed) {
            return Attempt::Sealed {
                outcome: Box::new(sealed.clone()),
                steps: ctx.budget.attempt_steps(),
            };
        }
        match out {
            Ok(Ok(trace)) => Attempt::Ok {
                trace,
                followed: ctx.followed.load(Ordering::Relaxed),
            },
            Ok(Err(e)) => match e.downcast::<ForkPathError>() {
                Ok(off) => Attempt::OffForkPath(*off),
                Err(e) => match SimFailure::from_error(e.as_ref()) {
                    Some(failure) => Attempt::SimFailed(failure),
                    None => Attempt::Failed(e.to_string()),
                },
            },
            Err(payload) => Attempt::Failed(panic_message(payload)),
        }
    }
}

/// The path the cases of one run take, resolved once from the config flags
/// and what the campaign supports. Batch wins over fork: both fork from
/// the golden run's snapshots, a group at its first instant and a case at
/// its own, and a group's scalar fallbacks run from scratch.
#[derive(Clone, Copy)]
enum Plan<'a> {
    /// Every case from scratch through [`Campaign::runner`].
    Scalar,
    /// Every case forked off a golden-prefix snapshot.
    Fork(&'a ForkSpec),
    /// Groups of cases as the lanes of one word machine, forked likewise.
    Batch(&'a BatchSpec, &'a ForkSpec),
}

impl<'a> Plan<'a> {
    fn resolve(config: &EngineConfig, campaign: &'a Campaign) -> Self {
        match (&campaign.batch, &campaign.fork) {
            (Some(b), Some(f)) if config.batch && Self::refuses_batch(campaign).is_none() => {
                Plan::Batch(b, f)
            }
            (_, Some(spec)) if config.checkpoint => Plan::Fork(spec),
            _ => Plan::Scalar,
        }
    }

    /// Why `campaign` cannot run as word groups, if it cannot. Groups fork
    /// from the fork spec's golden run. A lane is booked from where its X01
    /// values differ from golden's at the same instant; a skewed
    /// comparison also reads golden at `t ± skew`.
    fn refuses_batch(campaign: &Campaign) -> Option<&'static str> {
        if campaign.batch.is_none() {
            Some("campaign has no batch spec")
        } else if campaign.fork.is_none() {
            Some("campaign has no fork spec")
        } else if campaign.spec.digital_skew > Time::ZERO {
            Some("digital_skew needs lane traces")
        } else {
            None
        }
    }

    /// The `campaign` event's `path` field and [`EngineReport::path`].
    fn name(self) -> &'static str {
        match self {
            Plan::Scalar => "scalar",
            Plan::Fork(_) => "fork",
            Plan::Batch(..) => "batch",
        }
    }
}

/// The golden run's snapshots by instant, read by every worker; the `Arc`s
/// let the per-case fork runner be `'static` for the timeout machinery.
type Ladder = BTreeMap<Time, Arc<Mutex<Snapshot>>>;

/// The campaign-execution engine. Construct with a config, then call
/// [`Engine::run`] per campaign.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// An engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine { config }
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Executes `campaign` (this engine's shard of it) and returns the
    /// streamed, merged report.
    ///
    /// # Errors
    ///
    /// See [`EngineError`].
    pub fn run(&self, campaign: &Campaign) -> Result<EngineReport, EngineError> {
        let cfg = &self.config;
        let total = campaign.cases.len();

        // Open (or resume) the journal and work out what is left to do.
        // `campaign.meta()` hashes every label: only the journal header and
        // the `campaign` event read it, so it is worked out where they do.
        let mut entries: BTreeMap<usize, JournalEntry> = BTreeMap::new();
        let journal = match &cfg.journal {
            Some(path) => {
                let (journal, existing) = Journal::open(path, &campaign.meta(), cfg.resume)?;
                entries = existing;
                Some(journal)
            }
            None => None,
        };
        let resumed = entries
            .values()
            .filter(|e| matches!(e, JournalEntry::Done(_)))
            .count();
        let mut pending = journal::pending(&entries, total, cfg.shard);
        if !cfg.completed.is_empty() {
            let done: std::collections::BTreeSet<usize> = cfg.completed.iter().copied().collect();
            pending.retain(|i| !done.contains(i));
        }

        // Resumed completions and previously-quarantined cases both count
        // exactly once in the summary denominator.
        let prior_quarantined = entries
            .values()
            .filter(|e| matches!(e, JournalEntry::Quarantined(_)))
            .count();

        let tele = &cfg.telemetry;
        let metrics = tele
            .metrics()
            .cloned()
            .unwrap_or_else(|| Arc::new(KernelMetrics::new()));
        let stats = Arc::new(EngineStats::with_metrics(pending.len(), metrics));
        stats.seed_resumed(resumed + prior_quarantined, prior_quarantined);

        let plan = Plan::resolve(cfg, campaign);
        tele.emit_with(|| {
            // Fingerprint and shard identify this run's slice of the
            // campaign across processes: a distributed report joins
            // worker event streams on exactly these fields. `checkpoint`
            // echoes the flag; `path` is what the run resolved it to.
            Event::new("campaign", &campaign.name)
                .with_field("cases", pending.len())
                .with_field("resumed", resumed)
                .with_field("prior_quarantined", prior_quarantined)
                .with_field("workers", cfg.effective_workers())
                .with_field("checkpoint", cfg.checkpoint)
                .with_field("path", plan.name())
                .with_field(
                    "fingerprint",
                    format!("{:016x}", campaign.meta().fingerprint),
                )
                .with_field("shard", cfg.shard.index)
                .with_field("shards", cfg.shard.count)
        });
        if let Some(reason) = Plan::refuses_batch(campaign).filter(|_| cfg.batch) {
            tele.emit_with(|| Event::new("batch", "fallback").with_field("reason", reason));
        }

        // Workers claim *units* of `per` pending cases: one case, or when
        // batching one group of up to `BATCH_UNIT` cases. Groups are cut
        // from the list sorted by ascending injection instant, so the lanes
        // of one group activate off a shared golden prefix, and a lane
        // whose case seals takes the group's next one. A lone worker takes
        // the largest groups; several get `GROUPS_PER_WORKER` each, rounded
        // up to whole words, and never less than one group each. The golden
        // run keeps a snapshot where a unit starts: at every injection stop
        // for forks, at each group's first instant for groups.
        let workers = cfg.effective_workers().min(pending.len()).max(1);
        let (per, keep) = match plan {
            Plan::Batch(_, spec) => {
                pending.sort_by_key(|&i| (campaign.cases[i].injected_at, i));
                let groups = if workers == 1 {
                    1
                } else {
                    workers * GROUPS_PER_WORKER
                };
                let share = pending.len().div_ceil(workers);
                let words = pending.len().div_ceil(groups).next_multiple_of(LANES - 1);
                let per = words.min(BATCH_UNIT).min(share).max(1);
                let firsts = pending.chunks(per).map(|unit| unit[0]);
                (
                    per,
                    firsts
                        .map(|i| campaign.cases[i].injected_at.min(spec.t_end))
                        .collect(),
                )
            }
            Plan::Fork(spec) => (1, spec.stops.clone()),
            Plan::Scalar => (1, Vec::new()),
        };

        // The golden run is mandatory even when everything is resumed —
        // the report's golden trace is not journaled (it can be huge).
        let golden_t0 = Instant::now();
        let (golden, ladder) = self.golden_run(campaign, plan, &keep, &stats)?;
        if let Some(metrics) = tele.metrics() {
            metrics.golden_trace_bytes.add(golden.approx_bytes());
        }
        tele.emit_with(|| {
            Event::new("span", "golden")
                .with_dur_us(golden_t0.elapsed().as_micros() as u64)
                .with_field("snapshots", ladder.len())
                .with_field("checkpoint", matches!(plan, Plan::Fork(_)))
        });

        // One shared golden trace and snapshot ladder for the whole run:
        // the online classifiers on every worker hold `Arc` clones of the
        // one, forks and groups clone their rung of the other.
        let run = Run {
            engine: self,
            campaign,
            golden: Golden::new(campaign.spec.clone(), Arc::new(golden)),
            ladder,
            stats,
            journal,
            clean_verdict: OnceLock::new(),
        };
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let fatal: OnceLock<EngineError> = OnceLock::new();
        let fresh: Mutex<Vec<(usize, JournalEntry)>> =
            Mutex::new(Vec::with_capacity(pending.len()));

        std::thread::scope(|scope| {
            let progress = cfg.progress.map(|interval| {
                let stats = Arc::clone(&run.stats);
                let stop = &stop;
                scope.spawn(move || {
                    let mut last = Instant::now();
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(25));
                        if last.elapsed() >= interval {
                            let snap = stats.snapshot();
                            eprintln!("{snap}");
                            tele.emit_with(|| {
                                Event::new("progress", "tick")
                                    .with_field("done", snap.done)
                                    .with_field("total", snap.total)
                                    .with_field("quarantined", snap.quarantined)
                                    .with_field("rate_per_s", format!("{:.1}", snap.rate()))
                            });
                            last = Instant::now();
                        }
                    }
                })
            });

            let handles: Vec<_> = (0..workers)
                .map(|worker_id| {
                    let (run, pending) = (&run, &pending);
                    let (next, stop, fatal, fresh) = (&next, &stop, &fatal, &fresh);
                    scope.spawn(move || {
                        tele.emit_with(|| {
                            // "thread", not "worker": the worker key is
                            // reserved for the fleet-level process name
                            // stamped by distributed trace context.
                            Event::new("worker", "start").with_field("thread", worker_id)
                        });
                        // All a worker keeps between claims.
                        let tapes = Arc::new(TapeSlot::default());
                        // The entries of the unit in hand.
                        let mut done = Vec::new();
                        let mut claimed = 0usize;
                        while !stop.load(Ordering::Relaxed) {
                            let claim = next.fetch_add(1, Ordering::Relaxed);
                            let Some(unit) = pending.chunks(per).nth(claim) else {
                                break;
                            };
                            claimed += unit.len();
                            let mut one = |forked| {
                                let entry = run.execute_one(unit[0], forked)?;
                                done.push((unit[0], entry));
                                Ok(())
                            };
                            let outcome = match plan {
                                Plan::Batch(b, f) => run.execute_batch(b, f, unit, &mut done),
                                Plan::Fork(spec) => one(run.fork_runner(spec, &tapes, unit[0])),
                                Plan::Scalar => one(None),
                            };
                            match outcome {
                                Ok(()) => fresh.lock().expect("results poisoned").append(&mut done),
                                Err(error) => {
                                    stop.store(true, Ordering::Relaxed);
                                    // The first fatal error is the run's.
                                    let _ = fatal.set(error);
                                }
                            }
                        }
                        tele.emit_with(|| {
                            Event::new("worker", "exit")
                                .with_field("thread", worker_id)
                                .with_field("claimed", claimed)
                        });
                    })
                })
                .collect();
            for handle in handles {
                let _ = handle.join();
            }
            stop.store(true, Ordering::Relaxed);
            if let Some(handle) = progress {
                let _ = handle.join();
            }
        });

        // Fold journal I/O tallies into the metrics before any early
        // return, so a fatal run still dumps accurate counters.
        if let Some(journal) = &run.journal {
            if let Some(metrics) = tele.metrics() {
                metrics.journal_records.add(journal.records_written());
                metrics.journal_bytes.add(journal.bytes_written());
            }
            tele.emit_with(|| {
                Event::new("journal", "summary")
                    .with_field("records", journal.records_written())
                    .with_field("bytes", journal.bytes_written())
            });
        }

        if let Some(error) = fatal.into_inner() {
            return Err(error);
        }

        // Every entry is moved into the report once, in case-index order.
        // Resumed and fresh entries merge with fresh results winning (a
        // resumed skip that was re-attempted is superseded either way); a
        // run that resumed nothing has only its fresh entries to sort.
        let mut fresh = fresh.into_inner().expect("results poisoned");
        let (mut result, skipped, quarantined) = if entries.is_empty() {
            fresh.sort_unstable_by_key(|&(index, _)| index);
            journal::assemble_owned(fresh.into_iter().map(|(_, entry)| entry))
        } else {
            entries.extend(fresh);
            journal::assemble_owned(entries.into_values())
        };
        let golden = Arc::try_unwrap(run.golden.into_trace());
        result.golden = golden.unwrap_or_else(|shared| (*shared).clone());
        let stats = run.stats.snapshot();
        tele.emit_with(|| {
            Event::new("campaign", "end")
                .with_field("done", stats.done)
                .with_field("total", stats.total)
                .with_field("skipped", skipped.len())
                .with_field("quarantined", quarantined.len())
        });
        Ok(EngineReport {
            result,
            skipped,
            quarantined,
            stats,
            resumed,
            path: plan.name(),
        })
    }

    /// The fault-free run every case is classified against, plus — under a
    /// plan that forks — the ladder of its snapshots at the `keep`
    /// instants. A failure is fatal under any policy: nothing can be
    /// classified without it.
    fn golden_run(
        &self,
        campaign: &Campaign,
        plan: Plan<'_>,
        keep: &[Time],
        stats: &Arc<EngineStats>,
    ) -> Result<(Trace, Ladder), EngineError> {
        let mut ladder = Ladder::new();
        let attempt = match plan {
            // The snapshot sink borrows this stack, so the snapshotting
            // golden run is inline: panic-isolated and bounded by the
            // attempt timeout, but without retry or step metering.
            Plan::Fork(spec) | Plan::Batch(_, spec) => {
                let telemetry = self.config.telemetry.clone();
                let mut budget = self.case_budget();
                if let Some(timeout) = self.config.timeout {
                    budget = budget.with_cancel(CancelToken::with_deadline(timeout));
                }
                let ctx = CaseCtx::attached(None, 0, Arc::clone(stats), budget, telemetry, None);
                let out = catch_unwind(AssertUnwindSafe(|| {
                    (spec.golden)(&ctx, keep, &mut |t, snap| {
                        ladder.insert(t, Arc::new(Mutex::new(snap)));
                    })
                }));
                ctx.finish();
                Attempt::of(out, &ctx)
            }
            Plan::Scalar => self.attempt_case(&campaign.runner, None, stats, None).0,
        };
        match attempt {
            Attempt::Ok { trace, .. } => Ok((trace, ladder)),
            Attempt::Failed(e) => Err(EngineError::Golden(e)),
            Attempt::OffForkPath(e) => Err(EngineError::Golden(e.to_string())),
            // A guard trip on the fault-free run means the budget (or the
            // model) cannot cover the horizon.
            Attempt::SimFailed(f) => Err(EngineError::Golden(f.to_string())),
            Attempt::TimedOut => Err(EngineError::Golden("timed out".to_owned())),
            Attempt::Sealed { .. } => {
                unreachable!("the golden run is never watched")
            }
        }
    }

    /// The retry loop around [`Engine::run_attempt`]. Returns the final
    /// attempt outcome and how many attempts were made.
    fn attempt_case(
        &self,
        runner: &CaseRunner,
        index: Option<usize>,
        stats: &Arc<EngineStats>,
        early: Option<&OnlineClassifier>,
    ) -> (Attempt, u32) {
        let note = |kind: &str, attempt: u32| {
            self.config.telemetry.emit_with(|| {
                let event = Event::new(kind, "attempt").with_field("attempt", attempt);
                match index {
                    Some(index) => event.with_case(index),
                    None => event,
                }
            });
        };
        let mut last = Attempt::Failed("no attempt made".to_owned());
        for attempt in 0..=self.config.retries {
            if attempt > 0 {
                stats.record_retry();
                note("retry", attempt);
                let backoff = self.config.backoff * 2u32.saturating_pow(attempt - 1);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            last = self.run_attempt(runner, index, attempt, stats, early);
            if let Attempt::TimedOut = last {
                stats.record_timeout();
                note("timeout", attempt);
            }
            if matches!(
                last,
                // A guard trip, sealed verdict or fork that left its path
                // is deterministic; retrying would reproduce it. All end
                // the loop like a success.
                Attempt::Ok { .. }
                    | Attempt::Sealed { .. }
                    | Attempt::SimFailed(_)
                    | Attempt::OffForkPath(_)
            ) {
                return (last, attempt + 1);
            }
        }
        (last, self.config.retries + 1)
    }

    /// The simulation budget from the engine knobs, without a cancel token:
    /// whoever runs under it attaches a fresh one where a deadline calls
    /// for it.
    fn case_budget(&self) -> SimBudget {
        let mut budget = SimBudget::unlimited();
        if let Some(max_steps) = self.config.max_steps {
            budget = budget.with_max_steps(max_steps);
        }
        if let Some(min_dt) = self.config.min_dt {
            budget = budget.with_min_dt(min_dt);
        }
        budget
    }

    /// [`Engine::case_budget`] reporting into the run's metric registry.
    fn metered_budget(&self) -> SimBudget {
        match self.config.telemetry.metrics() {
            Some(metrics) => self.case_budget().with_metrics(Arc::clone(metrics)),
            None => self.case_budget(),
        }
    }

    /// One attempt: panic-isolated, optionally under a wall-clock timeout.
    fn run_attempt(
        &self,
        runner: &CaseRunner,
        index: Option<usize>,
        attempt: u32,
        stats: &Arc<EngineStats>,
        early: Option<&OnlineClassifier>,
    ) -> Attempt {
        let runner = Arc::clone(runner);
        let early = early.cloned();
        let token = self.config.timeout.map(CancelToken::with_deadline);
        let budget = match &token {
            Some(token) => self.metered_budget().with_cancel(token.clone()),
            None => self.metered_budget(),
        };
        // The probe shares the attempt's step tally (it is behind an `Arc`),
        // so the engine can observe steps even when the attempt thread is
        // abandoned after a timeout.
        let budget_probe = budget.clone();
        let call = {
            let stats = Arc::clone(stats);
            let telemetry = self.config.telemetry.clone();
            move || {
                let ctx = CaseCtx::attached(index, attempt, stats, budget, telemetry, early);
                let out = catch_unwind(AssertUnwindSafe(|| runner(&ctx)));
                ctx.finish();
                Attempt::of(out, &ctx)
            }
        };
        let outcome = self.drive_attempt(call, token);
        if let Some(metrics) = self.config.telemetry.metrics() {
            metrics.steps_used.observe(budget_probe.attempt_steps());
        }
        outcome
    }

    /// Runs `call` inline, or on a watchdog thread when a timeout is set
    /// (and `token` is the attempt's deadline token).
    fn drive_attempt(
        &self,
        call: impl FnOnce() -> Attempt + Send + 'static,
        token: Option<CancelToken>,
    ) -> Attempt {
        let (Some(timeout), Some(token)) = (self.config.timeout, token) else {
            return call();
        };
        // The attempt runs on its own thread so a wedged solver cannot
        // stall the worker. Cancellation is cooperative: the deadline token
        // is armed inside the attempt's budget, so a guarded kernel
        // observes the expiry and returns promptly — the engine then joins
        // the thread instead of leaking it. Only a runner that never polls
        // its budget is abandoned, and only after a grace window.
        let (tx, rx) = mpsc::sync_channel(1);
        let spawned = std::thread::Builder::new()
            .name("amsfi-attempt".to_owned())
            .spawn(move || {
                let _ = tx.send(call());
            });
        let Ok(handle) = spawned else {
            return Attempt::Failed("failed to spawn attempt thread".to_owned());
        };
        match rx.recv_timeout(timeout) {
            Ok(outcome) => {
                let _ = handle.join();
                match outcome {
                    // The attempt observed its deadline token cooperatively
                    // a moment before the engine's own timer expired. Same
                    // timeout, same report — otherwise the winner of that
                    // race decides between `timed out` and `sim-failure`.
                    Attempt::SimFailed(SimFailure::Deadline { .. }) => Attempt::TimedOut,
                    outcome => outcome,
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                token.cancel();
                let grace = timeout.clamp(Duration::from_millis(50), Duration::from_secs(2));
                match rx.recv_timeout(grace) {
                    Ok(late) => {
                        let _ = handle.join();
                        match late {
                            // The attempt finished, or its watch retired
                            // it, in the race window between expiry and
                            // cancellation; keep it.
                            late @ (Attempt::Ok { .. } | Attempt::Sealed { .. }) => late,
                            _ => Attempt::TimedOut,
                        }
                    }
                    // The runner ignored its token; abandon the thread. It
                    // holds only `Arc` clones of runner and stats, so
                    // nothing dangles — the cost of one genuinely wedged
                    // solver is one leaked thread.
                    Err(_) => Attempt::TimedOut,
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Attempt::Failed("attempt thread died without reporting".to_owned())
            }
        }
    }
}

/// What every step of one [`Engine::run`] reads once the golden run is in:
/// shared by reference between the worker threads.
struct Run<'a> {
    engine: &'a Engine,
    campaign: &'a Campaign,
    /// The golden trace with the campaign's spec resolved against it.
    golden: Golden,
    /// The golden run's snapshots; empty on the scalar plan.
    ladder: Ladder,
    stats: Arc<EngineStats>,
    journal: Option<Journal>,
    /// What golden classifies as against itself: the verdict of every lane
    /// a batch group reports as [`LaneOutcome::Clean`], worked out by the
    /// first.
    clean_verdict: OnceLock<CaseOutcome>,
}

impl Run<'_> {
    /// Writes one finished case's record line to the journal (when
    /// configured) and streams it to the record sink (when configured).
    /// `format` runs only if at least one of the two is present, so runs
    /// with neither pay nothing.
    fn emit_record(
        &self,
        index: usize,
        format: impl FnOnce() -> String,
    ) -> Result<(), EngineError> {
        let sink = &self.engine.config.record_sink;
        if self.journal.is_none() && sink.is_none() {
            return Ok(());
        }
        let line = format();
        if let Some(journal) = &self.journal {
            journal.append_line(&line)?;
        }
        if let Some(sink) = sink {
            sink.deliver(index, &line);
        }
        Ok(())
    }

    /// Counts and journals a case's verdict, however it was come by: every
    /// route to a classified case ends here.
    fn book(
        &self,
        index: usize,
        outcome: CaseOutcome,
        forked_at: Option<Time>,
    ) -> Result<JournalEntry, EngineError> {
        self.stats.record_class(outcome.class);
        let result = CaseResult {
            case: self.campaign.cases[index].clone(),
            outcome,
        };
        self.emit_record(index, || journal::case_line(index, &result, forked_at))?;
        Ok(JournalEntry::Done(result))
    }

    /// Classifies a full-horizon trace against the golden run, on the
    /// classify stage's clock.
    fn classify(&self, trace: &Trace) -> CaseOutcome {
        self.on_classify_clock(|| classify(self.golden.spec(), self.golden.trace(), trace))
    }

    /// Draws verdicts on the classify stage's clock.
    fn on_classify_clock<T>(&self, draw: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let drawn = draw();
        self.stats.record_stage(Stage::Classify, t0.elapsed());
        drawn
    }

    /// The verdicts of a word group's completed lanes, drawn on one classify
    /// clock as the group was simulated on one simulate clock: one per
    /// distinct toggle list, and per completed lane, in lane order, which.
    ///
    /// A verdict is drawn from a lane's mismatch toggles, taken against the
    /// group's golden lane, whose trace equals the run's golden, by a
    /// [`MismatchClassifier`] over the run's one resolution of the spec's
    /// names. It is a function of the
    /// toggles, and lanes of one group often repeat each other's (SET pulses
    /// of different widths latched at one clock edge): a repeat, found by
    /// the hash of its list and confirmed equal, is booked with a shared
    /// copy, as a clean lane is with `clean_verdict`'s.
    fn drawn_verdicts(&self, outcomes: &[LaneOutcome]) -> (Vec<CaseOutcome>, Vec<usize>) {
        let mut completed = outcomes
            .iter()
            .filter_map(|outcome| match outcome {
                LaneOutcome::Completed { toggles, .. } => Some(toggles),
                _ => None,
            })
            .peekable();
        if completed.peek().is_none() {
            return (Vec::new(), Vec::new());
        }
        self.on_classify_clock(|| {
            let mut classifier = MismatchClassifier::new(&self.golden);
            // Each distinct list, keyed to the index of its verdict.
            let mut distinct: HashMap<&MismatchToggles, usize> = HashMap::new();
            let mut verdicts = Vec::new();
            let picks = completed
                .map(|toggles| {
                    *distinct.entry(toggles).or_insert_with(|| {
                        verdicts.push(classifier.classify(toggles));
                        verdicts.len() - 1
                    })
                })
                .collect();
            (verdicts, picks)
        })
    }

    /// Books a verdict an online classifier sealed mid-simulation, with an
    /// estimate of the work the abort saved.
    fn book_sealed(
        &self,
        index: usize,
        outcome: CaseOutcome,
        steps: u64,
        forked_at: Option<Time>,
    ) -> Result<JournalEntry, EngineError> {
        let tele = &self.engine.config.telemetry;
        let window_end = self.campaign.spec.window.1;
        let class = outcome.class;
        let sealed_at = outcome.sealed_at.unwrap_or(window_end);
        // The simulation time the abort skipped. Runs advance to
        // the fork spec's horizon when there is one; campaigns
        // without a fork spec stop at the observation window's end.
        let horizon = self.campaign.fork.as_ref().map_or(window_end, |f| f.t_end);
        let saved = if horizon > sealed_at {
            horizon - sealed_at
        } else {
            Time::ZERO
        };
        // Extrapolate saved steps from the attempt's measured step
        // density over the simulated span (fork instant → seal).
        let covered = sealed_at - forked_at.unwrap_or(Time::ZERO);
        let saved_steps = if covered > Time::ZERO {
            ((i128::from(steps) * i128::from(saved.as_fs())) / i128::from(covered.as_fs())) as u64
        } else {
            0
        };
        if let Some(metrics) = tele.metrics() {
            metrics.early_aborts.inc();
            metrics.saved_sim_fs.add(saved.as_fs().max(0) as u64);
            metrics.saved_steps.add(saved_steps);
        }
        tele.emit_with(|| {
            Event::new("early_abort", "sealed")
                .with_case(index)
                .with_field("class", class)
                .with_field("sealed_at_fs", sealed_at.as_fs())
                .with_field("saved_fs", saved.as_fs())
                .with_field("saved_steps", saved_steps)
        });
        self.book(index, outcome, forked_at)
    }

    /// The fate of a case whose retry budget ran out without a verdict:
    /// fatal under [`ErrorPolicy::FailFast`], otherwise journaled as
    /// quarantined or skipped.
    fn give_up(
        &self,
        index: usize,
        attempts: u32,
        error: String,
    ) -> Result<JournalEntry, EngineError> {
        let config = &self.engine.config;
        let case = self.campaign.cases[index].clone();
        match config.error_policy {
            ErrorPolicy::FailFast => Err(EngineError::Case {
                index,
                label: case.label.to_string(),
                attempts,
                error,
            }),
            ErrorPolicy::SkipAndRecord if config.quarantine => {
                let q = QuarantinedCase {
                    index,
                    case,
                    attempts,
                    reason: error,
                };
                self.emit_record(index, || journal::quarantine_line(&q))?;
                self.stats.record_quarantine();
                config.telemetry.emit_with(|| {
                    Event::new("quarantine", "case")
                        .with_case(index)
                        .with_field("attempts", q.attempts)
                        .with_field("reason", &q.reason)
                });
                Ok(JournalEntry::Quarantined(q))
            }
            ErrorPolicy::SkipAndRecord => {
                let skip = SkippedCase {
                    index,
                    case,
                    attempts,
                    error,
                };
                self.emit_record(index, || journal::skip_line(&skip))?;
                self.stats.record_skip();
                config.telemetry.emit_with(|| {
                    Event::new("skip", "case")
                        .with_case(index)
                        .with_field("attempts", skip.attempts)
                        .with_field("reason", &skip.error)
                });
                Ok(JournalEntry::Skipped(skip))
            }
        }
    }

    /// A fresh online classifier for case `index` (each attempt arms a copy);
    /// `None` without [`EngineConfig::with_early_abort`].
    fn early(&self, index: usize) -> Option<OnlineClassifier> {
        let at = self.campaign.cases[index].injected_at;
        let classifier = || OnlineClassifier::new(self.golden.clone(), at);
        self.engine.config.early_abort.then(classifier)
    }

    /// The rung a run of case `index` forks from — the golden run's
    /// snapshot at the largest kept instant not after the case's injection
    /// instant — with that instant; counted as a snapshot hit or miss.
    fn rung(&self, spec: &ForkSpec, index: usize) -> Option<(Time, &Arc<Mutex<Snapshot>>)> {
        let at = self.campaign.cases[index].injected_at.min(spec.t_end);
        let hit = self.ladder.range(..=at).next_back().map(|(t, s)| (*t, s));
        if let Some(metrics) = self.engine.config.telemetry.metrics() {
            if hit.is_some() {
                metrics.snapshot_hits.inc();
            } else {
                metrics.snapshot_misses.inc();
            }
        }
        hit
    }

    /// Wraps the fork closure and case `index`'s [rung](Run::rung) into a
    /// runner, returned with the rung's instant; `None` runs it from scratch.
    fn fork_runner(
        &self,
        spec: &ForkSpec,
        tapes: &Arc<TapeSlot>,
        index: usize,
    ) -> Option<(CaseRunner, Time)> {
        self.rung(spec, index).map(|(at, snap)| {
            let (snap, tapes) = (Arc::clone(snap), Arc::clone(tapes));
            let fork = Arc::clone(&spec.fork);
            let runner: CaseRunner = Arc::new(move |ctx: &CaseCtx| {
                // The one deep clone a forked case pays for, under a short
                // lock so a timed-out (abandoned) attempt cannot wedge
                // later retries of the same case. The fork owns the copy.
                fork(
                    ctx,
                    snap.lock().expect("snapshot poisoned").clone_snapshot(),
                    &tapes,
                )
            });
            (runner, at)
        })
    }

    /// Runs one case end-to-end: attempts (with retries), classification,
    /// journaling, counter updates. `Err` only under [`ErrorPolicy::FailFast`].
    ///
    /// `forked` carries the checkpoint-fork runner and the snapshot instant
    /// (see [`Run::fork_runner`]); `None` uses the campaign's from-scratch
    /// runner.
    fn execute_one(
        &self,
        index: usize,
        forked: Option<(CaseRunner, Time)>,
    ) -> Result<JournalEntry, EngineError> {
        let (engine, campaign, stats) = (self.engine, self.campaign, &self.stats);
        let tele = &engine.config.telemetry;
        let case_t0 = Instant::now();
        let (runner, mut forked_at) = match forked {
            Some((runner, at)) => (runner, Some(at)),
            None => (Arc::clone(&campaign.runner), None),
        };
        let early = self.early(index);
        let early = early.as_ref();
        let (mut attempt, mut attempts) = engine.attempt_case(&runner, Some(index), stats, early);
        // Graceful degradation: a snapshot that cannot be restored, or a
        // follower off its tape's grid, fails deterministically, so instead
        // of burning the retry budget on the fork path the case re-runs
        // from scratch.
        if let (Attempt::OffForkPath(off), Some(_)) = (&attempt, forked_at) {
            let reason = off.reason();
            forked_at = None;
            stats.record_fallbacks(1);
            if let (ForkPathError::Restore(_), Some(metrics)) = (off, tele.metrics()) {
                metrics.restore_fallbacks.inc();
            }
            tele.emit_with(|| {
                Event::new("checkpoint", "fallback")
                    .with_case(index)
                    .with_field("reason", reason)
            });
            let (fallback, n) = engine.attempt_case(&campaign.runner, Some(index), stats, early);
            attempt = fallback;
            attempts += n;
        }
        // The stop a follower's tape was led from: its own snapshot's.
        let followed_from = match attempt {
            Attempt::Ok { followed: true, .. } => forked_at,
            _ => None,
        };
        if followed_from.is_some() {
            stats.record_followed();
        }
        let outcome = match attempt {
            Attempt::Ok { trace, .. } => self.book(index, self.classify(&trace), forked_at),
            Attempt::Sealed { outcome, steps } => {
                self.book_sealed(index, *outcome, steps, forked_at)
            }
            Attempt::SimFailed(failure) => {
                // A guard trip is a verdict, not an infrastructure error:
                // the case is done, classified as a simulation failure.
                let kind = guard_kind(&failure);
                if let Some(metrics) = tele.metrics() {
                    metrics.guard_trip(kind);
                }
                tele.emit_with(|| {
                    Event::new("guard", kind.label())
                        .with_case(index)
                        .with_field("detail", &failure)
                });
                self.book(index, CaseOutcome::from_sim_failure(failure), forked_at)
            }
            Attempt::Failed(error) => self.give_up(index, attempts, error),
            Attempt::OffForkPath(off) => self.give_up(index, attempts, off.to_string()),
            Attempt::TimedOut => {
                let timeout = engine.config.timeout.unwrap_or_default();
                self.give_up(index, attempts, format!("timed out after {timeout:?}"))
            }
        };
        let dur_us = case_t0.elapsed().as_micros() as u64;
        if let Some(metrics) = tele.metrics() {
            metrics.case_latency_us.observe(dur_us);
        }
        tele.emit_with(|| {
            let mut event = Event::new("span", "case")
                .with_case(index)
                .with_dur_us(dur_us)
                .with_field("label", &campaign.cases[index].label)
                .with_field("attempts", attempts);
            if let Some(stop) = followed_from {
                event = event.with_field("followed", stop.as_fs());
            }
            event = match &outcome {
                Ok(JournalEntry::Done(result)) => event.with_field("class", result.outcome.class),
                Ok(JournalEntry::Skipped(_)) => event.with_field("outcome", "skipped"),
                Ok(JournalEntry::Quarantined(_)) => event.with_field("outcome", "quarantined"),
                Err(_) => event.with_field("outcome", "fatal"),
            };
            event
        });
        outcome
    }

    /// Runs one case group bit-parallel through the campaign's
    /// [`BatchSpec`], from a copy of the group's [rung](Run::rung), and
    /// books every lane, pushing the entries onto `done`.
    ///
    /// With `--early-abort` the group runs under one watch over the lanes'
    /// classifiers, plain values of this call: shown a lane at a stop, it
    /// feeds the lane's classifier, and a seal retires the lane
    /// ([`LaneOutcome::Retired`]), whose sealed verdict is booked. A
    /// classifier reads the lane's toggles through the run's golden trace,
    /// whose slots are the group's: the group forks from the golden run's
    /// own snapshots. A lane that fails falls back to the scalar path for
    /// that case alone — which re-derives guard-trip verdicts, retry
    /// accounting and quarantine exactly as a scalar run would.
    ///
    /// A completed lane is booked from [`Run::drawn_verdicts`]: its toggles
    /// are taken against the group's golden lane, whose trace must equal
    /// the campaign's golden run — the verdict is then the one the lane's
    /// trace draws against the latter — and a [`LaneOutcome::Clean`] lane
    /// is booked with `clean_verdict`, golden classified against itself. A
    /// group whose golden lane differs, or whose machine fails as a whole —
    /// its own error, a panic, or under [`EngineConfig::with_timeout`] the
    /// wall clock its cases would have had one by one — is re-run scalar
    /// instead.
    fn execute_batch(
        &self,
        spec: &BatchSpec,
        fork: &ForkSpec,
        group: &[usize],
        done: &mut Vec<(usize, JournalEntry)>,
    ) -> Result<(), EngineError> {
        let engine = self.engine;
        let tele = &engine.config.telemetry;
        let group_t0 = Instant::now();
        let rung = self.rung(fork, group[0]);
        // Each lane's online classifier under `--early-abort`, none otherwise.
        let mut classifiers: Vec<OnlineClassifier> = group
            .iter()
            .filter_map(|&index| self.early(index))
            .collect();
        // The machine-wide budget: a trip here fails the whole group. Its
        // deadline can never expire where the scalar path would not time
        // out, and with no timeout there is no token for the kernel to poll.
        let mut budget = engine.metered_budget();
        if let Some(timeout) = engine.config.timeout {
            let lanes = u32::try_from(group.len()).unwrap_or(u32::MAX);
            budget = budget.with_cancel(CancelToken::with_deadline(timeout.saturating_mul(lanes)));
        }
        let ctx = CaseCtx::attached(None, 0, Arc::clone(&self.stats), budget, tele.clone(), None);
        let mut watch = |lane: usize, t, toggles: &MismatchToggles, untouched: &[DigitalSlot]| {
            let classifier = &mut classifiers[lane];
            classifier.observe_toggles(t, toggles, untouched);
            classifier.sealed().is_some()
        };
        let watch: Option<&mut LaneWatch<'_>> = engine.config.early_abort.then_some(&mut watch);
        let out = catch_unwind(AssertUnwindSafe(|| match rung {
            Some((_, snap)) => {
                let rung = snap.lock().expect("snapshot poisoned").clone_snapshot();
                (spec.run)(&ctx, group, engine.metered_budget(), watch, rung)
            }
            None => Err("no snapshot to fork the group from".into()),
        }));
        ctx.finish();
        let report = match out {
            Ok(Ok(report)) if report.outcomes.len() != group.len() => Err(format!(
                "batch returned {} outcomes for {} lanes",
                report.outcomes.len(),
                group.len()
            )),
            Ok(Ok(report)) if report.golden != **self.golden.trace() => {
                Err("golden lane differs from the golden run".to_owned())
            }
            Ok(Ok(report)) => Ok(report),
            Ok(Err(e)) => Err(e.to_string()),
            Err(payload) => Err(panic_message(payload)),
        };
        let BatchReport {
            outcomes,
            machines,
            refills,
            ..
        } = match report {
            Ok(report) => report,
            Err(reason) => {
                self.stats.record_fallbacks(group.len());
                tele.emit_with(|| {
                    Event::new("batch", "fallback")
                        .with_field("lanes", group.len())
                        .with_field("reason", &reason)
                });
                for &index in group {
                    done.push((index, self.execute_one(index, None)?));
                }
                return Ok(());
            }
        };
        let (verdicts, picks) = self.drawn_verdicts(&outcomes);
        let mut picks = picks.into_iter();
        for (lane, (&index, outcome)) in group.iter().zip(&outcomes).enumerate() {
            let entry = match outcome {
                LaneOutcome::Completed { .. } => {
                    let verdict = &verdicts[picks.next().expect("a verdict per completed lane")];
                    self.book(index, verdict.clone(), None)?
                }
                LaneOutcome::Clean { .. } => {
                    let verdict = self
                        .clean_verdict
                        .get_or_init(|| self.classify(self.golden.trace()));
                    self.book(index, verdict.clone(), None)?
                }
                LaneOutcome::Retired => {
                    let sealed = classifiers[lane]
                        .sealed()
                        .expect("a retired lane's verdict");
                    self.book_sealed(index, sealed.clone(), 0, None)?
                }
                LaneOutcome::Failed { error } => {
                    self.stats.record_fallbacks(1);
                    tele.emit_with(|| {
                        Event::new("batch", "lane_fallback")
                            .with_case(index)
                            .with_field("reason", error)
                    });
                    self.execute_one(index, None)?
                }
            };
            done.push((index, entry));
        }
        tele.emit_with(|| {
            let mut event = Event::new("span", "batch")
                .with_dur_us(group_t0.elapsed().as_micros() as u64)
                .with_field("lanes", group.len())
                .with_field("machines", machines)
                .with_field("refills", refills);
            if let Some((from, _)) = rung {
                event = event.with_field("from_fs", from.as_fs());
            }
            event
        });
        Ok(())
    }
}

/// Which metrics/event bucket a structured simulation failure lands in.
fn guard_kind(failure: &SimFailure) -> GuardKind {
    match failure {
        SimFailure::NonFinite { .. } => GuardKind::NonFinite,
        SimFailure::StepBudgetExhausted { .. } => GuardKind::StepBudget,
        SimFailure::TimestepCollapse { .. } => GuardKind::TimestepCollapse,
        SimFailure::Deadline { .. } => GuardKind::Deadline,
        SimFailure::Panicked { .. } => GuardKind::Panic,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("run closure panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("run closure panicked: {s}")
    } else {
        "run closure panicked (non-string payload)".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amsfi_waves::{Logic, Time};

    /// A deterministic toy campaign: case index decides the digital value
    /// pattern on signal "out"; odd indices diverge transiently, index 4
    /// fails outright, everything else matches the golden run.
    fn toy_campaign(name: &str, n: usize) -> Campaign {
        let window = (Time::from_ns(0), Time::from_ns(1000));
        let spec = ClassifySpec::new(window, vec!["out".to_owned()]);
        let cases = (0..n)
            .map(|i| FaultCase::new(format!("bit{i}"), Time::from_ns(100)))
            .collect();
        Campaign {
            name: name.to_owned(),
            spec,
            cases,
            runner: Arc::new(|ctx: &CaseCtx| {
                ctx.stage(Stage::Build);
                let mut trace = Trace::new();
                trace.record_digital("out", Time::from_ns(0), Logic::Zero)?;
                ctx.stage(Stage::Simulate);
                match ctx.index() {
                    None => {}
                    Some(4) => {
                        // Still wrong at end of window: failure.
                        trace.record_digital("out", Time::from_ns(200), Logic::One)?;
                    }
                    Some(i) if i % 2 == 1 => {
                        // Wrong then recovered: transient.
                        trace.record_digital("out", Time::from_ns(200), Logic::One)?;
                        trace.record_digital("out", Time::from_ns(400), Logic::Zero)?;
                    }
                    Some(_) => {}
                }
                Ok(trace)
            }),
            fork: None,
            batch: None,
        }
    }

    /// A `Campaign::forked` toy over a tick-per-nanosecond counter: even
    /// case indices stick "out" high (failure), odd ones flip one tick
    /// (transient).
    #[derive(Debug, Clone)]
    struct TickSim {
        now: Time,
        ticks: u64,
        stuck: bool,
        invert_next: bool,
        trace: Trace,
    }

    impl TickSim {
        fn new() -> Self {
            TickSim {
                now: Time::ZERO,
                ticks: 0,
                stuck: false,
                invert_next: false,
                trace: Trace::new(),
            }
        }
    }

    impl ForkableSim for TickSim {
        type Error = std::convert::Infallible;

        fn advance_to(&mut self, t: Time) -> Result<(), Self::Error> {
            while self.now + Time::from_ns(1) <= t {
                self.now += Time::from_ns(1);
                self.ticks += 1;
                let mut bit = if self.stuck {
                    true
                } else {
                    self.ticks % 2 == 1
                };
                if std::mem::take(&mut self.invert_next) {
                    bit = !bit;
                }
                self.trace
                    .record_digital("out", self.now, Logic::from_bool(bit))
                    .unwrap();
            }
            Ok(())
        }

        fn current_time(&self) -> Time {
            self.now
        }

        fn snapshot_trace(&self) -> Trace {
            self.trace.clone()
        }

        fn structural_fingerprint(&self) -> u64 {
            0x71C5
        }
    }

    fn forked_campaign(name: &str, n: usize) -> Campaign {
        let cases = (0..n)
            .map(|i| FaultCase::new(format!("tick{i}"), Time::from_ns(5 + (i as i64 % 3) * 9)))
            .collect();
        forked_cases(name, cases)
    }

    fn forked_cases(name: &str, cases: Vec<FaultCase>) -> Campaign {
        let t_end = Time::from_ns(40);
        let spec = ClassifySpec::new((Time::ZERO, t_end), vec!["out".to_owned()]);
        Campaign::forked(
            name,
            spec,
            cases,
            t_end,
            |_ctx: &CaseCtx| Ok(TickSim::new()),
            |sim: &mut TickSim, i| {
                if i.is_multiple_of(2) {
                    sim.stuck = true;
                } else {
                    sim.invert_next = true;
                }
                Ok(())
            },
        )
    }

    #[test]
    fn checkpoint_mode_matches_from_scratch_mode() {
        let campaign = forked_campaign("toy-fork", 9);
        // Auto, one, and more workers than the host has cores.
        for workers in [0, 1, 3, 8] {
            let config = EngineConfig::default().with_workers(workers);
            let scratch = Engine::new(config.clone()).run(&campaign).unwrap();
            let forked = Engine::new(config.with_checkpoint(true))
                .run(&campaign)
                .unwrap();
            assert_eq!(scratch.result.golden, forked.result.golden);
            assert_eq!(scratch.result.cases.len(), forked.result.cases.len());
            for (a, b) in scratch.result.cases.iter().zip(&forked.result.cases) {
                assert_eq!(a, b, "case {}, {workers} worker(s)", a.case);
            }
        }
    }

    #[test]
    fn injection_past_the_horizon_is_clamped_to_no_effect() {
        // The case's stop — and under `--checkpoint` its snapshot — is taken
        // at the horizon; sticking the output there shows nowhere, because
        // no further tick runs.
        let late = vec![FaultCase::new("late", Time::from_ns(90))];
        let campaign = forked_cases("toy-late", late);
        for checkpoint in [false, true] {
            let report = Engine::new(EngineConfig::default().with_checkpoint(checkpoint))
                .run(&campaign)
                .unwrap();
            assert_eq!(
                report.result.cases[0].outcome.class,
                amsfi_core::FaultClass::NoEffect,
                "checkpoint: {checkpoint}"
            );
        }
    }

    #[test]
    fn checkpoint_mode_journals_the_fork_instant() {
        let campaign = forked_campaign("toy-fork-journal", 4);
        let path = std::env::temp_dir().join(format!(
            "amsfi-executor-fork-{}.journal",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_checkpoint(true)
                .with_journal(&path),
        )
        .run(&campaign)
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Every case record carries the snapshot instant it forked from.
        for line in text.lines().filter(|l| l.starts_with("case ")) {
            assert!(line.contains(" forked="), "{line}");
            assert!(!line.contains(" forked=-"), "{line}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_flag_without_fork_spec_falls_back_to_scratch() {
        let campaign = toy_campaign("toy-nofork", 6);
        let report = Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_checkpoint(true),
        )
        .run(&campaign)
        .unwrap();
        assert_eq!(report.result.cases.len(), 6);
    }

    #[test]
    fn checkpoint_mode_retries_through_a_flaky_fork() {
        use std::sync::atomic::AtomicU32;
        let t_end = Time::from_ns(20);
        let spec = {
            let mut s = ClassifySpec::new((Time::ZERO, t_end), vec!["out".to_owned()]);
            s.outputs.clear();
            s
        };
        let cases = vec![FaultCase::new("flaky", Time::from_ns(5))];
        let tries = Arc::new(AtomicU32::new(0));
        let tries_in = Arc::clone(&tries);
        let campaign = Campaign::forked(
            "toy-fork-flaky",
            spec,
            cases,
            t_end,
            |_ctx: &CaseCtx| Ok(TickSim::new()),
            move |_sim: &mut TickSim, _i| {
                if tries_in.fetch_add(1, Ordering::Relaxed) < 2 {
                    return Err("flaky fork".into());
                }
                Ok(())
            },
        );
        let report = Engine::new(
            EngineConfig::default()
                .with_workers(1)
                .with_checkpoint(true)
                .with_retries(3)
                .with_backoff(Duration::from_millis(1)),
        )
        .run(&campaign)
        .unwrap();
        assert_eq!(report.result.cases.len(), 1);
        assert!(report.skipped.is_empty());
        assert_eq!(report.stats.retries, 2);
        assert_eq!(tries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn engine_matches_legacy_classification() {
        let campaign = toy_campaign("toy", 8);
        let report = Engine::new(EngineConfig::default().with_workers(4))
            .run(&campaign)
            .unwrap();
        let summary = report.result.summary();
        use amsfi_core::FaultClass;
        assert_eq!(summary[0], (FaultClass::NoEffect, 3)); // 0, 2, 6
        assert_eq!(summary[2], (FaultClass::Transient, 4)); // 1, 3, 5, 7
        assert_eq!(summary[3], (FaultClass::Failure, 1)); // 4
        assert_eq!(report.resumed, 0);
        assert!(report.skipped.is_empty());
        assert_eq!(report.stats.done, 8);
        // The runner marked build/simulate stages, the engine classify.
        assert!(report.stats.stage_ns.iter().all(|&ns| ns > 0));
    }

    #[test]
    fn failing_case_is_skipped_and_recorded() {
        let mut campaign = toy_campaign("toy-skip", 6);
        campaign.runner = Arc::new(|ctx: &CaseCtx| {
            if ctx.index() == Some(2) {
                return Err("solver diverged".into());
            }
            if ctx.index() == Some(3) {
                panic!("numerical panic");
            }
            Ok(Trace::new())
        });
        campaign.spec.outputs.clear();
        let report = Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_error_policy(ErrorPolicy::SkipAndRecord),
        )
        .run(&campaign)
        .unwrap();
        assert_eq!(report.result.cases.len(), 4);
        assert_eq!(report.skipped.len(), 2);
        let errors: Vec<&str> = report.skipped.iter().map(|s| s.error.as_str()).collect();
        assert!(
            errors.iter().any(|e| e.contains("solver diverged")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("numerical panic")),
            "{errors:?}"
        );
        assert_eq!(report.stats.skipped, 2);
    }

    #[test]
    fn fail_fast_surfaces_the_case_error() {
        let mut campaign = toy_campaign("toy-ff", 6);
        campaign.runner = Arc::new(|ctx: &CaseCtx| {
            if ctx.index() == Some(1) {
                return Err("boom".into());
            }
            Ok(Trace::new())
        });
        let err = Engine::new(
            EngineConfig::default()
                .with_workers(1)
                .with_error_policy(ErrorPolicy::FailFast),
        )
        .run(&campaign)
        .unwrap_err();
        match err {
            EngineError::Case { index, error, .. } => {
                assert_eq!(index, 1);
                assert!(error.contains("boom"), "{error}");
            }
            other => panic!("expected Case error, got {other}"),
        }
    }

    #[test]
    fn retries_eventually_succeed_and_are_counted() {
        use std::sync::atomic::AtomicU32;
        let tries = Arc::new(AtomicU32::new(0));
        let mut campaign = toy_campaign("toy-retry", 1);
        let tries_in = Arc::clone(&tries);
        campaign.spec.outputs.clear();
        campaign.runner = Arc::new(move |ctx: &CaseCtx| {
            if ctx.index().is_some() && tries_in.fetch_add(1, Ordering::Relaxed) < 2 {
                return Err("flaky".into());
            }
            Ok(Trace::new())
        });
        let report = Engine::new(
            EngineConfig::default()
                .with_workers(1)
                .with_retries(3)
                .with_backoff(Duration::from_millis(1)),
        )
        .run(&campaign)
        .unwrap();
        assert_eq!(report.result.cases.len(), 1);
        assert!(report.skipped.is_empty());
        assert_eq!(report.stats.retries, 2);
        assert_eq!(tries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn timeout_abandons_the_attempt() {
        let mut campaign = toy_campaign("toy-timeout", 2);
        campaign.spec.outputs.clear();
        campaign.runner = Arc::new(|ctx: &CaseCtx| {
            if ctx.index() == Some(1) {
                std::thread::sleep(Duration::from_millis(400));
            }
            Ok(Trace::new())
        });
        let report = Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_timeout(Duration::from_millis(40))
                .with_error_policy(ErrorPolicy::SkipAndRecord),
        )
        .run(&campaign)
        .unwrap();
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].index, 1);
        assert!(report.skipped[0].error.contains("timed out"));
        assert_eq!(report.stats.timeouts, 1);
    }

    #[test]
    fn guard_violation_classifies_as_sim_failure() {
        use amsfi_core::FaultClass;
        use amsfi_waves::GuardViolation;
        let mut campaign = toy_campaign("toy-guard", 3);
        campaign.spec.outputs.clear();
        campaign.runner = Arc::new(|ctx: &CaseCtx| {
            if ctx.index() == Some(1) {
                return Err(Box::new(GuardViolation::NonFinite {
                    signal: "vctrl".to_owned(),
                    t: Time::from_ns(70),
                }) as BoxError);
            }
            Ok(Trace::new())
        });
        let report = Engine::new(EngineConfig::default().with_workers(2).with_retries(3))
            .run(&campaign)
            .unwrap();
        // A guard trip is a verdict: classified, not skipped, not retried.
        assert!(report.skipped.is_empty());
        assert_eq!(report.stats.retries, 0);
        assert_eq!(report.result.cases.len(), 3);
        let failed = &report.result.cases[1];
        assert_eq!(failed.outcome.class, FaultClass::SimFailure);
        assert_eq!(
            failed.outcome.failure,
            Some(amsfi_core::SimFailure::NonFinite {
                signal: "vctrl".to_owned(),
                t: Time::from_ns(70)
            })
        );
    }

    #[test]
    fn cooperative_cancel_reclaims_the_attempt_thread() {
        use amsfi_waves::GuardViolation;
        // The slow case polls its budget's cancel token like a guarded
        // kernel; `live` counts attempt closures still on their thread.
        let live = Arc::new(AtomicUsize::new(0));
        let mut campaign = toy_campaign("toy-cancel", 2);
        campaign.spec.outputs.clear();
        let live_in = Arc::clone(&live);
        campaign.runner = Arc::new(move |ctx: &CaseCtx| {
            if ctx.index() == Some(1) {
                live_in.fetch_add(1, Ordering::SeqCst);
                let token = ctx.budget().cancel_token().clone();
                while !token.should_stop() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                live_in.fetch_sub(1, Ordering::SeqCst);
                return Err(Box::new(GuardViolation::Cancelled { t: Time::ZERO }) as BoxError);
            }
            Ok(Trace::new())
        });
        let report = Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_timeout(Duration::from_millis(30)),
        )
        .run(&campaign)
        .unwrap();
        assert_eq!(report.stats.timeouts, 1);
        assert_eq!(report.skipped.len(), 1);
        assert!(report.skipped[0].error.contains("timed out"));
        // The attempt observed the cancellation and its thread was joined
        // before the engine returned — nothing leaked.
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn quarantine_records_poison_and_resume_skips_it() {
        use std::sync::atomic::AtomicU32;
        let attempts = Arc::new(AtomicU32::new(0));
        let mut campaign = toy_campaign("toy-poison", 4);
        campaign.spec.outputs.clear();
        let attempts_in = Arc::clone(&attempts);
        campaign.runner = Arc::new(move |ctx: &CaseCtx| {
            if ctx.index() == Some(2) {
                attempts_in.fetch_add(1, Ordering::SeqCst);
                return Err("deterministic divergence".into());
            }
            Ok(Trace::new())
        });
        let path = std::env::temp_dir().join(format!(
            "amsfi-executor-poison-{}.journal",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let config = EngineConfig::default()
            .with_workers(1)
            .with_retries(1)
            .with_backoff(Duration::from_millis(1))
            .with_quarantine(true)
            .with_journal(&path);
        let report = Engine::new(config.clone()).run(&campaign).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].index, 2);
        assert_eq!(report.quarantined[0].attempts, 2);
        assert!(report.quarantined[0]
            .reason
            .contains("deterministic divergence"));
        assert!(report.skipped.is_empty());
        assert_eq!(report.stats.quarantined, 1);
        assert_eq!(attempts.load(Ordering::SeqCst), 2);

        // Resuming never re-attempts the poison case, but still reports it.
        let resumed = Engine::new(config.with_resume(true))
            .run(&campaign)
            .unwrap();
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "poison case re-ran");
        assert_eq!(resumed.quarantined.len(), 1);
        assert_eq!(resumed.resumed, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unrestorable_snapshot_falls_back_to_scratch() {
        let scratch = Engine::new(EngineConfig::default().with_workers(2))
            .run(&forked_campaign("toy-fallback", 6))
            .unwrap();
        let mut campaign = forked_campaign("toy-fallback", 6);
        // Sabotage restore: every fork now fails the way a snapshot of the
        // wrong simulator type (or drifted structure) would.
        campaign.fork.as_mut().unwrap().fork = Arc::new(|_ctx, _snap, _tapes| {
            Err(Box::new(ForkPathError::Restore("structural drift".to_owned())) as BoxError)
        });
        let report = Engine::new(
            EngineConfig::default()
                .with_workers(2)
                .with_checkpoint(true)
                .with_retries(2),
        )
        .run(&campaign)
        .unwrap();
        // Every case degraded to its from-scratch runner, and the report
        // says so: same verdicts, nothing skipped, no retries burned on the
        // deterministic failure.
        assert_eq!((report.path, report.stats.fallbacks), ("fork", 6));
        assert!(report.skipped.is_empty());
        assert_eq!(report.stats.retries, 0);
        assert_eq!(scratch.result.cases.len(), report.result.cases.len());
        for (a, b) in scratch.result.cases.iter().zip(&report.result.cases) {
            assert_eq!(a, b, "case {}", a.case);
        }
    }

    /// A [`TickSim`] whose kernel shares all of itself: any run may lead
    /// and any may follow — unless it is armed to fail on the way. It
    /// counts its deep clones.
    #[derive(Debug)]
    struct TapeSim {
        inner: TickSim,
        budget: SimBudget,
        arm: TapeArm,
        clones: Arc<AtomicUsize>,
    }

    impl Clone for TapeSim {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, Ordering::Relaxed);
            TapeSim {
                inner: self.inner.clone(),
                budget: self.budget.clone(),
                clones: Arc::clone(&self.clones),
                ..*self
            }
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum TapeArm {
        Quiet,
        /// `lead_to` errs.
        Breaks,
        /// `advance_to` spins until its budget says stop — for at most
        /// 4 s, so that a budget without a deadline fails a test instead
        /// of hanging it.
        Wedges,
    }

    impl ForkableSim for TapeSim {
        type Error = amsfi_waves::GuardViolation;

        fn advance_to(&mut self, t: Time) -> Result<(), Self::Error> {
            let t0 = Instant::now();
            while self.arm == TapeArm::Wedges && t0.elapsed() < Duration::from_secs(4) {
                self.budget.note_step(self.inner.now)?;
                std::thread::sleep(Duration::from_millis(1));
            }
            let Ok(()) = self.inner.advance_to(t);
            Ok(())
        }

        fn current_time(&self) -> Time {
            self.inner.now
        }

        fn snapshot_trace(&self) -> Trace {
            self.inner.trace.clone()
        }

        fn structural_fingerprint(&self) -> u64 {
            0x7A9E
        }

        fn install_budget(&mut self, budget: SimBudget) {
            self.budget = budget;
        }

        fn lead_to(&mut self, t: Time) -> Result<Option<SimTape>, Self::Error> {
            if self.arm == TapeArm::Breaks {
                return Err(amsfi_waves::GuardViolation::NonFinite {
                    signal: "out".to_owned(),
                    t: self.inner.now,
                });
            }
            self.advance_to(t)?;
            Ok(Some(Arc::new(())))
        }

        fn follow(&mut self, _: &SimTape) -> Result<Follow, Self::Error> {
            self.advance_to(Time::from_ns(40))?;
            Ok(Follow::Done)
        }
    }

    /// One case per entry of `arms`, injected at the paired instant (ns),
    /// on simulators built armed as `golden`; with their clone count.
    fn tape_campaign(
        name: &str,
        golden: TapeArm,
        arms: Vec<(i64, TapeArm)>,
    ) -> (Campaign, Arc<AtomicUsize>) {
        let t_end = Time::from_ns(40);
        let cases = arms
            .iter()
            .enumerate()
            .map(|(i, (at, _))| FaultCase::new(format!("tape{i}"), Time::from_ns(*at)))
            .collect();
        let clones = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&clones);
        let campaign = Campaign::forked(
            name,
            ClassifySpec::new((Time::ZERO, t_end), vec!["out".to_owned()]),
            cases,
            t_end,
            move |_ctx: &CaseCtx| {
                Ok(TapeSim {
                    inner: TickSim::new(),
                    budget: SimBudget::unlimited(),
                    arm: golden,
                    clones: Arc::clone(&counter),
                })
            },
            move |sim: &mut TapeSim, i| {
                sim.inner.invert_next = true;
                sim.arm = arms[i].1;
                Ok(())
            },
        );
        (campaign, clones)
    }

    #[test]
    fn only_an_attempt_that_went_all_the_way_publishes_its_tape() {
        use TapeArm::{Breaks, Quiet, Wedges};
        let (campaign, _) = tape_campaign(
            "toy-tape-failures",
            Quiet,
            vec![(5, Breaks), (5, Wedges), (5, Quiet), (5, Quiet), (5, Quiet)],
        );
        let report = Engine::new(
            EngineConfig::default()
                .with_workers(1)
                .with_checkpoint(true)
                .with_timeout(Duration::from_millis(40)),
        )
        .run(&campaign)
        .unwrap();
        // The erring and the timed-out (cancelled) leaders left nothing in
        // the worker's slot: the first quiet case leads, two follow.
        assert_eq!(report.stats.timeouts, 1);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.result.cases.len(), 4);
        assert_eq!((report.stats.followed, report.stats.fallbacks), (2, 0));
    }

    #[test]
    fn a_worker_holds_the_tape_of_one_stop_at_a_time() {
        use TapeArm::Quiet;
        let run = |instants: [i64; 4]| {
            let arms = instants.iter().map(|&at| (at, Quiet)).collect();
            let config = EngineConfig::default()
                .with_workers(1)
                .with_checkpoint(true);
            let report = Engine::new(config)
                .run(&tape_campaign("toy-tape-stops", Quiet, arms).0)
                .unwrap();
            report.stats.followed
        };
        // Instant-major: one leader per stop. Interleaved: each case finds
        // the other stop's tape, drops it and leads again.
        assert_eq!(run([5, 5, 14, 14]), 2);
        assert_eq!(run([5, 14, 5, 14]), 0);
    }

    #[test]
    fn golden_failure_is_fatal() {
        let mut campaign = toy_campaign("toy-golden", 2);
        campaign.runner = Arc::new(|ctx: &CaseCtx| {
            if ctx.index().is_none() {
                return Err("no golden".into());
            }
            Ok(Trace::new())
        });
        let err = Engine::new(EngineConfig::default())
            .run(&campaign)
            .unwrap_err();
        assert!(matches!(err, EngineError::Golden(_)), "{err}");
    }

    #[test]
    fn the_timeout_bounds_a_snapshotting_golden_run_on_every_forking_plan() {
        use TapeArm::{Quiet, Wedges};
        let (mut campaign, _) = tape_campaign("toy-wedged-golden", Wedges, vec![(5, Quiet)]);
        campaign.batch = Some(BatchSpec {
            run: Arc::new(|_, _, _, _, _| Err("no group starts".into())),
        });
        let config = EngineConfig::default()
            .with_workers(1)
            .with_timeout(Duration::from_millis(100));
        for config in [
            config.clone().with_checkpoint(true),
            config.with_batch(true),
        ] {
            let t0 = Instant::now();
            let err = Engine::new(config).run(&campaign).unwrap_err();
            assert!(matches!(err, EngineError::Golden(_)), "{err}");
            assert!(t0.elapsed() < Duration::from_secs(3), "{:?}", t0.elapsed());
        }
    }

    #[test]
    fn checkpoint_workers_share_one_ladder() {
        // Nine cases over three stops on three workers: one deep clone per
        // rung, when the golden run captures it, and one per forked case —
        // no worker copies the ladder.
        let arms = (0..9).map(|i| (5 + (i % 3) * 9, TapeArm::Quiet)).collect();
        let (campaign, clones) = tape_campaign("toy-one-ladder", TapeArm::Quiet, arms);
        let config = EngineConfig::default()
            .with_workers(3)
            .with_checkpoint(true);
        let report = Engine::new(config).run(&campaign).unwrap();
        assert_eq!((report.path, report.stats.fallbacks), ("fork", 0));
        assert_eq!(clones.load(Ordering::Relaxed), 3 + 9);
    }
}
