//! The one seam between the harness and the libraries under `crates/`.
//!
//! Every `amsfi_*` item the benchmark touches is named in this module
//! tree and nowhere else, and only the long-lived public surface is used:
//! `Campaign::forked` / `forked_batch`, the `EngineConfig` builders,
//! `Engine::run`, `Coordinator`, `worker::run`, `CampaignSource`, the
//! kernel and circuit constructors, the `ForkableSim` trait, the stream
//! comparators, `journal`, `proto` and the public metric registries. It
//! deliberately avoids `BatchSimulator`, `LaneFarm`, `core::run_campaign*`
//! and `compare::baseline`, which ROADMAP items 2-3 intend to delete, so
//! those deletions need no benchmark edit. The rest of the harness sees
//! plain numbers and strings.

mod campaigns;
pub mod fleet;
pub mod probes;

use crate::spans::Recorder;
use crate::workload::{self, Workload};
use amsfi_core::report;
use amsfi_engine::{Campaign, Engine, EngineConfig, RecordSink, Shard, Telemetry};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A built campaign plus the engine configuration its workload times.
pub struct Prepared {
    workload: Workload,
    campaign: Campaign,
}

impl Prepared {
    /// Seed to runnable campaign: probe build, mutant-target enumeration,
    /// seeded case list (the fingerprint is taken by whoever runs it).
    pub fn new(workload: Workload, seed: u64, shrink: bool, rec: &Arc<Recorder>) -> Self {
        let plan = workload::plan(workload, seed, shrink);
        Prepared {
            workload,
            campaign: campaigns::build(workload, &plan, rec),
        }
    }

    /// Cases in one pass.
    pub fn cases(&self) -> usize {
        self.campaign.cases.len()
    }

    /// `label @ instant` of every case, in order: the seeded input as the
    /// program under test sees it.
    pub fn case_list(&self) -> Vec<String> {
        self.campaign.cases.iter().map(|c| c.to_string()).collect()
    }
}

/// Which engine path a pass takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The path the workload exists to time.
    Workload,
    /// Scalar from scratch over every `stride`-th case (round-robin shard
    /// 0 of `stride`, so stop grids and fingerprints stay those of the full
    /// campaign).
    Oracle {
        /// 1 = every case.
        stride: usize,
    },
}

/// Kernel counters of one traced pass (`KernelMetrics`, exact per seed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Digital events processed.
    pub digital_events: u64,
    /// Analog integration steps.
    pub solver_steps: u64,
    /// Mixed-signal synchronisation steps.
    pub sync_steps: u64,
    /// Checkpoint-cache hits.
    pub snapshot_hits: u64,
    /// Checkpoint-cache misses.
    pub snapshot_misses: u64,
    /// Word lanes sealed before the horizon.
    pub lane_seals: u64,
    /// Median live mutant lanes per word stop (log2 bucket bound).
    pub lane_occupancy_p50: u64,
    /// Resident golden trace, bytes.
    pub golden_trace_bytes: u64,
}

/// What one `Engine::run` produced, in plain data.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// Wall time of `Engine::run` alone.
    pub wall: Duration,
    /// Process CPU time (all threads) over the same interval.
    pub cpu: Duration,
    /// `cases.csv`, header included.
    pub csv: String,
    /// Cases the engine owned in this pass.
    pub attempted: usize,
    /// Cases that were skipped, quarantined, timed out or sim-failed.
    pub failed: usize,
    /// Wall-clock nanoseconds per stage: build, simulate, classify.
    pub stage_ns: [u64; 3],
    /// Kernel counters, when the pass ran with a metrics registry.
    pub counters: Option<Counters>,
}

fn sim_failure_index() -> usize {
    amsfi_core::FaultClass::ALL
        .iter()
        .position(|c| *c == amsfi_core::FaultClass::SimFailure)
        .expect("sim-failure is a class")
}

/// Runs the prepared campaign once on one engine thread and blocks until
/// the last verdict. With `metrics`, the engine carries a fresh in-memory
/// `KernelMetrics` registry and the report includes its counters.
pub fn run_pass(prepared: &Prepared, path: Path, metrics: bool) -> Result<PassReport, String> {
    let mut cfg = match path {
        Path::Workload => campaigns::engine_config(prepared.workload),
        Path::Oracle { stride } => campaigns::oracle_config()
            .with_shard(Shard::new(0, stride.max(1)).map_err(|e| e.to_string())?),
    };
    let telemetry = if metrics {
        let t = Telemetry::builder().build().map_err(|e| e.to_string())?;
        cfg = cfg.with_telemetry(t.clone());
        Some(t)
    } else {
        None
    };
    let engine = Engine::new(cfg);
    let t0 = Instant::now();
    let (cpu, report) = crate::sys::cpu_during(|| engine.run(&prepared.campaign));
    let wall = t0.elapsed();
    let report = report.map_err(|e| e.to_string())?;

    let stats = &report.stats;
    let failed = report.skipped.len()
        + report.quarantined.len()
        + stats.timeouts
        + stats.classes[sim_failure_index()];
    let counters = telemetry.as_ref().and_then(Telemetry::metrics).map(|m| {
        let snap = m.snapshot();
        Counters {
            digital_events: snap.counter("digital_events"),
            solver_steps: snap.counter("solver_steps"),
            sync_steps: snap.counter("sync_steps"),
            snapshot_hits: snap.counter("snapshot_hits"),
            snapshot_misses: snap.counter("snapshot_misses"),
            lane_seals: snap.counter("lane_seals"),
            lane_occupancy_p50: snap
                .hist("lane_occupancy")
                .filter(|h| h.count() > 0)
                .map_or(0, |h| h.percentile(50.0)),
            golden_trace_bytes: snap.counter("golden_trace_bytes"),
        }
    });
    Ok(PassReport {
        wall,
        cpu,
        csv: report::cases_csv(&report.result),
        attempted: stats.total,
        failed,
        stage_ns: stats.stage_ns,
        counters,
    })
}

/// Seed to first verdict, in process: campaign construction, `Engine::new`,
/// golden run (and checkpoint ladder where the path has one), up to the
/// first record reaching the `RecordSink`. The engine is confined to case 0
/// by a one-case shard, so the full list is still built and fingerprinted.
pub fn first_verdict(
    workload: Workload,
    seed: u64,
    shrink: bool,
    rec: &Arc<Recorder>,
) -> Result<Duration, String> {
    let t0 = Instant::now();
    let prepared = Prepared::new(workload, seed, shrink, rec);
    let first: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    let sink = {
        let first = Arc::clone(&first);
        RecordSink::new(move |_, _| {
            first.get_or_init(Instant::now);
        })
    };
    let only_case_0 = Shard::new(0, prepared.cases()).map_err(|e| e.to_string())?;
    let cfg: EngineConfig = campaigns::engine_config(workload)
        .with_shard(only_case_0)
        .with_record_sink(sink);
    Engine::new(cfg)
        .run(&prepared.campaign)
        .map_err(|e| e.to_string())?;
    let at = first.get().ok_or("no record reached the sink")?;
    Ok(at.duration_since(t0))
}
