//! `cpu-seu-serve`: one long-lived `Coordinator` plus one `worker::run`
//! over loopback, both in this process. The worker's engine runs with
//! `threads = 1`, so the simulating is still done by exactly one thread;
//! the coordinator adds an accept loop, a reaper and one connection
//! handler, all of which sleep or block on the socket between frames.

use super::Prepared;
use crate::spans::Recorder;
use crate::workload::{Workload, SERVE_SHARDS};
use amsfi_core::report;
use amsfi_engine::journal;
use amsfi_serve::{worker, CampaignSource, Coordinator, CoordinatorConfig, WorkerConfig};
use amsfi_telemetry::ServeMetrics;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const WORKLOAD: Workload = Workload::CpuSeuServe;

/// Lease keep-alive period of the bench worker. `worker::run` joins its
/// heartbeat thread at the end of every lease, and that thread only looks
/// at its stop flag between sleeps, so a shard's wall time is rounded *up*
/// to a multiple of this period. At the CLI default (1 s) that turns the
/// 8-shard pass into 8.02 s and at the 100 ms the repo's serve gates use
/// into 1.61 s, against 1.13 s of simulation; neither leaves >= 8 passes
/// in a run, and both would make the rate a staircase in the engine's
/// speed. 10 ms bounds the artefact to under 7% of a 143-case shard
/// while keeping it visible in `serve.lease_gap_ms_p50`.
const HEARTBEAT: Duration = Duration::from_millis(10);

/// The harness-owned `CampaignSource`. The coordinator resolves each
/// submission through it once; the worker resolves every lease through it
/// (`lease` spans mark where a shard starts on the worker).
fn source(
    seed: u64,
    shrink: bool,
    rec: &Arc<Recorder>,
    span: Option<&'static str>,
) -> CampaignSource {
    let rec = Arc::clone(rec);
    Arc::new(move |name, limit| {
        if name != WORKLOAD.name() {
            return None;
        }
        let build = || {
            let mut campaign = Prepared::new(WORKLOAD, seed, shrink, &rec).campaign;
            if let Some(limit) = limit {
                campaign.cases.truncate(limit);
            }
            campaign
        };
        Some(match span {
            Some(name) => rec.closure(name, build),
            None => build(),
        })
    })
}

/// Coordinator counters the harness reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    /// Protocol frames the coordinator received.
    pub frames_rx: u64,
    /// Protocol frames the coordinator sent.
    pub frames_tx: u64,
    /// Record frames rejected.
    pub records_rejected: u64,
    /// Shards returned to the pool.
    pub shards_resharded: u64,
    /// Reshards caused by a lease timeout.
    pub lease_timeouts: u64,
    /// Cases live-merged.
    pub cases_merged: u64,
    /// Campaigns completed.
    pub campaigns_completed: u64,
}

/// A running coordinator + worker pair.
pub struct Fleet {
    coordinator: Arc<Coordinator>,
    metrics: Arc<ServeMetrics>,
    serve: JoinHandle<std::io::Result<()>>,
    worker: JoinHandle<Result<worker::WorkerReport, worker::WorkerError>>,
    dir: PathBuf,
}

impl Fleet {
    /// Binds a coordinator on an ephemeral loopback port with `dir` as its
    /// journal directory, then starts the serve loop and one worker.
    ///
    /// With `one_shot = Some(n)` a single campaign capped at `n` cases is
    /// submitted *before* the worker exists (so its first lease request is
    /// granted without a poll) and the coordinator exits by itself once it
    /// completes; otherwise the fleet idles until [`Fleet::submit`] and
    /// lives until [`Fleet::stop`].
    pub fn start(
        seed: u64,
        shrink: bool,
        rec: &Arc<Recorder>,
        dir: &Path,
        one_shot: Option<usize>,
    ) -> Result<Fleet, String> {
        let mut cfg = CoordinatorConfig::new(dir, source(seed, shrink, rec, None));
        cfg.until_drained = one_shot.is_some();
        // A fresh directory per fleet: nothing to recover.
        cfg.recover = false;
        // The reaper only matters for dead workers, but `run` joins it on
        // exit, so its period bounds every teardown.
        cfg.reap_interval = Duration::from_millis(100);
        let coordinator =
            Arc::new(Coordinator::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?);
        let addr = coordinator
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        if one_shot.is_some() {
            coordinator.submit(WORKLOAD.name(), SERVE_SHARDS, one_shot, false, false)?;
        }
        let metrics = coordinator.metrics();
        let serve = {
            let coordinator = Arc::clone(&coordinator);
            std::thread::spawn(move || coordinator.run())
        };
        let mut wcfg = WorkerConfig::new(addr, source(seed, shrink, rec, Some("lease")));
        wcfg.name = "bench-worker".to_owned();
        wcfg.threads = 1;
        wcfg.heartbeat = HEARTBEAT;
        // A long-lived fleet may idle between submissions (the traced run's
        // idle-pickup probe); its worker leaves when `stop` severs the link.
        wcfg.exit_when_done = one_shot.is_some();
        // 0 would seed the reconnect jitter from process entropy.
        wcfg.backoff_seed = seed.max(1);
        // A lost link means the run is broken; fail instead of retrying.
        wcfg.max_reconnects = Some(0);
        let worker = std::thread::spawn(move || worker::run(wcfg));
        Ok(Fleet {
            coordinator,
            metrics,
            serve,
            worker,
            dir: dir.to_owned(),
        })
    }

    /// Submits the campaign, whole or capped at its first `limit` cases, in
    /// up to [`SERVE_SHARDS`] shards; returns its id.
    pub fn submit(&self, limit: Option<usize>) -> Result<u64, String> {
        self.coordinator
            .submit(WORKLOAD.name(), SERVE_SHARDS, limit, false, false)
            .map(|info| info.id)
    }

    /// A snapshot of the coordinator's counters (relaxed atomic loads).
    pub fn counters(&self) -> ServeCounters {
        let m = &self.metrics;
        ServeCounters {
            frames_rx: m.frames_rx.get(),
            frames_tx: m.frames_tx.get(),
            records_rejected: m.records_rejected.get(),
            shards_resharded: m.shards_resharded.get(),
            lease_timeouts: m.lease_timeouts.get(),
            cases_merged: m.cases_merged.get(),
            campaigns_completed: m.campaigns_completed.get(),
        }
    }

    /// Sleeps in `poll` steps until `done(counters)` holds; returns the
    /// instant it was first seen to. Fails when `timeout` passes or either
    /// fleet thread has ended.
    pub fn wait(
        &self,
        poll: Duration,
        timeout: Duration,
        done: impl Fn(&ServeCounters) -> bool,
    ) -> Result<Instant, String> {
        let deadline = Instant::now() + timeout;
        loop {
            if done(&self.counters()) {
                return Ok(Instant::now());
            }
            if self.worker.is_finished() {
                return Err("the worker ended while work was outstanding".to_owned());
            }
            if Instant::now() > deadline {
                return Err(format!("fleet made no progress for {timeout:?}"));
            }
            std::thread::sleep(poll);
        }
    }

    /// The merged result of a completed submission as `cases.csv`, with the
    /// number of cases merged and how many of them were skipped or
    /// quarantined.
    pub fn merged_csv(&self, id: u64) -> Result<(String, usize, usize), String> {
        let entries = self
            .coordinator
            .merged_entries(id)
            .ok_or_else(|| format!("campaign {id} unknown to the coordinator"))?;
        let (result, skipped, quarantined) = journal::assemble(&entries);
        Ok((
            report::cases_csv(&result),
            entries.len(),
            skipped.len() + quarantined.len(),
        ))
    }

    /// Drains (no further leases; the shard in flight finishes), joins both
    /// threads and removes the journal directory.
    pub fn stop(self) -> Result<(), String> {
        self.coordinator.request_drain();
        let worker = self.worker.join().map_err(|_| "worker thread panicked")?;
        let serve = self.serve.join().map_err(|_| "serve thread panicked")?;
        std::fs::remove_dir_all(&self.dir).ok();
        serve.map_err(|e| format!("coordinator: {e}"))?;
        match worker {
            // The drained coordinator may close the socket before the
            // worker's last poll is answered; by then nothing is in flight.
            Ok(_) | Err(worker::WorkerError::Proto(_)) => Ok(()),
            Err(e) => Err(format!("worker: {e}")),
        }
    }
}

/// Seed to first verdict through the service: coordinator bind, submission
/// (capped at one case so the fleet drains by itself), serve loop, worker
/// connect, handshake, first lease, the worker's campaign build and golden
/// run, up to the first record merged by the coordinator.
pub fn first_verdict(
    seed: u64,
    shrink: bool,
    rec: &Arc<Recorder>,
    dir: &Path,
) -> Result<Duration, String> {
    let t0 = Instant::now();
    let fleet = Fleet::start(seed, shrink, rec, dir, Some(1))?;
    let at = fleet.wait(Duration::from_micros(100), Duration::from_secs(60), |c| {
        c.cases_merged >= 1
    })?;
    let took = at.duration_since(t0);
    fleet.stop()?;
    Ok(took)
}
