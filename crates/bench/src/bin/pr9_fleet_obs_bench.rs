//! **PR 9 fleet-observability bench** — the CI gate for worker metrics
//! shipping. The full `pll-sweep` campaign runs three ways:
//!
//! 1. a single-process reference run (the byte-identity oracle);
//! 2. a distributed fleet (coordinator + two workers) with metrics
//!    shipping **off** (`--no-ship-metrics`), best of N reps;
//! 3. the same fleet with shipping **on** (the default), best of N reps.
//!
//! Gates: the merged `cases.csv` is byte-identical to the reference in
//! both modes (observability must never perturb results), the shipping
//! run's fleet Prometheus export carries per-worker samples for every
//! connected worker with the fleet-wide case total matching the
//! campaign, and the wall-clock overhead of shipping is at most 5%
//! (plus a small absolute slack so sub-second runs don't flake on
//! scheduler noise). Emits `results/bench/BENCH_pr9.json`.
//!
//! ```text
//! cargo run --release -p amsfi-bench --bin pr9_fleet_obs_bench
//! ```
//!
//! Exits non-zero (assert) on any deviation, so `ci.sh` can gate on it.

use amsfi_bench::banner;
use amsfi_core::report;
use amsfi_engine::{campaigns, journal, Engine, EngineConfig};
use amsfi_serve::view::TopView;
use amsfi_serve::{catalog_source, Coordinator, CoordinatorConfig, WorkerConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CAMPAIGN: &str = "pll-sweep";
const SHARDS: usize = 4;
const WORKERS: usize = 2;
const REPS: usize = 3;
/// Relative overhead budget for metrics shipping.
const GATE_FRAC: f64 = 0.05;
/// Absolute slack on top of the relative gate: a couple of scheduler
/// quanta, so a campaign that drains in well under a second cannot fail
/// the gate on timer noise alone.
const SLACK_S: f64 = 0.05;

fn coordinator_cfg(dir: &Path) -> CoordinatorConfig {
    let mut cfg = CoordinatorConfig::new(dir, catalog_source());
    cfg.until_drained = true;
    cfg.lease_timeout = Duration::from_millis(1000);
    cfg.reap_interval = Duration::from_millis(50);
    cfg.retry_ms = 25;
    cfg
}

fn worker_cfg(addr: &str, name: &str, ship: bool) -> WorkerConfig {
    let mut cfg = WorkerConfig::new(addr, catalog_source());
    cfg.name = name.to_owned();
    cfg.threads = 2;
    cfg.poll = Duration::from_millis(25);
    cfg.heartbeat = Duration::from_millis(100);
    cfg.exit_when_done = true;
    cfg.backoff = Duration::from_millis(10);
    cfg.backoff_cap = Duration::from_millis(100);
    cfg.backoff_seed = 9;
    cfg.max_reconnects = Some(10);
    cfg.ship_metrics = ship;
    cfg
}

/// Loads the merged journal and returns the canonical `cases.csv`.
fn merged_csv(path: &Path, cases: usize) -> String {
    let (meta, entries) = journal::load(path).expect("merged journal loads");
    assert_eq!(meta.cases, cases);
    assert_eq!(entries.len(), cases, "every case merged exactly once");
    let (result, skipped, quarantined) = journal::assemble(entries.values());
    assert!(skipped.is_empty() && quarantined.is_empty());
    report::cases_csv(&result)
}

/// One distributed run: coordinator + [`WORKERS`] workers on a fresh
/// journal dir, drained to completion. Returns the wall-clock seconds,
/// the merged csv, the fleet Prometheus export and the fleet view (both
/// read after the drain, so they reflect the final snapshots).
fn run_fleet(tag: &str, rep: usize, ship: bool, cases: usize) -> (f64, String, String, TopView) {
    let dir = std::env::temp_dir().join(format!("amsfi-pr9-{tag}-{rep}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let coordinator =
        Arc::new(Coordinator::bind("127.0.0.1:0", coordinator_cfg(&dir)).expect("bind"));
    let addr = coordinator.local_addr().unwrap().to_string();
    let info = coordinator
        .submit(CAMPAIGN, SHARDS, None, false, false)
        .expect("submit campaign");
    let serve = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || coordinator.run())
    };
    let t0 = Instant::now();
    let workers: Vec<_> = (0..WORKERS)
        .map(|i| {
            let cfg = worker_cfg(&addr, &format!("{tag}-{i}"), ship);
            std::thread::spawn(move || amsfi_serve::worker::run(cfg))
        })
        .collect();
    serve.join().unwrap().expect("coordinator drains");
    // The drain is the timed section: by then every record and every
    // final ShardDone snapshot has been merged. Worker teardown races
    // the dead listener (bounded backoff above) and is not measured.
    let elapsed = t0.elapsed().as_secs_f64();
    for w in workers {
        // A worker's final idle poll can race the drained coordinator's
        // exit; the merged journal below is the gate, not the last gasp.
        let _ = w.join().unwrap();
    }
    let csv = merged_csv(&info.journal, cases);
    let prom = coordinator.fleet_prometheus();
    let view = coordinator.fleet_view();
    drop(coordinator);
    std::fs::remove_dir_all(&dir).ok();
    (elapsed, csv, prom, view)
}

fn main() {
    banner("PR 9: fleet observability (metrics shipping overhead + byte-identity)");

    let campaign = campaigns::build(CAMPAIGN, None).expect("catalog campaign");
    let cases = campaign.cases.len();
    println!(
        "  campaign {CAMPAIGN}: {cases} case(s), {SHARDS} shard(s), \
         {WORKERS} worker(s), best of {REPS}"
    );

    // --- Phase 1: single-process reference. ---------------------------
    let t0 = Instant::now();
    let reference = Engine::new(EngineConfig::default().with_workers(2))
        .run(&campaign)
        .expect("single-process reference run");
    let single_s = t0.elapsed().as_secs_f64();
    let reference_csv = report::cases_csv(&reference.result);
    println!("  single-process reference: {single_s:.3}s");

    // --- Phase 2: shipping off, best of REPS. -------------------------
    let mut off_s = f64::INFINITY;
    for rep in 0..REPS {
        let (s, csv, _, _) = run_fleet("fleet-off", rep, false, cases);
        assert_eq!(csv, reference_csv, "shipping-off byte-identity");
        off_s = off_s.min(s);
    }
    println!("  distributed, shipping off: {off_s:.3}s (best of {REPS})");

    // --- Phase 3: shipping on, best of REPS; fleet export gates. ------
    let mut on_s = f64::INFINITY;
    let mut last: Option<(String, TopView)> = None;
    for rep in 0..REPS {
        let (s, csv, prom, view) = run_fleet("fleet-on", rep, true, cases);
        assert_eq!(csv, reference_csv, "shipping-on byte-identity");
        on_s = on_s.min(s);
        last = Some((prom, view));
    }
    let (prom, view) = last.expect("at least one shipping-on rep");
    println!("  distributed, shipping on:  {on_s:.3}s (best of {REPS})");

    // Every connected worker must show up in the fleet export with its
    // own label, and the shipped per-worker case counts must add up to
    // the campaign: ShardDone snapshots are synchronous, so by drain
    // time the coordinator has each worker's final count.
    assert_eq!(view.workers.len(), WORKERS, "both workers in the view");
    for w in &view.workers {
        assert!(
            prom.contains(&format!("{{worker=\"{}\"}}", w.name)),
            "per-worker sample for {} in the fleet export",
            w.name
        );
    }
    let shipped: u64 = view.workers.iter().map(|w| w.cases).sum();
    assert_eq!(shipped as usize, cases, "fleet case total matches campaign");
    assert!(
        prom.contains(&format!("\namsfi_fleet_worker_cases_total {shipped}\n")),
        "fleet-wide worker_cases sum in the export"
    );
    assert_eq!(view.campaigns.len(), 1);
    assert_eq!(view.campaigns[0].merged, cases);
    for w in &view.workers {
        println!(
            "    {}: {} case(s), p50 {}us, p99 {}us",
            w.name, w.cases, w.p50_us, w.p99_us
        );
    }

    // --- The overhead gate. -------------------------------------------
    let overhead_s = on_s - off_s;
    let overhead_frac = overhead_s / off_s;
    println!(
        "  shipping overhead: {overhead_s:+.3}s ({:+.1}%), gate {:.0}% + {SLACK_S}s slack",
        overhead_frac * 100.0,
        GATE_FRAC * 100.0,
    );
    assert!(
        on_s <= off_s * (1.0 + GATE_FRAC) + SLACK_S,
        "metrics shipping overhead {overhead_s:.3}s ({:.1}%) exceeds the gate",
        overhead_frac * 100.0
    );

    let json = format!(
        "{{\n  \"bench\": \"pr9_fleet_obs_bench\",\n  \"campaign\": \"{CAMPAIGN}\",\n  \
         \"cases\": {cases},\n  \"shards\": {SHARDS},\n  \"workers\": {WORKERS},\n  \
         \"reps\": {REPS},\n  \"single_process_s\": {single_s:.6},\n  \
         \"ship_off_s\": {off_s:.6},\n  \"ship_on_s\": {on_s:.6},\n  \
         \"overhead_s\": {overhead_s:.6},\n  \"overhead_frac\": {overhead_frac:.6},\n  \
         \"gate_frac\": {GATE_FRAC},\n  \"fleet_cases_shipped\": {shipped},\n  \
         \"byte_identical\": true\n}}\n"
    );
    let path: std::path::PathBuf = std::env::var_os("AMSFI_BENCH_JSON")
        .map_or_else(|| "results/bench/BENCH_pr9.json".into(), Into::into);
    if let Some(parent) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).expect("create bench output dir");
    }
    std::fs::write(&path, &json).expect("write bench json");
    println!("\n  -> wrote {}", path.display());
}
