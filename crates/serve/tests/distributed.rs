//! End-to-end tests of the distributed campaign service over loopback
//! TCP: a coordinator plus in-process workers run a deterministic toy
//! campaign, a zombie worker is killed mid-shard, and the final merged
//! journal must match a single-process run **byte for byte**.

mod common;

use amsfi_engine::journal::{self, JournalEntry};
use amsfi_engine::{Engine, EngineConfig, RecordSink};
use amsfi_serve::proto::{read_frame, write_frame, Frame, PROTOCOL_VERSION};
use amsfi_serve::{CampaignSource, Coordinator, CoordinatorConfig, WorkerConfig};
use common::toy_campaign;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn toy_source(n: usize) -> CampaignSource {
    Arc::new(move |name, limit| {
        (name == "toy").then(|| {
            let mut campaign = toy_campaign(n, |_| {});
            if let Some(limit) = limit {
                campaign.cases.truncate(limit);
            }
            campaign
        })
    })
}

/// Like [`toy_source`], but every case injection bumps a shared counter,
/// and while `gate` is raised the injection blocks — which lets a test
/// freeze a worker mid-shard, kill the coordinator underneath it, and then
/// let the shard finish against a dead link. The counter is the "no case
/// simulated twice" oracle.
fn gated_counting_source(n: usize) -> (CampaignSource, Arc<AtomicUsize>, Arc<AtomicBool>) {
    let simulated = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new(AtomicBool::new(false));
    let source: CampaignSource = {
        let (simulated, gate) = (Arc::clone(&simulated), Arc::clone(&gate));
        Arc::new(move |name, limit| {
            (name == "toy").then(|| {
                let (simulated, gate) = (Arc::clone(&simulated), Arc::clone(&gate));
                let mut campaign = toy_campaign(n, move |_| {
                    simulated.fetch_add(1, Ordering::SeqCst);
                    while gate.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                });
                if let Some(limit) = limit {
                    campaign.cases.truncate(limit);
                }
                campaign
            })
        })
    };
    (source, simulated, gate)
}

fn unique_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("amsfi-serve-test-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the campaign in one process and returns (per-index record lines,
/// canonical cases.csv) — the golden references the distributed run must
/// reproduce exactly.
fn single_process_reference(n: usize) -> (BTreeMap<usize, String>, String) {
    let lines: Arc<Mutex<BTreeMap<usize, String>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let sink = {
        let lines = Arc::clone(&lines);
        RecordSink::new(move |index, line| {
            lines.lock().unwrap().insert(index, line.to_owned());
        })
    };
    let report = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_record_sink(sink),
    )
    .run(&toy_campaign(n, |_| {}))
    .expect("single-process reference run");
    assert_eq!(report.result.cases.len(), n);
    let csv = amsfi_core::report::cases_csv(&report.result);
    let lines = Arc::try_unwrap(lines).unwrap().into_inner().unwrap();
    assert_eq!(lines.len(), n);
    (lines, csv)
}

/// Loads the coordinator's merged journal and renders the same canonical
/// cases.csv a local `amsfi merge --out` would produce.
fn merged_csv(journal_path: &Path, expect_cases: usize) -> String {
    let (meta, entries) = journal::load(journal_path).expect("merged journal loads");
    assert_eq!(meta.cases, expect_cases);
    assert_eq!(entries.len(), expect_cases, "all cases merged");
    assert!(
        entries.values().all(|e| matches!(e, JournalEntry::Done(_))),
        "no skips or quarantines expected from the toy campaign"
    );
    let (result, skipped, quarantined) = journal::assemble(entries.values());
    assert!(skipped.is_empty() && quarantined.is_empty());
    amsfi_core::report::cases_csv(&result)
}

fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let start = Instant::now();
    while !pred() {
        assert!(
            start.elapsed() < timeout,
            "timed out after {timeout:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

struct Cluster {
    coordinator: Arc<Coordinator>,
    addr: String,
    run: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start_cluster(cfg: CoordinatorConfig) -> Cluster {
    let coordinator = Arc::new(Coordinator::bind("127.0.0.1:0", cfg).expect("bind loopback"));
    let addr = coordinator.local_addr().unwrap().to_string();
    let run = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || coordinator.run())
    };
    Cluster {
        coordinator,
        addr,
        run,
    }
}

fn worker_config(addr: &str, name: &str, n: usize) -> WorkerConfig {
    let mut cfg = WorkerConfig::new(addr, toy_source(n));
    cfg.name = name.to_owned();
    cfg.threads = 2;
    cfg.poll = Duration::from_millis(20);
    cfg.heartbeat = Duration::from_millis(50);
    cfg.exit_when_done = true;
    cfg
}

#[test]
fn two_workers_produce_a_byte_identical_merged_report() {
    const CASES: usize = 12;
    let (_, reference_csv) = single_process_reference(CASES);

    let dir = unique_dir("identical");
    let mut cfg = CoordinatorConfig::new(&dir, toy_source(CASES));
    cfg.until_drained = true;
    cfg.lease_timeout = Duration::from_secs(5);
    cfg.reap_interval = Duration::from_millis(50);
    cfg.retry_ms = 20;
    let cluster = start_cluster(cfg);
    let info = cluster
        .coordinator
        .submit("toy", 3, None, false, false)
        .expect("submit toy campaign");
    assert_eq!(info.cases, CASES);
    assert_eq!(info.shards, 3);

    let workers: Vec<_> = (0..2)
        .map(|i| {
            let cfg = worker_config(&cluster.addr, &format!("w{i}"), CASES);
            std::thread::spawn(move || amsfi_serve::worker::run(cfg))
        })
        .collect();
    for worker in workers {
        let report = worker.join().unwrap().expect("worker runs cleanly");
        assert!(report.records_streamed > 0 || report.shards_completed == 0);
    }
    cluster.run.join().unwrap().expect("coordinator drains");
    assert!(cluster.coordinator.drained());

    assert_eq!(merged_csv(&info.journal, CASES), reference_csv);

    let metrics = cluster.coordinator.metrics();
    assert_eq!(metrics.shards_completed.get(), 3);
    assert_eq!(metrics.cases_merged.get(), CASES as u64);
    assert_eq!(metrics.campaigns_completed.get(), 1);
    assert_eq!(metrics.lease_timeouts.get(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The worker-death drill: a zombie leases a shard, streams exactly one
/// record, then goes silent while keeping its socket open. The lease
/// must time out, the shard must be re-leased carrying the merged case
/// as `done`, and the final report must still be byte-identical with no
/// case double-counted.
#[test]
fn killed_worker_lease_times_out_and_shard_resumes_without_double_count() {
    const CASES: usize = 12;
    let (reference_lines, reference_csv) = single_process_reference(CASES);

    let dir = unique_dir("zombie");
    let mut cfg = CoordinatorConfig::new(&dir, toy_source(CASES));
    cfg.until_drained = true;
    cfg.lease_timeout = Duration::from_millis(250);
    cfg.reap_interval = Duration::from_millis(25);
    cfg.retry_ms = 20;
    let cluster = start_cluster(cfg);
    let info = cluster
        .coordinator
        .submit("toy", 2, None, false, false)
        .expect("submit toy campaign");

    // The zombie speaks the protocol by hand so it can die mid-shard.
    let mut zombie = TcpStream::connect(&cluster.addr).expect("zombie connects");
    write_frame(
        &mut zombie,
        &Frame::Hello {
            worker: "zombie".to_owned(),
            protocol: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut zombie).unwrap(),
        Frame::Welcome { .. }
    ));
    write_frame(&mut zombie, &Frame::LeaseRequest).unwrap();
    let (lease, shard) = match read_frame(&mut zombie).unwrap() {
        Frame::Lease {
            lease, shard, done, ..
        } => {
            assert!(done.is_empty(), "fresh shard has no completed cases");
            (lease, shard)
        }
        other => panic!("expected a lease, got {other:?}"),
    };
    // Stream one genuine record — the same line a healthy worker would
    // send for this case — then go silent without closing the socket.
    let first_case = shard.case_indices(CASES).next().unwrap();
    write_frame(
        &mut zombie,
        &Frame::Record {
            lease,
            line: reference_lines[&first_case].clone(),
        },
    )
    .unwrap();

    let metrics = cluster.coordinator.metrics();
    wait_until(
        "the zombie's lease to time out",
        Duration::from_secs(10),
        || metrics.lease_timeouts.get() >= 1,
    );
    assert!(metrics.shards_resharded.get() >= 1);
    assert_eq!(metrics.cases_merged.get(), 1, "the zombie's record merged");

    // A healthy worker now finishes the campaign, resuming the orphaned
    // shard (its lease arrives with the zombie's case marked done).
    let worker = {
        let cfg = worker_config(&cluster.addr, "survivor", CASES);
        std::thread::spawn(move || amsfi_serve::worker::run(cfg))
    };
    let report = worker.join().unwrap().expect("survivor runs cleanly");
    assert_eq!(report.shards_completed, 2);
    assert_eq!(
        report.cases_executed,
        CASES - 1,
        "the zombie's case must not be re-run"
    );
    // The drained coordinator waits a bounded time (two retry intervals
    // plus 100 ms) for the still-connected zombie's next request, which
    // never comes, then severs its link and exits.
    cluster.run.join().unwrap().expect("coordinator drains");
    drop(zombie);

    // Byte-identity survives the death: same merged csv as one process.
    assert_eq!(merged_csv(&info.journal, CASES), reference_csv);

    // No double count anywhere: every case has exactly one journal line.
    let text = std::fs::read_to_string(&info.journal).unwrap();
    let case_lines = text.lines().filter(|l| l.starts_with("case ")).count();
    assert_eq!(case_lines, CASES, "one journal record per case:\n{text}");
    assert_eq!(metrics.cases_merged.get(), CASES as u64);
    assert!(metrics.lease_timeouts.get() >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Remote submission and the read-only status query, over the wire.
#[test]
fn submit_and_status_frames_drive_a_campaign_remotely() {
    const CASES: usize = 6;
    let dir = unique_dir("remote");
    let mut cfg = CoordinatorConfig::new(&dir, toy_source(CASES));
    cfg.retry_ms = 20;
    let cluster = start_cluster(cfg);

    let mut client = TcpStream::connect(&cluster.addr).unwrap();
    write_frame(
        &mut client,
        &Frame::Submit {
            campaign: "toy".to_owned(),
            shards: 2,
            limit: None,
            checkpoint: false,
            early_abort: false,
        },
    )
    .unwrap();
    match read_frame(&mut client).unwrap() {
        Frame::Submitted {
            cases,
            shards,
            name,
            ..
        } => {
            assert_eq!(cases, CASES);
            assert_eq!(shards, 2);
            assert_eq!(name, "toy");
        }
        other => panic!("expected submitted, got {other:?}"),
    }
    // Submitting an unknown campaign is refused, not fatal.
    write_frame(
        &mut client,
        &Frame::Submit {
            campaign: "no-such-campaign".to_owned(),
            shards: 2,
            limit: None,
            checkpoint: false,
            early_abort: false,
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut client).unwrap(),
        Frame::Error { .. }
    ));

    let worker = {
        let cfg = worker_config(&cluster.addr, "remote-w", CASES);
        std::thread::spawn(move || amsfi_serve::worker::run(cfg))
    };
    worker.join().unwrap().expect("worker drains the campaign");

    write_frame(&mut client, &Frame::StatusRequest).unwrap();
    match read_frame(&mut client).unwrap() {
        Frame::Status {
            campaigns,
            merged,
            drained,
            body,
            ..
        } => {
            assert_eq!(campaigns, 1);
            assert_eq!(merged, CASES as u64);
            assert!(drained);
            assert!(
                body.contains("toy"),
                "status page names the campaign:\n{body}"
            );
        }
        other => panic!("expected status, got {other:?}"),
    }

    cluster.coordinator.request_shutdown();
    cluster.run.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Binds a coordinator on a *specific* address a previous instance just
/// released. `std`'s listener sets `SO_REUSEADDR` on Unix, but give the
/// old socket's teardown a moment anyway.
fn start_cluster_at(addr: &str, mut make_cfg: impl FnMut() -> CoordinatorConfig) -> Cluster {
    let start = Instant::now();
    let coordinator = loop {
        match Coordinator::bind(addr, make_cfg()) {
            Ok(c) => break Arc::new(c),
            Err(e) if start.elapsed() < Duration::from_secs(5) => {
                eprintln!("rebinding {addr}: {e}; retrying");
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("rebinding {addr}: {e}"),
        }
    };
    let run = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || coordinator.run())
    };
    Cluster {
        coordinator,
        addr: addr.to_owned(),
        run,
    }
}

/// The coordinator-death drill, phase-separated so it is fully
/// deterministic: a worker completes one of three shards and exits, the
/// coordinator is killed, a second coordinator recovers the journal dir,
/// and a second worker finishes the campaign. The merged report must be
/// byte-identical to a single-process run and the simulation counter
/// must show every case ran exactly once across both coordinators.
#[test]
fn restarted_coordinator_recovers_campaigns_without_rerunning_cases() {
    const CASES: usize = 12;
    let (_, reference_csv) = single_process_reference(CASES);
    let (source, simulated, _gate) = gated_counting_source(CASES);

    let dir = unique_dir("restart");
    let make_cfg = |until_drained: bool| {
        let source = Arc::clone(&source);
        let dir = dir.clone();
        move || {
            let mut cfg = CoordinatorConfig::new(&dir, Arc::clone(&source));
            cfg.until_drained = until_drained;
            cfg.lease_timeout = Duration::from_secs(5);
            cfg.reap_interval = Duration::from_millis(50);
            cfg.retry_ms = 20;
            cfg
        }
    };

    let first = start_cluster(make_cfg(false)());
    assert_eq!(first.coordinator.epoch(), 1);
    let info = first
        .coordinator
        .submit("toy", 3, None, false, false)
        .expect("submit toy campaign");

    // One shard's worth of work lands in the journal, then the worker
    // leaves cleanly.
    let mut wcfg = worker_config(&first.addr, "before-crash", CASES);
    wcfg.source = Arc::clone(&source);
    wcfg.max_shards = Some(1);
    let report = amsfi_serve::worker::run(wcfg).expect("first worker");
    assert_eq!(report.shards_completed, 1);
    assert_eq!(report.cases_executed, CASES / 3);
    assert_eq!(simulated.load(Ordering::SeqCst), CASES / 3);

    // Kill the coordinator. Its lease table, socket state and in-memory
    // campaign table die with it; only the journal dir survives.
    first.coordinator.request_shutdown();
    first.run.join().unwrap().expect("first coordinator exits");
    let Cluster {
        coordinator, addr, ..
    } = first;
    drop(coordinator);

    // The replacement rebuilds the campaign from the persisted
    // submission + journal: merged cases stay merged, the epoch bump
    // invalidates every lease id the dead coordinator ever issued.
    let second = start_cluster_at(&addr, make_cfg(true));
    assert_eq!(second.coordinator.epoch(), 2);
    let metrics = second.coordinator.metrics();
    assert_eq!(metrics.campaigns_recovered.get(), 1);
    assert_eq!(metrics.cases_recovered.get(), (CASES / 3) as u64);
    assert!(!second.coordinator.drained());

    let mut wcfg = worker_config(&second.addr, "after-crash", CASES);
    wcfg.source = Arc::clone(&source);
    let report = amsfi_serve::worker::run(wcfg).expect("second worker");
    assert_eq!(report.shards_completed, 2);
    assert_eq!(
        report.cases_executed,
        CASES - CASES / 3,
        "recovered cases must not re-run"
    );
    assert_eq!(report.records_replayed, 0);
    second
        .run
        .join()
        .unwrap()
        .expect("second coordinator drains");

    assert_eq!(merged_csv(&info.journal, CASES), reference_csv);
    assert_eq!(
        simulated.load(Ordering::SeqCst),
        CASES,
        "every case simulated exactly once across the restart"
    );
    let text = std::fs::read_to_string(&info.journal).unwrap();
    let case_lines = text.lines().filter(|l| l.starts_with("case ")).count();
    assert_eq!(case_lines, CASES, "one journal record per case:\n{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The full crash story in one flow: a worker is frozen mid-shard (gate),
/// the coordinator is killed underneath it, the shard finishes against
/// the dead link (records land in the replay cache), a replacement
/// coordinator takes over the same port, and the worker reconnects with
/// backoff, replays its cached records and completes the campaign —
/// byte-identically, with no case simulated twice.
#[test]
fn worker_survives_coordinator_restart_by_replaying_cached_records() {
    const CASES: usize = 12;
    let (_, reference_csv) = single_process_reference(CASES);
    let (source, simulated, gate) = gated_counting_source(CASES);

    let dir = unique_dir("replay");
    let make_cfg = |until_drained: bool| {
        let source = Arc::clone(&source);
        let dir = dir.clone();
        move || {
            let mut cfg = CoordinatorConfig::new(&dir, Arc::clone(&source));
            cfg.until_drained = until_drained;
            cfg.lease_timeout = Duration::from_secs(5);
            cfg.reap_interval = Duration::from_millis(50);
            cfg.retry_ms = 20;
            cfg
        }
    };

    let first = start_cluster(make_cfg(false)());
    let info = first
        .coordinator
        .submit("toy", 2, None, false, false)
        .expect("submit toy campaign");

    // Freeze the first faulty case mid-simulation, then start the worker.
    gate.store(true, Ordering::SeqCst);
    let worker = {
        let mut cfg = worker_config(&first.addr, "survivor", CASES);
        cfg.source = Arc::clone(&source);
        cfg.backoff = Duration::from_millis(5);
        cfg.backoff_cap = Duration::from_millis(50);
        cfg.backoff_seed = 42;
        cfg.max_reconnects = None;
        std::thread::spawn(move || amsfi_serve::worker::run(cfg))
    };
    wait_until(
        "the worker to lease a shard and enter simulation",
        Duration::from_secs(10),
        || simulated.load(Ordering::SeqCst) >= 1,
    );

    // Kill the coordinator while the worker is mid-shard, then let the
    // shard finish: its record stream now hits a dead socket and every
    // record must be cached for replay.
    first.coordinator.request_shutdown();
    first.run.join().unwrap().expect("first coordinator exits");
    let Cluster {
        coordinator, addr, ..
    } = first;
    drop(coordinator);
    gate.store(false, Ordering::SeqCst);

    // A replacement takes over the same address; the worker's backoff
    // loop finds it and resumes.
    let second = start_cluster_at(&addr, make_cfg(true));
    assert_eq!(second.coordinator.metrics().campaigns_recovered.get(), 1);

    let report = worker.join().unwrap().expect("worker survives the restart");
    assert!(report.reconnects >= 1, "the link loss forced a reconnect");
    assert_eq!(
        report.records_replayed,
        (CASES / 2) as u64,
        "the dead-link shard replays from cache"
    );
    assert_eq!(report.cases_executed, CASES);
    second
        .run
        .join()
        .unwrap()
        .expect("second coordinator drains");

    assert_eq!(merged_csv(&info.journal, CASES), reference_csv);
    assert_eq!(
        simulated.load(Ordering::SeqCst),
        CASES,
        "replay must resume, not re-simulate"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The fleet-observability drill: two workers feed one campaign, one of
/// them dies mid-shard after shipping a metrics snapshot, and the
/// coordinator must still export a *single* fleet Prometheus page with
/// both workers' kernel metrics, a `top` view that joins their progress,
/// and a worker event stream stamped with campaign/shard/worker trace
/// context.
#[test]
fn fleet_export_joins_metrics_of_live_and_dead_workers() {
    const CASES: usize = 12;
    let (reference_lines, reference_csv) = single_process_reference(CASES);

    let dir = unique_dir("fleet");
    let mut cfg = CoordinatorConfig::new(&dir, toy_source(CASES));
    cfg.until_drained = true;
    cfg.lease_timeout = Duration::from_millis(250);
    cfg.reap_interval = Duration::from_millis(25);
    cfg.retry_ms = 20;
    let cluster = start_cluster(cfg);
    let info = cluster
        .coordinator
        .submit("toy", 2, None, false, false)
        .expect("submit toy campaign");

    // The doomed worker speaks the protocol by hand: it leases a shard,
    // streams one record, ships one metrics snapshot in a heartbeat and
    // dies. Its snapshot must outlive it in the fleet export.
    let mut doomed = TcpStream::connect(&cluster.addr).expect("doomed connects");
    write_frame(
        &mut doomed,
        &Frame::Hello {
            worker: "doomed".to_owned(),
            protocol: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    let epoch = match read_frame(&mut doomed).unwrap() {
        Frame::Welcome { epoch, .. } => epoch,
        other => panic!("expected welcome, got {other:?}"),
    };
    assert_eq!(epoch, 1, "first boot announces epoch 1");
    write_frame(&mut doomed, &Frame::LeaseRequest).unwrap();
    let (lease, shard) = match read_frame(&mut doomed).unwrap() {
        Frame::Lease { lease, shard, .. } => (lease, shard),
        other => panic!("expected a lease, got {other:?}"),
    };
    let first_case = shard.case_indices(CASES).next().unwrap();
    write_frame(
        &mut doomed,
        &Frame::Record {
            lease,
            line: reference_lines[&first_case].clone(),
        },
    )
    .unwrap();
    let mut snap = amsfi_telemetry::MetricsSnapshot::new();
    snap.set_counter("worker_cases", 1);
    snap.set_counter("worker_records_replayed", 7);
    snap.set_hist(
        "case_latency_us",
        amsfi_telemetry::HistSnapshot {
            sum: 4096,
            buckets: vec![(12, 1)],
        },
    );
    write_frame(
        &mut doomed,
        &Frame::Heartbeat {
            lease,
            metrics: Some(snap),
        },
    )
    .unwrap();
    let metrics = cluster.coordinator.metrics();
    wait_until(
        "the doomed worker's lease to time out",
        Duration::from_secs(10),
        || metrics.lease_timeouts.get() >= 1,
    );
    drop(doomed);

    // The survivor runs the real shipping path (on by default) and
    // writes a JSONL event stream for the trace-context check.
    let events_path = dir.join("survivor.events.jsonl");
    let worker = {
        let mut cfg = worker_config(&cluster.addr, "survivor", CASES);
        cfg.telemetry = amsfi_engine::Telemetry::builder()
            .events_path(&events_path)
            .build()
            .expect("worker event stream");
        std::thread::spawn(move || amsfi_serve::worker::run(cfg))
    };
    let report = worker.join().unwrap().expect("survivor runs cleanly");
    assert!(report.shards_completed >= 1);
    cluster.run.join().unwrap().expect("coordinator drains");
    assert_eq!(merged_csv(&info.journal, CASES), reference_csv);

    // One Prometheus page, both workers' metrics, fleet aggregates.
    let prom = cluster.coordinator.fleet_prometheus();
    assert!(
        prom.contains(r#"amsfi_fleet_worker_cases_total{worker="doomed"} 1"#),
        "the dead worker's snapshot survives it:\n{prom}"
    );
    assert!(
        prom.contains(r#"amsfi_fleet_worker_cases_total{worker="survivor"}"#),
        "the live worker's snapshot is exported:\n{prom}"
    );
    assert!(
        prom.contains(r#"amsfi_fleet_case_latency_p99_microseconds{worker="doomed"} 4095"#),
        "per-worker latency percentiles derive from shipped histograms:\n{prom}"
    );
    assert!(
        prom.contains("amsfi_fleet_worker_cases_total 1"),
        "unlabelled fleet sum lines exist:\n{prom}"
    );
    assert!(prom.contains("amsfi_fleet_merge_lag_cases"));

    // The top view joins both workers and shows the finished campaign.
    let view = cluster.coordinator.fleet_view();
    assert_eq!(view.epoch, 1);
    let campaign = &view.campaigns[0];
    assert_eq!(campaign.name, "toy");
    assert_eq!((campaign.merged, campaign.cases), (CASES, CASES));
    assert_eq!(campaign.shards_done, 2);
    assert!(campaign.resharded >= 1, "the doomed shard was re-leased");
    let names: Vec<&str> = view.workers.iter().map(|w| w.name.as_str()).collect();
    assert!(
        names.contains(&"doomed") && names.contains(&"survivor"),
        "{names:?}"
    );
    let survivor = view
        .workers
        .iter()
        .find(|w| w.name == "survivor")
        .expect("survivor in view");
    assert!(survivor.cases > 0, "shipped worker_cases made it into top");
    assert!(survivor.p99_us > 0, "case latency histogram was shipped");

    // `status` shares the same aggregation: counts, percent, workers.
    let status = cluster.coordinator.status();
    assert!(
        status.contains("12/12 cases merged (100.0%)"),
        "status reports merged/total and percent:\n{status}"
    );
    assert!(status.contains("survivor"), "{status}");

    // Worker events carry the cross-process trace context.
    let text = std::fs::read_to_string(&events_path).expect("survivor event stream");
    let mut stamped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let event = amsfi_engine::Event::parse(line).expect("worker event parses");
        let field = |key: &str| {
            event
                .fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        if field("campaign").as_deref() == Some("toy") {
            assert_eq!(field("worker").as_deref(), Some("survivor"), "{line}");
            assert_eq!(field("epoch").as_deref(), Some("1"), "{line}");
            assert!(field("shard").is_some(), "{line}");
            stamped += 1;
        }
    }
    assert!(
        stamped > 0,
        "some events carry lease-level context:\n{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Straggler detection, deterministically: two hand-driven leases, one
/// streams its whole shard, the other sits on zero progress. The slow
/// lane must be flagged in the fleet view, the status page and the
/// metrics — and its lease must NOT be reclaimed or resharded (flagging
/// is observation only).
#[test]
fn slow_lane_is_flagged_as_straggler_but_lease_is_left_alone() {
    const CASES: usize = 12;
    let (reference_lines, _) = single_process_reference(CASES);

    let dir = unique_dir("straggler");
    let mut cfg = CoordinatorConfig::new(&dir, toy_source(CASES));
    // Long lease, fast reaper: the scan judges lanes at 2 × reap age
    // while the slow lease stays very far from timing out.
    cfg.lease_timeout = Duration::from_secs(60);
    cfg.reap_interval = Duration::from_millis(25);
    cfg.retry_ms = 20;
    assert_eq!(cfg.straggler_factor, 0.5, "default factor");
    let cluster = start_cluster(cfg);
    cluster
        .coordinator
        .submit("toy", 2, None, false, false)
        .expect("submit toy campaign");

    let lease_shard = |name: &str| {
        let mut conn = TcpStream::connect(&cluster.addr).expect("connect");
        write_frame(
            &mut conn,
            &Frame::Hello {
                worker: name.to_owned(),
                protocol: PROTOCOL_VERSION,
            },
        )
        .unwrap();
        assert!(matches!(
            read_frame(&mut conn).unwrap(),
            Frame::Welcome { .. }
        ));
        write_frame(&mut conn, &Frame::LeaseRequest).unwrap();
        match read_frame(&mut conn).unwrap() {
            Frame::Lease { lease, shard, .. } => (conn, lease, shard),
            other => panic!("expected a lease, got {other:?}"),
        }
    };
    let (_slow_conn, _slow_lease, slow_shard) = lease_shard("tortoise");
    let (mut fast_conn, fast_lease, fast_shard) = lease_shard("hare");

    // The fast lane settles its whole shard; the slow lane does nothing.
    for index in fast_shard.case_indices(CASES) {
        write_frame(
            &mut fast_conn,
            &Frame::Record {
                lease: fast_lease,
                line: reference_lines[&index].clone(),
            },
        )
        .unwrap();
    }
    let metrics = cluster.coordinator.metrics();
    wait_until(
        "the slow lane to be flagged",
        Duration::from_secs(10),
        || metrics.stragglers_flagged.get() >= 1,
    );

    let view = cluster.coordinator.fleet_view();
    let campaign = &view.campaigns[0];
    assert_eq!(
        campaign.stragglers,
        vec![slow_shard.index],
        "exactly the idle lane is flagged"
    );
    assert_eq!(
        campaign.shards_leased, 2,
        "observation only: both leases still held"
    );
    assert_eq!(metrics.lease_timeouts.get(), 0, "no lease was reclaimed");
    assert_eq!(metrics.shards_resharded.get(), 0, "no shard was resharded");
    let status = cluster.coordinator.status();
    assert!(
        status.contains("STRAGGLER"),
        "status marks the slow lane:\n{status}"
    );
    let prom = cluster.coordinator.fleet_prometheus();
    assert!(
        prom.contains("amsfi_serve_stragglers_flagged_total 1"),
        "{prom}"
    );

    cluster.coordinator.request_shutdown();
    cluster.run.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The accept loop blocks in `accept`, not in a poll: a shutdown with no
/// connection open must wake it and end `run` at once.
#[test]
fn run_returns_promptly_on_shutdown_with_no_connection_open() {
    let dir = unique_dir("shutdown-wake");
    let mut cfg = CoordinatorConfig::new(&dir, toy_source(4));
    // The reaper is joined on the way out; keep its nap short.
    cfg.reap_interval = Duration::from_millis(20);
    let cluster = start_cluster(cfg);
    // Let `run` reach its accept.
    std::thread::sleep(Duration::from_millis(100));
    cluster.coordinator.request_shutdown();
    wait_until("run to return", Duration::from_secs(1), || {
        cluster.run.is_finished()
    });
    cluster.run.join().unwrap().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// Graceful drain: a `drain` frame freezes leasing immediately (workers
/// see `no_work drained=1`), in-flight leases are allowed to end, and
/// the coordinator exits cleanly with its journals flushed.
#[test]
fn drain_frame_stops_leasing_and_shuts_down_cleanly() {
    const CASES: usize = 12;
    let (reference_lines, _) = single_process_reference(CASES);

    let dir = unique_dir("drain");
    let mut cfg = CoordinatorConfig::new(&dir, toy_source(CASES));
    cfg.lease_timeout = Duration::from_millis(250);
    cfg.reap_interval = Duration::from_millis(25);
    cfg.retry_ms = 20;
    let cluster = start_cluster(cfg);
    let info = cluster
        .coordinator
        .submit("toy", 2, None, false, false)
        .expect("submit toy campaign");

    // A zombie holds a lease and has streamed one record when the drain
    // arrives: the record must survive, the lease must be reaped, and
    // no new lease may be granted while it drains.
    let mut zombie = TcpStream::connect(&cluster.addr).expect("zombie connects");
    write_frame(
        &mut zombie,
        &Frame::Hello {
            worker: "zombie".to_owned(),
            protocol: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut zombie).unwrap(),
        Frame::Welcome { .. }
    ));
    write_frame(&mut zombie, &Frame::LeaseRequest).unwrap();
    let (lease, shard) = match read_frame(&mut zombie).unwrap() {
        Frame::Lease { lease, shard, .. } => (lease, shard),
        other => panic!("expected a lease, got {other:?}"),
    };
    let first_case = shard.case_indices(CASES).next().unwrap();
    write_frame(
        &mut zombie,
        &Frame::Record {
            lease,
            line: reference_lines[&first_case].clone(),
        },
    )
    .unwrap();
    let metrics = cluster.coordinator.metrics();
    wait_until(
        "the zombie's record to merge",
        Duration::from_secs(10),
        || metrics.cases_merged.get() >= 1,
    );

    // Ask for the drain over the wire, like `amsfi drain` would.
    let mut client = TcpStream::connect(&cluster.addr).unwrap();
    write_frame(&mut client, &Frame::Drain).unwrap();
    match read_frame(&mut client).unwrap() {
        Frame::Status { body, .. } => {
            assert!(body.contains("draining"), "status says draining:\n{body}");
        }
        other => panic!("expected status, got {other:?}"),
    }
    assert_eq!(metrics.drain_requests.get(), 1);

    // A worker asking for work during the drain is turned away with the
    // drained flag, so `--exit-when-done` fleets disband.
    let mut late = TcpStream::connect(&cluster.addr).unwrap();
    write_frame(
        &mut late,
        &Frame::Hello {
            worker: "late".to_owned(),
            protocol: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut late).unwrap(),
        Frame::Welcome { .. }
    ));
    write_frame(&mut late, &Frame::LeaseRequest).unwrap();
    match read_frame(&mut late).unwrap() {
        Frame::NoWork { drained, .. } => assert!(drained, "draining refuses new leases"),
        other => panic!("expected no_work, got {other:?}"),
    }

    // The zombie never finishes; its lease times out, and with nothing
    // in flight the drained coordinator exits on its own.
    cluster.run.join().unwrap().expect("coordinator drains");

    // The merged record survived the drain: the journal is flushed and
    // resumable by a recovering coordinator.
    let text = std::fs::read_to_string(&info.journal).unwrap();
    let case_lines = text.lines().filter(|l| l.starts_with("case ")).count();
    assert_eq!(case_lines, 1, "the pre-drain record is on disk:\n{text}");
    drop(zombie);
    std::fs::remove_dir_all(&dir).ok();
}

/// The heartbeat thread must not hold a finished lease open: with the
/// CLI-default 1 s period, eight short shards used to take eight seconds
/// (each `join` waited out the thread's sleep). Now the distributed run
/// costs about what the same cases cost in one process.
#[test]
fn heartbeat_period_does_not_round_up_shard_time() {
    const CASES: usize = 64;
    let started = Instant::now();
    let (_, reference_csv) = single_process_reference(CASES);
    let in_process = started.elapsed();

    let dir = unique_dir("hb-latency");
    let mut cfg = CoordinatorConfig::new(&dir, toy_source(CASES));
    cfg.until_drained = true;
    cfg.lease_timeout = Duration::from_secs(5);
    cfg.reap_interval = Duration::from_millis(10);
    let cluster = start_cluster(cfg);
    let info = cluster
        .coordinator
        .submit("toy", 8, None, false, false)
        .expect("submit toy campaign");

    let started = Instant::now();
    let mut cfg = worker_config(&cluster.addr, "w0", CASES);
    cfg.heartbeat = Duration::from_secs(1);
    let report = amsfi_serve::worker::run(cfg).expect("worker runs cleanly");
    let distributed = started.elapsed();
    assert_eq!(report.shards_completed, 8);
    cluster.run.join().unwrap().expect("coordinator drains");

    assert_eq!(merged_csv(&info.journal, CASES), reference_csv);
    assert!(
        distributed < in_process + Duration::from_millis(300),
        "8 shards took {distributed:?} against {in_process:?} in one process"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The other half of the heartbeat contract survives the fix: a shard
/// that simulates for longer than the lease timeout is kept alive by its
/// beats (every record-free period sends one), so it is never resharded.
#[test]
fn long_shard_keeps_its_lease_alive_with_heartbeats() {
    const CASES: usize = 4;
    let (_, reference_csv) = single_process_reference(CASES);
    let (source, simulated, gate) = gated_counting_source(CASES);

    let dir = unique_dir("hb-alive");
    let mut cfg = CoordinatorConfig::new(&dir, toy_source(CASES));
    cfg.until_drained = true;
    cfg.lease_timeout = Duration::from_millis(600);
    cfg.reap_interval = Duration::from_millis(25);
    let cluster = start_cluster(cfg);
    let info = cluster
        .coordinator
        .submit("toy", 1, None, false, false)
        .expect("submit toy campaign");

    // Freeze the shard inside its first faulty case for well over the
    // lease timeout; only heartbeats reach the coordinator meanwhile.
    gate.store(true, Ordering::SeqCst);
    let worker = {
        let mut cfg = WorkerConfig::new(&cluster.addr, source);
        cfg.name = "slow".to_owned();
        cfg.threads = 1;
        cfg.poll = Duration::from_millis(20);
        cfg.heartbeat = Duration::from_millis(200);
        cfg.exit_when_done = true;
        std::thread::spawn(move || amsfi_serve::worker::run(cfg))
    };
    wait_until("the shard to start", Duration::from_secs(10), || {
        simulated.load(Ordering::SeqCst) >= 1
    });
    std::thread::sleep(Duration::from_millis(1500));
    gate.store(false, Ordering::SeqCst);

    let report = worker.join().unwrap().expect("worker runs cleanly");
    assert_eq!(report.shards_completed, 1);
    cluster.run.join().unwrap().expect("coordinator drains");

    let metrics = cluster.coordinator.metrics();
    assert_eq!(metrics.lease_timeouts.get(), 0, "beats kept the lease");
    assert_eq!(metrics.shards_resharded.get(), 0);
    assert_eq!(simulated.load(Ordering::SeqCst), CASES, "no case re-run");
    assert_eq!(merged_csv(&info.journal, CASES), reference_csv);
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker whose next lease request reaches an `--until-drained`
/// coordinator only after the campaign's last shard is done — it was
/// asleep on a `no_work` retry, or its request was in flight — is told
/// the campaign is drained. Before, the coordinator severed every link as
/// it left, and that worker saw its link drop and then "connection
/// refused", and exited 2 although the campaign had completed. Once the
/// coordinator is closing, it refuses a new campaign.
#[test]
fn a_lease_request_after_the_last_shard_is_answered_drained() {
    const CASES: usize = 4;
    let dir = unique_dir("late-poll");
    let mut cfg = CoordinatorConfig::new(&dir, toy_source(CASES));
    cfg.until_drained = true;
    cfg.reap_interval = Duration::from_millis(25);
    // A worker told to retry asks again within `retry_ms`; the late one
    // below holds its request for half that.
    cfg.retry_ms = 1000;
    let cluster = start_cluster(cfg);
    cluster
        .coordinator
        .submit("toy", 1, None, false, false)
        .expect("submit toy campaign");

    // The late worker registers, then holds its next request.
    let mut late = TcpStream::connect(&cluster.addr).expect("late worker connects");
    let hello = Frame::Hello {
        worker: "late".to_owned(),
        protocol: PROTOCOL_VERSION,
    };
    write_frame(&mut late, &hello).unwrap();
    assert!(matches!(
        read_frame(&mut late).unwrap(),
        Frame::Welcome { .. }
    ));

    let report = amsfi_serve::worker::run(worker_config(&cluster.addr, "w0", CASES))
        .expect("the worker that ran the campaign exits cleanly");
    assert_eq!(report.shards_completed, 1);
    assert!(cluster.coordinator.drained());

    // Until the coordinator has made up its mind: a link it severs reads
    // as end of stream at once; one it keeps open stays silent.
    late.set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let mut byte = [0u8; 1];
    let severed = matches!(std::io::Read::read(&mut late, &mut byte), Ok(0));
    late.set_read_timeout(None).unwrap();

    let reply = write_frame(&mut late, &Frame::LeaseRequest).and_then(|()| read_frame(&mut late));
    match reply {
        Ok(Frame::NoWork { drained, .. }) => assert!(drained, "the campaign is complete"),
        other => panic!("late lease request (link severed: {severed}): {other:?}"),
    }
    drop(late);
    cluster.run.join().unwrap().expect("coordinator drains");
    let refused = cluster.coordinator.submit("toy", 1, None, false, false);
    assert!(refused.is_err(), "a closed coordinator took a campaign");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `drain` frame's exit answers a held request as a drained
/// `--until-drained` one does: a registered worker whose next lease
/// request is still on its way when the drain ends the run is answered
/// `no_work drained=1`, not severed — whether the campaign had completed,
/// or that worker's own shard was resharded just before the drain.
#[test]
fn a_lease_request_held_across_a_drain_is_answered_drained() {
    const CASES: usize = 4;
    for resharded in [false, true] {
        let dir = unique_dir("drain-poll");
        let mut cfg = CoordinatorConfig::new(&dir, toy_source(CASES));
        cfg.reap_interval = Duration::from_millis(25);
        cfg.lease_timeout = Duration::from_millis(250);
        cfg.retry_ms = 1000;
        let cluster = start_cluster(cfg);
        cluster
            .coordinator
            .submit("toy", 1, None, false, false)
            .expect("submit toy campaign");

        let mut late = TcpStream::connect(&cluster.addr).expect("late worker connects");
        let hello = Frame::Hello {
            worker: "late".to_owned(),
            protocol: PROTOCOL_VERSION,
        };
        write_frame(&mut late, &hello).unwrap();
        assert!(matches!(
            read_frame(&mut late).unwrap(),
            Frame::Welcome { .. }
        ));
        if resharded {
            // It takes the one shard and falls silent until the reaper
            // hands the shard back.
            write_frame(&mut late, &Frame::LeaseRequest).unwrap();
            assert!(matches!(
                read_frame(&mut late).unwrap(),
                Frame::Lease { .. }
            ));
            let metrics = cluster.coordinator.metrics();
            wait_until("the shard to be resharded", Duration::from_secs(10), || {
                metrics.shards_resharded.get() >= 1
            });
        } else {
            amsfi_serve::worker::run(worker_config(&cluster.addr, "w0", CASES))
                .expect("the worker that ran the campaign exits cleanly");
            assert!(cluster.coordinator.drained());
        }
        cluster.coordinator.request_drain();

        // Until the coordinator has made up its mind: a link it severs reads
        // as end of stream at once; one it keeps open stays silent.
        late.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut byte = [0u8; 1];
        let severed = matches!(std::io::Read::read(&mut late, &mut byte), Ok(0));
        late.set_read_timeout(None).unwrap();

        let reply =
            write_frame(&mut late, &Frame::LeaseRequest).and_then(|()| read_frame(&mut late));
        match reply {
            Ok(Frame::NoWork { drained, .. }) => assert!(drained, "the coordinator drained"),
            other => {
                panic!("lease request (resharded: {resharded}, link severed: {severed}): {other:?}")
            }
        }
        drop(late);
        cluster.run.join().unwrap().expect("coordinator drains");
        std::fs::remove_dir_all(&dir).ok();
    }
}
