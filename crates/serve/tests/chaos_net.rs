//! Chaos-net: full distributed campaigns driven through the
//! fault-injecting TCP proxy ([`amsfi_serve::ChaosProxy`]). Every fault
//! schedule — latency spikes, connections cut mid-frame or mid-length-
//! prefix, truncated replies, duplicated frames — must converge to a
//! merged report byte-identical to an undisturbed single-process run,
//! with exactly one journal record per case.

mod common;

use amsfi_engine::journal::{self, JournalEntry};
use amsfi_engine::{Engine, EngineConfig};
use amsfi_serve::{
    CampaignSource, ChaosProxy, Coordinator, CoordinatorConfig, FaultPlan, FaultSchedule,
    FrameFault, WorkerConfig,
};
use common::toy_campaign;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CASES: usize = 12;
const SHARDS: usize = 3;

fn toy_source() -> CampaignSource {
    Arc::new(move |name, limit| {
        (name == "toy").then(|| {
            let mut campaign = toy_campaign(CASES, |_| {});
            if let Some(limit) = limit {
                campaign.cases.truncate(limit);
            }
            campaign
        })
    })
}

fn unique_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("amsfi-chaos-test-{}-{tag}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn reference_csv() -> String {
    let report = Engine::new(EngineConfig::default().with_workers(2))
        .run(&toy_campaign(CASES, |_| {}))
        .expect("single-process reference run");
    amsfi_core::report::cases_csv(&report.result)
}

/// Runs one full campaign with the worker connected through a chaos
/// proxy under `schedule`, and returns (final cases.csv, total journal
/// `case` lines, faults actually injected).
fn campaign_through_chaos(tag: &str, schedule: FaultSchedule) -> (String, usize, u64) {
    let dir = unique_dir(tag);
    let mut cfg = CoordinatorConfig::new(&dir, toy_source());
    cfg.until_drained = true;
    // Severed worker links must be reaped quickly so the shard re-leases.
    cfg.lease_timeout = Duration::from_millis(500);
    cfg.reap_interval = Duration::from_millis(25);
    cfg.retry_ms = 20;
    let coordinator = Arc::new(Coordinator::bind("127.0.0.1:0", cfg).expect("bind loopback"));
    let upstream = coordinator.local_addr().unwrap();
    let info = coordinator
        .submit("toy", SHARDS, None, false, false)
        .expect("submit toy campaign");
    let run = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || coordinator.run())
    };

    let mut proxy = ChaosProxy::bind(upstream, schedule).expect("bind chaos proxy");
    let worker = {
        let mut cfg = WorkerConfig::new(proxy.local_addr().to_string(), toy_source());
        cfg.name = format!("chaos-{tag}");
        cfg.threads = 2;
        cfg.poll = Duration::from_millis(20);
        cfg.heartbeat = Duration::from_millis(50);
        cfg.exit_when_done = true;
        cfg.backoff = Duration::from_millis(5);
        cfg.backoff_cap = Duration::from_millis(50);
        cfg.backoff_seed = 7;
        cfg.max_reconnects = Some(50);
        std::thread::spawn(move || amsfi_serve::worker::run(cfg))
    };

    // The coordinator is the arbiter: it exits only once every case is
    // merged. The worker may exit with a link error *after* that (its
    // final poll can race the shutdown), which is fine — the campaign
    // outcome is judged on the journal, not the worker's last gasp.
    run.join().unwrap().expect("coordinator drains");
    let _ = worker.join().unwrap();
    proxy.stop();

    let (meta, entries) = journal::load(&info.journal).expect("merged journal loads");
    assert_eq!(meta.cases, CASES);
    assert_eq!(entries.len(), CASES, "all cases merged");
    assert!(entries.values().all(|e| matches!(e, JournalEntry::Done(_))));
    let (result, _, _) = journal::assemble(entries.values());
    let csv = amsfi_core::report::cases_csv(&result);

    let text = std::fs::read_to_string(&info.journal).unwrap();
    let case_lines = text.lines().filter(|l| l.starts_with("case ")).count();
    let injected = proxy.stats().faults_injected();
    std::fs::remove_dir_all(&dir).ok();
    (csv, case_lines, injected)
}

#[test]
fn clean_proxy_is_transparent() {
    let (csv, case_lines, injected) =
        campaign_through_chaos("clean", Arc::new(|_| FaultPlan::clean()));
    assert_eq!(csv, reference_csv());
    assert_eq!(case_lines, CASES);
    assert_eq!(injected, 0);
}

#[test]
fn latency_spikes_do_not_change_the_report() {
    let schedule: FaultSchedule = Arc::new(|conn| {
        if conn == 0 {
            FaultPlan {
                to_server: vec![FrameFault::Delay {
                    frame: 3,
                    by: Duration::from_millis(120),
                }],
                to_client: vec![FrameFault::Delay {
                    frame: 1,
                    by: Duration::from_millis(80),
                }],
            }
        } else {
            FaultPlan::clean()
        }
    });
    let (csv, case_lines, injected) = campaign_through_chaos("delay", schedule);
    assert_eq!(csv, reference_csv());
    assert_eq!(case_lines, CASES);
    assert!(injected >= 1, "the delay faults must actually fire");
}

#[test]
fn connection_cut_inside_a_length_prefix_converges() {
    // 150 bytes lands mid-record-stream on the first connection — often
    // inside a frame or its length prefix. The worker reconnects and
    // replays; the lease timeout reclaims whatever the coordinator saw.
    let schedule: FaultSchedule = Arc::new(|conn| {
        if conn == 0 {
            FaultPlan {
                to_server: vec![FrameFault::DropAfterBytes { bytes: 150 }],
                to_client: Vec::new(),
            }
        } else {
            FaultPlan::clean()
        }
    });
    let (csv, case_lines, injected) = campaign_through_chaos("drop", schedule);
    assert_eq!(csv, reference_csv());
    assert_eq!(case_lines, CASES, "dedup holds across the replay");
    assert!(injected >= 1, "the cut must actually fire");
}

#[test]
fn truncated_reply_frame_converges() {
    // Tear the coordinator's second reply (typically the first lease)
    // two bytes in: the worker sees a short read and reconnects.
    let schedule: FaultSchedule = Arc::new(|conn| {
        if conn == 0 {
            FaultPlan {
                to_server: Vec::new(),
                to_client: vec![FrameFault::Truncate { frame: 1, keep: 2 }],
            }
        } else {
            FaultPlan::clean()
        }
    });
    let (csv, case_lines, injected) = campaign_through_chaos("truncate", schedule);
    assert_eq!(csv, reference_csv());
    assert_eq!(case_lines, CASES);
    assert!(injected >= 1, "the truncation must actually fire");
}

#[test]
fn duplicated_frames_are_idempotent() {
    // Duplicate an early worker→coordinator frame and an early reply:
    // last-wins merging and the reply-tolerant lease loop absorb both.
    let schedule: FaultSchedule = Arc::new(|conn| {
        if conn == 0 {
            FaultPlan {
                to_server: vec![FrameFault::Duplicate { frame: 2 }],
                to_client: vec![FrameFault::Duplicate { frame: 1 }],
            }
        } else {
            FaultPlan::clean()
        }
    });
    let (csv, case_lines, injected) = campaign_through_chaos("duplicate", schedule);
    assert_eq!(csv, reference_csv());
    assert_eq!(case_lines, CASES, "duplicates must not double-journal");
    assert!(injected >= 1, "the duplication must actually fire");
}

#[test]
fn layered_fault_schedule_converges() {
    // Successive reconnects each hit a different fault before the link
    // is allowed to settle: cut mid-stream, then a torn reply, then a
    // duplicated frame, then clean.
    let schedule: FaultSchedule = Arc::new(|conn| match conn {
        0 => FaultPlan {
            to_server: vec![FrameFault::DropAfterBytes { bytes: 90 }],
            to_client: Vec::new(),
        },
        1 => FaultPlan {
            to_server: Vec::new(),
            to_client: vec![FrameFault::Truncate { frame: 2, keep: 5 }],
        },
        2 => FaultPlan {
            to_server: vec![FrameFault::Duplicate { frame: 1 }],
            to_client: vec![FrameFault::Delay {
                frame: 2,
                by: Duration::from_millis(60),
            }],
        },
        _ => FaultPlan::clean(),
    });
    let (csv, case_lines, injected) = campaign_through_chaos("layered", schedule);
    assert_eq!(csv, reference_csv());
    assert_eq!(case_lines, CASES);
    assert!(injected >= 3, "each layer must actually fire");
}
