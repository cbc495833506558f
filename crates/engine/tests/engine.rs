//! End-to-end engine behaviour: checkpoint/resume after a kill, shard-merge
//! determinism, fail-fast runs leaving a resumable journal, the event
//! stream and metric dumps a run leaves behind, and cases booked unrun
//! because their injection writes only unread state, against a reference
//! runner that simulates every case.

use amsfi_circuits::cpu::{checksum_program, TinyCpu};
use amsfi_core::report;
use amsfi_core::{ClassifySpec, FaultCase};
use amsfi_digital::{cells, ComponentId, InjectTarget, Netlist, Simulator};
use amsfi_engine::{
    campaigns, journal, BoxError, Campaign, CaseCtx, Engine, EngineConfig, EngineError,
    EngineReport, ErrorPolicy, Event, Journal, JournalEntry, Shard, SkippedCase, Telemetry,
};
use amsfi_waves::{ForkableSim, GuardViolation, Logic, SimBudget, SimObserver, Time, Trace};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn unique_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "amsfi-engine-test-{}-{tag}-{n}.journal",
        std::process::id()
    ))
}

/// A deterministic toy campaign over `n` [`TickSim`] cases at 5 ns;
/// `calls` counts case injections so tests can prove the resume path
/// skipped work, and every injection of case `poison` errs before it counts.
/// Classification: index 4 fails, odd indices are transient, the rest clean.
fn toy_campaign(n: usize, calls: Arc<AtomicUsize>, poison: Option<usize>) -> Campaign {
    let t_end = Time::from_ns(40);
    Campaign::forked(
        "toy",
        ClassifySpec::new((Time::ZERO, t_end), vec!["out".to_owned()]),
        (0..n)
            .map(|i| FaultCase::new(format!("bit{i}"), Time::from_ns(5)))
            .collect(),
        t_end,
        |_ctx: &CaseCtx| Ok(TickSim::fresh()),
        move |sim: &mut TickSim, i| {
            if Some(i) == poison {
                return Err("rigged failure".into());
            }
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 4 {
                sim.stuck = true;
            } else if i % 2 == 1 {
                sim.invert_next = true;
            }
            Ok(())
        },
    )
}

/// A tick-per-nanosecond counter for checkpointed campaigns; "out" carries
/// the tick parity. Even case indices stick the output high (failure), odd
/// ones invert one tick (transient).
#[derive(Debug, Clone)]
struct TickSim {
    now: Time,
    ticks: u64,
    stuck: bool,
    invert_next: bool,
    /// Remaining ticks the sparse "flag" signal is held high (`u64::MAX`
    /// holds it forever). Golden keeps it low, so the repeated-value dedup
    /// in the trace makes a raised flag an *observation-free* divergence —
    /// exactly the shape the quiescent seal fires on.
    flag_ticks: u64,
    trace: Trace,
    observer: SimObserver,
    /// Where installed budgets note whether they hold a cancel token.
    budgets: Option<Arc<Mutex<Vec<bool>>>>,
}

impl TickSim {
    fn fresh() -> Self {
        TickSim {
            now: Time::ZERO,
            ticks: 0,
            stuck: false,
            invert_next: false,
            flag_ticks: 0,
            trace: Trace::new(),
            observer: SimObserver::default(),
            budgets: None,
        }
    }
}

impl ForkableSim for TickSim {
    type Error = GuardViolation;

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
            let flag = self.flag_ticks > 0;
            if self.flag_ticks != u64::MAX {
                self.flag_ticks = self.flag_ticks.saturating_sub(1);
            }
            self.trace
                .record_digital("flag", self.now, Logic::from_bool(flag))
                .unwrap();
            self.observer.poll(self.now, &[&self.trace])?;
        }
        self.observer.flush(self.now, &[&self.trace])
    }

    fn current_time(&self) -> Time {
        self.now
    }

    fn snapshot_trace(&self) -> Trace {
        self.trace.clone()
    }

    fn install_budget(&mut self, budget: SimBudget) {
        if let Some(budgets) = &self.budgets {
            budgets.lock().unwrap().push(budget.is_cancellable());
        }
    }

    fn install_observer(&mut self, observer: SimObserver) {
        self.observer = observer;
    }
}

/// A checkpoint-capable toy campaign; `injects` counts fork/inject calls so
/// tests can prove resumed cases were not re-forked.
fn forked_toy_campaign(n: usize, injects: Arc<AtomicUsize>) -> Campaign {
    let t_end = Time::from_ns(60);
    let spec = ClassifySpec::new((Time::ZERO, t_end), vec!["out".to_owned()]);
    let cases = (0..n)
        .map(|i| FaultCase::new(format!("tick{i}"), Time::from_ns(7 + (i as i64 % 4) * 11)))
        .collect();
    Campaign::forked(
        "forked-toy",
        spec,
        cases,
        t_end,
        |_ctx: &CaseCtx| Ok(TickSim::fresh()),
        move |sim: &mut TickSim, i| {
            injects.fetch_add(1, Ordering::Relaxed);
            if i.is_multiple_of(2) {
                sim.stuck = true;
            } else {
                sim.invert_next = true;
            }
            Ok(())
        },
    )
}

/// A checkpointed toy campaign shaped for early-verdict sealing: a 600 ns
/// window monitoring the sparse "flag" signal (settle defaults to the
/// 100 ns merge gap). Even case indices raise the flag forever — an open
/// mismatch with no further observations, sealed `Failure` by the
/// quiescent rule one settle window after injection. Odd indices pulse it
/// for one tick — a closed interval, sealed `Transient` one settle window
/// after it re-converges. Both seal around 200 ns into the 600 ns window.
/// Each budget a run installs notes in `budgets` whether it holds a cancel
/// token.
fn ea_toy_campaign(n: usize, budgets: &Arc<Mutex<Vec<bool>>>) -> Campaign {
    let t_end = Time::from_ns(600);
    let spec = ClassifySpec::new((Time::ZERO, t_end), vec!["flag".to_owned()]);
    let cases = (0..n)
        .map(|i| FaultCase::new(format!("tick{i}"), Time::from_ns(7 + (i as i64 % 4) * 11)))
        .collect();
    Campaign::forked(
        "ea-toy",
        spec,
        cases,
        t_end,
        {
            let budgets = Arc::clone(budgets);
            move |_ctx: &CaseCtx| {
                let budgets = Some(Arc::clone(&budgets));
                Ok(TickSim {
                    budgets,
                    ..TickSim::fresh()
                })
            }
        },
        move |sim: &mut TickSim, i| {
            sim.flag_ticks = if i.is_multiple_of(2) { u64::MAX } else { 1 };
            Ok(())
        },
    )
}

/// PR 5 tentpole end-to-end: an `--early-abort` run seals every toy case
/// well before the window end with verdicts identical to the full run, a
/// killed run journals `sealed_at=`, and `--resume` round-trips it.
#[test]
fn early_abort_kill_and_resume_round_trips_sealed_at() {
    let path = unique_path("ea-resume");
    let campaign = ea_toy_campaign(12, &Arc::default());
    let config = || {
        EngineConfig::default()
            .with_workers(2)
            .with_checkpoint(true)
            .with_early_abort(true)
    };

    // References: the same checkpointed run without early abort seals
    // nothing; the early-abort run seals everything, verdicts unchanged.
    let base = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_checkpoint(true),
    )
    .run(&campaign)
    .unwrap();
    let clean = Engine::new(config()).run(&campaign).unwrap();
    assert_eq!(base.result.cases.len(), clean.result.cases.len());
    for (a, b) in base.result.cases.iter().zip(&clean.result.cases) {
        assert_eq!(a.outcome.class, b.outcome.class, "case {}", a.case);
        assert_eq!(
            a.outcome.error_onset, b.outcome.error_onset,
            "case {}",
            a.case
        );
        assert_eq!(a.outcome.affected, b.outcome.affected, "case {}", a.case);
        assert!(a.outcome.sealed_at.is_none(), "full run must not seal");
        let sealed_at = b.outcome.sealed_at.expect("early-abort case must seal");
        assert!(
            sealed_at < Time::from_ns(600),
            "case {} sealed only at the window end: {sealed_at:?}",
            b.case
        );
    }

    // "Kill" partway: journal only shard 0/2 with early abort on.
    let partial = Engine::new(
        config()
            .with_shard("0/2".parse().unwrap())
            .with_journal(&path),
    )
    .run(&campaign)
    .unwrap();
    assert_eq!(partial.result.cases.len(), 6);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.lines()
            .filter(|l| l.starts_with("case "))
            .all(|l| l.contains(" sealed_at=")),
        "journaled early-abort cases must carry sealed_at:\n{text}"
    );

    // Resume the full list: the journaled half keeps its sealed_at.
    let resumed = Engine::new(config().with_journal(&path).with_resume(true))
        .run(&campaign)
        .unwrap();
    assert_eq!(resumed.resumed, 6);
    assert_eq!(resumed.result.cases.len(), 12);
    for (a, b) in clean.result.cases.iter().zip(&resumed.result.cases) {
        assert_eq!(a.outcome.class, b.outcome.class, "case {}", a.case);
        assert_eq!(
            a.outcome.sealed_at, b.outcome.sealed_at,
            "sealed_at did not survive the journal round-trip for case {}",
            a.case
        );
    }
    std::fs::remove_file(&path).ok();
}

/// A watch retires its run itself: without `--timeout` no budget of an
/// `--early-abort` run holds a cancel token — on the scalar plan or the
/// forked one, golden run included — and under it every one holds the
/// timeout's.
#[test]
fn an_early_abort_budget_holds_a_cancel_token_only_under_a_timeout() {
    for checkpoint in [false, true] {
        for timeout in [None, Some(Duration::from_secs(600))] {
            let budgets = Arc::default();
            let campaign = ea_toy_campaign(4, &budgets);
            let mut config = EngineConfig::default()
                .with_workers(1)
                .with_checkpoint(checkpoint)
                .with_early_abort(true);
            if let Some(timeout) = timeout {
                config = config.with_timeout(timeout);
            }
            let report = Engine::new(config).run(&campaign).unwrap();
            let what = format!("checkpoint {checkpoint}, timeout {timeout:?}");
            assert!(
                report
                    .result
                    .cases
                    .iter()
                    .all(|c| c.outcome.sealed_at.is_some()),
                "{what}: every case seals"
            );
            let budgets = budgets.lock().unwrap();
            assert_eq!(budgets.len(), 5, "{what}: golden and four cases");
            assert!(
                budgets
                    .iter()
                    .all(|&cancellable| cancellable == timeout.is_some()),
                "{what}: {budgets:?}"
            );
        }
    }
}

/// `--early-abort` under a generous `--timeout` books exactly what it books
/// without one — on the scalar plan and both forked benches, at one worker
/// and at three — and no attempt times out or is retried: a retired run is
/// never taken for a cancelled one.
#[test]
fn early_abort_books_the_same_under_a_generous_timeout() {
    let runs = [
        ("cpu", 48, false),
        ("cpu", 48, true),
        ("pll-sweep", 12, true),
    ];
    for (name, limit, checkpoint) in runs {
        let campaign = campaigns::build(name, Some(limit)).expect("catalog campaign");
        for workers in [1, 3] {
            let journal = |timeout: Option<Duration>| {
                let path = unique_path("ea-timeout");
                let mut config = EngineConfig::default()
                    .with_workers(workers)
                    .with_checkpoint(checkpoint)
                    .with_early_abort(true)
                    .with_journal(&path);
                if let Some(timeout) = timeout {
                    config = config.with_timeout(timeout);
                }
                let report = Engine::new(config).run(&campaign).expect("engine run");
                let stats = (report.stats.timeouts, report.stats.retries);
                assert_eq!(
                    stats,
                    (0, 0),
                    "{name}, timeout {timeout:?}: timeouts, retries"
                );
                let text = std::fs::read_to_string(&path).expect("read journal");
                std::fs::remove_file(&path).ok();
                let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
                lines.sort();
                lines
            };
            let plain = journal(None);
            assert!(
                plain.iter().any(|line| line.contains(" sealed_at=")),
                "{name}: some case seals"
            );
            let what = format!("{name}, checkpoint {checkpoint}, {workers} worker(s)");
            assert_eq!(journal(Some(Duration::from_secs(600))), plain, "{what}");
        }
    }
}

/// PR 2 tentpole end-to-end: a checkpointed run can be killed (simulated by
/// journaling only one shard), resumed with `--checkpoint` still on, and the
/// merged result is byte-identical to both an uninterrupted checkpointed run
/// and a plain from-scratch run.
#[test]
fn checkpointed_kill_and_resume_round_trip() {
    let path = unique_path("ckpt-resume");
    let injects = Arc::new(AtomicUsize::new(0));
    let campaign = forked_toy_campaign(12, Arc::clone(&injects));

    // References: an uninterrupted checkpointed run and a scratch run.
    let clean = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_checkpoint(true),
    )
    .run(&campaign)
    .unwrap();
    let scratch = Engine::new(EngineConfig::default().with_workers(2))
        .run(&campaign)
        .unwrap();
    assert_eq!(
        report::cases_csv(&clean.result),
        report::cases_csv(&scratch.result),
        "checkpointed and from-scratch classifications must agree"
    );
    assert_eq!(clean.result.golden, scratch.result.golden);

    // "Kill" partway: journal only shard 0/2, checkpointed.
    injects.store(0, Ordering::Relaxed);
    let partial = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_checkpoint(true)
            .with_shard("0/2".parse().unwrap())
            .with_journal(&path),
    )
    .run(&campaign)
    .unwrap();
    assert_eq!(partial.result.cases.len(), 6);
    assert_eq!(injects.load(Ordering::Relaxed), 6);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.lines()
            .filter(|l| l.starts_with("case "))
            .all(|l| l.contains(" forked=") && !l.contains(" forked=-")),
        "checkpointed case records must carry the fork instant:\n{text}"
    );

    // Resume the full list: only the missing half may fork again.
    injects.store(0, Ordering::Relaxed);
    let resumed = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_checkpoint(true)
            .with_journal(&path)
            .with_resume(true),
    )
    .run(&campaign)
    .unwrap();
    assert_eq!(
        injects.load(Ordering::Relaxed),
        6,
        "completed cases re-forked"
    );
    assert_eq!(resumed.resumed, 6);
    assert_eq!(resumed.result.cases.len(), 12);
    assert_eq!(
        report::cases_csv(&resumed.result),
        report::cases_csv(&clean.result)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn kill_and_resume_round_trip() {
    let path = unique_path("resume");
    let calls = Arc::new(AtomicUsize::new(0));
    let campaign = toy_campaign(12, Arc::clone(&calls), None);

    // Reference: one uninterrupted run, no journal.
    let clean = Engine::new(EngineConfig::default().with_workers(2))
        .run(&campaign)
        .unwrap();

    // "Kill" partway: run only shard 0/2 into the journal, as an
    // interrupted run would have left it.
    calls.store(0, Ordering::Relaxed);
    let partial = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_shard("0/2".parse().unwrap())
            .with_journal(&path),
    )
    .run(&campaign)
    .unwrap();
    assert_eq!(partial.result.cases.len(), 6);
    assert_eq!(calls.load(Ordering::Relaxed), 6);

    // Resume over the full case list: only the missing half may run.
    calls.store(0, Ordering::Relaxed);
    let resumed = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_journal(&path)
            .with_resume(true),
    )
    .run(&campaign)
    .unwrap();
    assert_eq!(calls.load(Ordering::Relaxed), 6, "completed cases re-ran");
    assert_eq!(resumed.resumed, 6);
    assert_eq!(resumed.result.cases.len(), 12);

    // The merged report is indistinguishable from the uninterrupted run.
    assert_eq!(
        report::summary_table(&resumed.result),
        report::summary_table(&clean.result)
    );
    assert_eq!(
        report::cases_csv(&resumed.result),
        report::cases_csv(&clean.result)
    );

    // Rerunning once more is a pure no-op: everything resumes.
    calls.store(0, Ordering::Relaxed);
    let noop = Engine::new(
        EngineConfig::default()
            .with_journal(&path)
            .with_resume(true),
    )
    .run(&campaign)
    .unwrap();
    assert_eq!(calls.load(Ordering::Relaxed), 0);
    assert_eq!(noop.resumed, 12);
    std::fs::remove_file(&path).ok();
}

#[test]
fn shard_journals_merge_into_the_single_shard_result() {
    let calls = Arc::new(AtomicUsize::new(0));
    let campaign = toy_campaign(11, Arc::clone(&calls), None);
    let clean = Engine::new(EngineConfig::default()).run(&campaign).unwrap();

    let paths = [unique_path("shard0"), unique_path("shard1")];
    for (i, path) in paths.iter().enumerate() {
        let shard = Shard::new(i, 2).unwrap();
        Engine::new(EngineConfig::default().with_shard(shard).with_journal(path))
            .run(&campaign)
            .unwrap();
    }

    let (meta, entries) = journal::merge(&paths).unwrap();
    assert_eq!(meta, campaign.meta());
    let (merged, skipped, quarantined) = journal::assemble(entries.values());
    assert!(skipped.is_empty());
    assert!(quarantined.is_empty());
    assert_eq!(
        report::summary_table(&merged),
        report::summary_table(&clean.result),
        "merged shard summary must be byte-identical to the unsharded run"
    );
    assert_eq!(report::cases_csv(&merged), report::cases_csv(&clean.result));
    for path in &paths {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn fail_fast_leaves_a_resumable_journal() {
    let path = unique_path("failfast");
    let healed = Arc::new(AtomicBool::new(false));
    let window = (Time::from_ns(0), Time::from_ns(1000));
    let healed_in = Arc::clone(&healed);
    let campaign = Campaign::forked(
        "flaky",
        ClassifySpec::new(window, vec!["out".to_owned()]),
        (0..8)
            .map(|i| FaultCase::new(format!("bit{i}"), Time::from_ns(100)))
            .collect(),
        window.1,
        |_ctx: &CaseCtx| Ok(TickSim::fresh()),
        move |_sim: &mut TickSim, i| {
            if i == 5 && !healed_in.load(Ordering::Relaxed) {
                return Err("transient infrastructure failure".into());
            }
            Ok(())
        },
    );

    // Sequential fail-fast run: cases 0..=4 are journaled, 5 aborts.
    let err = Engine::new(
        EngineConfig::default()
            .with_workers(1)
            .with_error_policy(ErrorPolicy::FailFast)
            .with_journal(&path),
    )
    .run(&campaign)
    .unwrap_err();
    match err {
        EngineError::Case { index, .. } => assert_eq!(index, 5),
        other => panic!("expected a case failure, got {other}"),
    }
    let (_, entries) = journal::load(&path).unwrap();
    assert_eq!(entries.len(), 5, "completed prefix must be journaled");

    // The flake clears; resuming finishes the remaining three cases.
    healed.store(true, Ordering::Relaxed);
    let resumed = Engine::new(
        EngineConfig::default()
            .with_workers(1)
            .with_error_policy(ErrorPolicy::FailFast)
            .with_journal(&path)
            .with_resume(true),
    )
    .run(&campaign)
    .unwrap();
    assert_eq!(resumed.resumed, 5);
    assert_eq!(resumed.result.cases.len(), 8);
    assert!(resumed.skipped.is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_refuses_a_journal_from_another_campaign() {
    let path = unique_path("foreign");
    let campaign_a = toy_campaign(4, Arc::new(AtomicUsize::new(0)), None);
    Engine::new(EngineConfig::default().with_journal(&path))
        .run(&campaign_a)
        .unwrap();

    let mut campaign_b = toy_campaign(4, Arc::new(AtomicUsize::new(0)), None);
    campaign_b.cases[1].injected_at = Time::from_ns(999);
    let err = Engine::new(
        EngineConfig::default()
            .with_journal(&path)
            .with_resume(true),
    )
    .run(&campaign_b)
    .unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Journal(journal::JournalError::CampaignMismatch { .. })
        ),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}

/// The acceptance scenario end-to-end on a real (truncated) named campaign:
/// the Fig. 8 PLL sweep, sharded two ways with the fast flash-ADC campaign
/// kept out of the hot path by truncating to the paper's four pulse sets.
#[test]
fn named_campaign_shards_and_merges() {
    let limit = Some(4);
    let paths = [unique_path("pll0"), unique_path("pll1")];
    for (i, path) in paths.iter().enumerate() {
        let campaign = campaigns::build("adc-flash", limit).unwrap();
        Engine::new(
            EngineConfig::default()
                .with_shard(Shard::new(i, 2).unwrap())
                .with_journal(path),
        )
        .run(&campaign)
        .unwrap();
    }
    let campaign = campaigns::build("adc-flash", limit).unwrap();
    let clean = Engine::new(EngineConfig::default()).run(&campaign).unwrap();

    let (meta, entries) = journal::merge(&paths).unwrap();
    assert_eq!(meta, campaign.meta());
    let (merged, _, _) = journal::assemble(entries.values());
    assert_eq!(
        report::summary_table(&merged),
        report::summary_table(&clean.result)
    );
    assert_eq!(report::cases_csv(&merged), report::cases_csv(&clean.result));
    for path in &paths {
        std::fs::remove_file(path).ok();
    }
}

/// PR 4 satellite: quarantined cases land in the summary denominator exactly
/// once — both in the run that quarantines them and in every subsequent
/// `--resume` (which never re-runs them, but must still account for them).
#[test]
fn resumed_summary_counts_quarantined_cases_exactly_once() {
    let path = unique_path("quarantine-accounting");
    let calls = Arc::new(AtomicUsize::new(0));
    // Case 2 is poison: every attempt errors deterministically.
    let campaign = toy_campaign(5, Arc::clone(&calls), Some(2));

    let config = EngineConfig::default()
        .with_workers(2)
        .with_journal(&path)
        .with_quarantine(true)
        .with_retries(1);
    let first = Engine::new(config.clone())
        .run(&campaign)
        .expect("first run");
    assert_eq!(first.quarantined.len(), 1);
    assert_eq!(first.stats.total, 5);
    assert_eq!(first.stats.done, 5);
    assert_eq!(first.stats.quarantined, 1);

    // Resume: nothing is left to execute, yet the summary still covers all
    // five cases — four resumed completions plus the prior quarantine.
    calls.store(0, Ordering::Relaxed);
    let resumed = Engine::new(config.with_resume(true))
        .run(&campaign)
        .expect("resumed run");
    assert_eq!(calls.load(Ordering::Relaxed), 0, "resume re-ran a case");
    assert_eq!(resumed.resumed, 4);
    assert_eq!(resumed.quarantined.len(), 1);
    assert_eq!(
        resumed.stats.total, 5,
        "prior quarantine fell out of the summary denominator"
    );
    assert_eq!(resumed.stats.done, 5);
    assert_eq!(resumed.stats.quarantined, 1);
    assert_eq!(resumed.stats.seeded, 5);
    std::fs::remove_file(&path).ok();
}

/// What a run leaves behind for `amsfi report`, `amsfi top` and `ci.sh` to
/// read, on each execution plan: every JSONL record parses, every executed
/// case is accounted for (a `span`/`case`, or a lane of a `span`/`batch`),
/// the stream's `(kind, name)` vocabulary is exactly the expected one, and
/// the Prometheus dumps are line-parseable with the metric families there.
#[test]
fn event_stream_accounts_for_every_case() {
    type Flags = fn(EngineConfig) -> EngineConfig;
    // 520 cases are two groups (504 + 16) for the batch run's one worker.
    // The golden run keeps a snapshot per injection stop for forks (the
    // first six `cpu` cases share one) and per group start for groups.
    let plans: [(&str, Flags, &str, usize, usize); 3] = [
        ("scalar", |cfg| cfg, "cpu", 6, 0),
        ("fork", |cfg| cfg.with_checkpoint(true), "cpu", 6, 1),
        ("batch", |cfg| cfg.with_batch(true), "cpu-set", 520, 2),
    ];
    for (path, flags, name, n, kept) in plans {
        let events_path = unique_path(path).with_extension("jsonl");
        let telemetry = Telemetry::builder()
            .events_path(&events_path)
            .capacity(1 << 16)
            .build()
            .expect("open events stream");
        let campaign = campaigns::build(name, Some(n)).expect("catalog campaign");
        let cfg = EngineConfig::default()
            .with_workers(1)
            .with_max_steps(100_000_000)
            .with_telemetry(telemetry.clone());
        let report = Engine::new(flags(cfg)).run(&campaign).expect("engine run");
        telemetry.close();
        assert_eq!((report.path, report.stats.done), (path, n));

        let text = std::fs::read_to_string(&events_path).expect("read events stream");
        std::fs::remove_file(&events_path).ok();
        let field = |event: &Event, key: &str| -> Option<String> {
            let (_, value) = event.fields.iter().find(|(k, _)| k == key)?;
            Some(value.clone())
        };
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        let mut case_spans: BTreeSet<u64> = BTreeSet::new();
        let mut lanes = 0usize;
        let mut rungs = None;
        for line in text.lines() {
            let event = Event::parse(line)
                .unwrap_or_else(|e| panic!("{path}: malformed event record {line:?}: {e}"));
            match (event.kind.as_str(), event.name.as_str()) {
                ("span", "case") => {
                    assert!(case_spans.insert(event.case.expect("case span without an index")));
                }
                ("span", "batch") => {
                    let keys: Vec<&str> = event.fields.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(keys, ["lanes", "machines", "refills", "from_fs"], "{line}");
                    let group = field(&event, "lanes").expect("batch span without lanes");
                    lanes += group.parse::<usize>().expect("a lane count");
                }
                ("span", "golden") => rungs = field(&event, "snapshots"),
                ("campaign", campaign) if campaign == name => {
                    assert_eq!(field(&event, "path").as_deref(), Some(path));
                }
                _ => {}
            }
            *seen
                .entry(format!("{} {}", event.kind, event.name))
                .or_default() += 1;
        }

        // The run's frame, then the spans of what each plan's runner
        // reports: a scratch case builds and simulates, a fork only
        // simulates, and so does a group, which forks its word machines
        // from the golden run's snapshot at its first instant.
        let groups = n.div_ceil(504);
        let campaign_event = format!("campaign {name}");
        let mut expected = vec![
            (campaign_event.as_str(), 1),
            ("campaign end", 1),
            ("span golden", 1),
            ("worker start", 1),
            ("worker exit", 1),
        ];
        expected.extend(match path {
            "scalar" => vec![
                ("span golden/build", 1),
                ("span golden/simulate", 1),
                ("span case", n),
                ("span case/build", n),
                ("span case/simulate", n),
            ],
            "fork" => vec![
                ("span golden/build", 1),
                ("span golden/simulate", 1),
                ("span case", n),
                ("span case/simulate", n),
            ],
            _ => vec![
                ("span golden/build", 1),
                ("span golden/simulate", 1 + groups),
                ("span batch", groups),
            ],
        });
        let expected: BTreeMap<String, usize> = expected
            .into_iter()
            .map(|(event, count)| (event.to_owned(), count))
            .collect();
        assert_eq!(seen, expected, "{path}: (kind, name) multiset");
        if path == "batch" {
            assert_eq!((case_spans.len(), lanes), (0, n));
        } else {
            assert!(case_spans.into_iter().eq(0..n as u64), "{path}: case spans");
        }

        // Every fork and every group finds its rung in the one ladder.
        let metrics = telemetry.metrics().expect("enabled telemetry has metrics");
        assert_eq!(rungs, Some(kept.to_string()), "{path}");
        let forks = if path == "fork" { n } else { kept };
        let lookups = (metrics.snapshot_hits.get(), metrics.snapshot_misses.get());
        assert_eq!(lookups, (forks as u64, 0), "{path}");
        let dump = format!("{}{}", report.stats.prometheus(), metrics.to_prometheus());
        // A sample line is `name[{labels}] value`.
        for line in dump.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("a metric value");
            let name = name.split('{').next().unwrap_or(name);
            let is_name = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
            assert!(!name.is_empty() && name.chars().all(is_name), "{line:?}");
            assert!(value.parse::<f64>().is_ok(), "{line:?}");
        }
        for family in [
            "amsfi_solver_steps_total",
            "amsfi_guard_trips_total",
            "amsfi_stage_latency_microseconds",
            "amsfi_case_latency_microseconds",
            "amsfi_proposed_dt_femtoseconds",
            "amsfi_snapshot_cache_total",
            "amsfi_budget_steps_used",
        ] {
            assert!(
                dump.contains(family),
                "{path}: metrics dump missing {family}"
            );
        }
    }
}

/// The report `Engine::run` builds by moving its entries agrees with
/// `journal::assemble` over the matching slice of one from-scratch run's
/// journal: after resuming a journal that holds completed, quarantined and
/// skipped records (the skipped case re-runs and its fresh result wins), on
/// one shard of three, and with cases handed in as completed elsewhere.
#[test]
fn report_assembly_matches_the_journal_on_resume_shard_and_completed() {
    let calls = Arc::new(AtomicUsize::new(0));
    // Case 2 is poison: every attempt errors deterministically.
    let campaign = toy_campaign(12, Arc::clone(&calls), Some(2));
    let config = || {
        EngineConfig::default()
            .with_workers(2)
            .with_quarantine(true)
    };

    let scratch_path = unique_path("assembly-scratch");
    let scratch = Engine::new(config().with_journal(&scratch_path))
        .run(&campaign)
        .unwrap();
    let (_, scratch_entries) = journal::load(&scratch_path).unwrap();
    assert_eq!(scratch.quarantined.len(), 1);
    let check = |what: &str, report: &EngineReport, keep: &dyn Fn(usize) -> bool| {
        let entries: BTreeMap<usize, JournalEntry> = scratch_entries
            .iter()
            .filter(|(&index, _)| keep(index))
            .map(|(&index, entry)| (index, entry.clone()))
            .collect();
        let (result, skipped, quarantined) = journal::assemble(entries.values());
        assert_eq!(
            report::cases_csv(&report.result),
            report::cases_csv(&result),
            "{what}"
        );
        assert_eq!(report.skipped, skipped, "{what}");
        assert_eq!(report.quarantined, quarantined, "{what}");
    };
    check("from scratch", &scratch, &|_| true);

    // What a killed run leaves: cases 0..6 settled (2 in quarantine) and
    // case 7 skipped after a transient error.
    let path = unique_path("assembly-resume");
    let (killed, _) = Journal::open(&path, &campaign.meta(), false).unwrap();
    for (&index, entry) in scratch_entries.range(..6) {
        match entry {
            JournalEntry::Done(result) => killed
                .append_line(&journal::case_line(index, result, None))
                .unwrap(),
            JournalEntry::Quarantined(q) => {
                killed.append_line(&journal::quarantine_line(q)).unwrap()
            }
            JournalEntry::Skipped(_) => unreachable!("the reference skips nothing"),
        }
    }
    killed
        .append_line(&journal::skip_line(&SkippedCase {
            index: 7,
            case: campaign.cases[7].clone(),
            attempts: 1,
            error: "transient".to_owned(),
        }))
        .unwrap();
    drop(killed);
    calls.store(0, Ordering::Relaxed);
    let resumed = Engine::new(config().with_journal(&path).with_resume(true))
        .run(&campaign)
        .unwrap();
    assert_eq!(resumed.resumed, 5);
    assert_eq!(calls.load(Ordering::Relaxed), 6, "cases 6..12 ran, 7 again");
    check("resumed", &resumed, &|_| true);
    // And the journal the resumed run completed assembles to the same.
    let (_, entries) = journal::load(&path).unwrap();
    let (result, skipped, quarantined) = journal::assemble(entries.values());
    assert_eq!(
        report::cases_csv(&result),
        report::cases_csv(&resumed.result)
    );
    assert_eq!(
        (skipped, quarantined),
        (resumed.skipped, resumed.quarantined)
    );

    let shard = Shard::new(1, 3).unwrap();
    let owned: BTreeSet<usize> = shard.case_indices(12).collect();
    let sharded = Engine::new(config().with_shard(shard))
        .run(&campaign)
        .unwrap();
    check("shard 1/3", &sharded, &|index| owned.contains(&index));

    let completed = [0, 5, 7, 11];
    let rest = Engine::new(config().with_completed(completed.to_vec()))
        .run(&campaign)
        .unwrap();
    check("with_completed", &rest, &|index| {
        !completed.contains(&index)
    });

    std::fs::remove_file(&scratch_path).ok();
    std::fs::remove_file(&path).ok();
}

/// The `cpu` catalog campaign's bench: a 100 MHz clock, reset tied low and
/// the processor running its checksum program, `out` monitored. Built here
/// rather than taken from the catalog, for a reference runner that shares
/// no code with the engine's.
fn cpu_bench() -> Simulator {
    let mut net = Netlist::new();
    let clk = net.signal("clk", 1);
    let rst = net.signal("rst", 1);
    let out = net.signal("out", 8);
    let pc = net.signal("pc", 6);
    net.add("ck", cells::ClockGen::new(Time::from_ns(10)), &[], &[clk]);
    net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
    let cpu = TinyCpu::new(checksum_program(), Time::ZERO);
    net.add("cpu", cpu, &[clk, rst], &[out, pc]);
    let mut sim = Simulator::new(net);
    sim.monitor_name("out");
    sim
}

/// The `cpu` campaign's horizon.
const CPU_T_END: Time = Time::from_us(20);

#[test]
fn every_plan_books_what_the_reference_runner_simulates() {
    // `amsfi_core::run_campaign` simulates every case to the horizon: case
    // `i` flips target `i % 143` at its instant. The engine stops the 88
    // flips of a RAM word no instruction loads at their injection on the
    // scalar and fork plans, and seals them on the batch plan.
    let campaign = campaigns::build("cpu", None).expect("cpu is in the catalog");
    let targets = cpu_bench().mutant_targets();
    let reference = amsfi_core::run_campaign(&campaign.spec, campaign.cases.clone(), |index| {
        let mut sim = cpu_bench();
        if let Some(i) = index {
            sim.run_until(campaign.cases[i].injected_at)?;
            let target = &targets[i % targets.len()];
            sim.flip_state(target.component, target.bit);
        }
        sim.run_until(CPU_T_END)?;
        Ok(sim.into_trace())
    })
    .expect("the reference run completes");
    let reference = report::cases_csv(&reference);

    let unread = campaign.cases.len() / targets.len() * 88;
    type Flags = fn(EngineConfig) -> EngineConfig;
    let plans: [(&str, Flags, usize); 3] = [
        ("scalar", |cfg| cfg, unread),
        ("fork", |cfg| cfg.with_checkpoint(true), unread),
        ("batch", |cfg| cfg.with_batch(true), 0),
    ];
    for (path, flags, inert) in plans {
        let config = flags(EngineConfig::default().with_workers(2));
        let run = Engine::new(config).run(&campaign).expect("engine run");
        assert_eq!((run.path, run.stats.inert), (path, inert));
        assert_eq!(report::cases_csv(&run.result), reference, "{path}");
    }
}

#[test]
fn only_a_flip_of_an_unread_bit_stops_a_case_at_its_injection() {
    // Each row's cases inject into the cpu bench at 2.5 us, one inject per
    // case; the engine dry-runs each on a probe first and books the inert
    // ones unrun. Only a flip of a bit nothing reads leaves a case inert:
    // every other write counts, even one that changes no value. (No row
    // for `Simulator::inject_value`: `InjectTarget` has no such call.)
    type Inject = fn(&mut dyn InjectTarget) -> Result<(), BoxError>;
    fn cpu(sim: &dyn InjectTarget) -> ComponentId {
        sim.component_id("cpu").expect("the bench has a cpu")
    }
    /// Flips `ram[15][0]`: the checksum program loads words 0..=4 only.
    fn unread(sim: &mut dyn InjectTarget) -> Result<(), BoxError> {
        sim.flip_state(cpu(sim), 15 + 15 * 8);
        Ok(())
    }
    /// Swaps in a processor whose every bit is read: on the probe, only
    /// its throwaway copy of the pristine cell.
    fn delayed(sim: &mut dyn InjectTarget) -> Result<(), BoxError> {
        let cell = sim.component_mut(cpu(sim)).as_any_mut();
        *cell.downcast_mut::<TinyCpu>().ok_or("not the cpu")? =
            TinyCpu::new(checksum_program(), Time::from_ns(3));
        Ok(())
    }
    let rows: [(&str, Vec<Inject>, usize); 9] = [
        ("flip of an unread bit", vec![unread], 1),
        (
            "flip of a read bit",
            vec![|sim| {
                sim.flip_state(cpu(sim), 0);
                Ok(())
            }],
            0,
        ),
        (
            "force_state",
            vec![|sim| {
                sim.force_state(cpu(sim), 0);
                Ok(())
            }],
            0,
        ),
        (
            "component_mut",
            vec![|sim| {
                let _ = sim.component_mut(cpu(sim));
                Ok(())
            }],
            0,
        ),
        (
            "wake_component",
            vec![|sim| {
                sim.wake_component(cpu(sim), Time::from_ns(2_500));
                Ok(())
            }],
            0,
        ),
        (
            "set_budget",
            vec![|sim| {
                sim.set_budget(SimBudget::unlimited());
                Ok(())
            }],
            0,
        ),
        (
            "flip of an unread bit, then a wake",
            vec![|sim| {
                unread(sim)?;
                sim.wake_component(cpu(sim), Time::from_ns(2_500));
                Ok(())
            }],
            0,
        ),
        // The run errs as the probe did, and the case is skipped.
        (
            "an inject that errs",
            vec![|sim| {
                let cell = sim.component_id("nope").ok_or("no such cell")?;
                sim.flip_state(cell, 0);
                Ok(())
            }],
            0,
        ),
        // The first case's write leaves the pristine cell as it was.
        (
            "component_mut, then an unread bit",
            vec![delayed, unread],
            1,
        ),
    ];
    let outputs = (0..8).map(|i| format!("out[{i}]")).collect();
    let spec = ClassifySpec::new((Time::from_us(2), CPU_T_END), outputs);
    for (what, injects, inert) in rows {
        let cases = (0..injects.len())
            .map(|i| FaultCase::new(format!("{what} {i}"), Time::from_ns(2_500)))
            .collect();
        let campaign = Campaign::forked_batch(
            "mutations",
            spec.clone(),
            cases,
            CPU_T_END,
            |_: &CaseCtx| Ok(cpu_bench()),
            move |sim: &mut dyn InjectTarget, i| injects[i](sim),
        );
        for checkpoint in [false, true] {
            let path = unique_path("mutations");
            let config = EngineConfig::default()
                .with_workers(1)
                .with_checkpoint(checkpoint)
                .with_journal(&path);
            let run = Engine::new(config).run(&campaign).expect("engine run");
            let leg = format!("{what}, checkpoint {checkpoint}");
            assert_eq!(run.stats.inert, inert, "{leg}");
            let errs = what == "an inject that errs";
            assert_eq!(run.skipped.len(), usize::from(errs), "{leg}");
            if errs {
                assert!(run.skipped[0].error.contains("no such cell"), "{leg}");
            }
            // An inert fork is booked from its rung's instant, as one that
            // ran would be.
            let forked = if checkpoint { "2500000000" } else { "-" };
            let text = std::fs::read_to_string(&path).expect("read journal");
            std::fs::remove_file(&path).ok();
            let done: Vec<&str> = text.lines().filter(|l| l.starts_with("case ")).collect();
            assert_eq!(
                done.len(),
                campaign.cases.len() - usize::from(errs),
                "{leg}"
            );
            for line in done {
                assert!(
                    line.contains(&format!(" forked={forked} ")),
                    "{leg}: {line}"
                );
            }
        }
    }
}

#[test]
fn a_capped_or_watched_case_runs_in_full() {
    // Under a step cap the injection's wake is a step a full run takes, so
    // the case may trip the cap; under `--early-abort` the watch books the
    // verdict it seals. Neither takes the shortcut, and the capped run
    // books what the uncapped one does.
    let campaign = campaigns::build("cpu", Some(143)).expect("cpu is in the catalog");
    let plain = Engine::new(EngineConfig::default()).run(&campaign).unwrap();
    assert_eq!(plain.stats.inert, 88);
    let configs = [
        ("capped", EngineConfig::default().with_max_steps(u64::MAX)),
        (
            "capped fork",
            EngineConfig::default()
                .with_max_steps(u64::MAX)
                .with_checkpoint(true),
        ),
        ("watched", EngineConfig::default().with_early_abort(true)),
    ];
    for (what, config) in configs {
        let run = Engine::new(config).run(&campaign).unwrap();
        assert_eq!(run.stats.inert, 0, "{what}");
        if what != "watched" {
            let csv = report::cases_csv(&run.result);
            assert_eq!(csv, report::cases_csv(&plain.result), "{what}");
        }
    }
}
