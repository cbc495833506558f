//! Chaos harness: every way a campaign can go wrong must land in a
//! classified sim-failure, a quarantine record, or a clean recovery —
//! never in campaign death.
//!
//! The saboteurs here are deliberately pathological: a square current
//! pulse with no edges (the trapezoid constructor rejects zero rise/fall
//! times) at amplitudes up to 1e307 A, runners that panic mid-campaign,
//! and journals whose final record was torn by a kill.

use amsfi_bench::SquarePulse;
use amsfi_circuits::pll::{self, names, PllConfig};
use amsfi_core::{ClassifySpec, FaultCase, FaultClass};
use amsfi_engine::{Campaign, CaseCtx, Engine, EngineConfig, ErrorPolicy};
use amsfi_waves::{
    ForkableSim, GuardViolation, Logic, SimBudget, SimObserver, Time, Tolerance, Trace,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const T_END: Time = Time::from_us(3);
const T_INJECT: Time = Time::from_us(1);

/// A small fast-PLL strike campaign where `poison` indices get a diverging
/// square pulse (1e300 A overflows the loop filter on the first
/// integration step) and the rest a benign 10 mA strike.
fn pll_chaos_campaign(n: usize, poison: &'static [usize]) -> Campaign {
    let cases = (0..n)
        .map(|i| {
            let kind = if poison.contains(&i) { "poison" } else { "ok" };
            FaultCase::new(format!("icp {kind} #{i}"), T_INJECT)
        })
        .collect();
    let spec = ClassifySpec::new((Time::from_ns(500), T_END), vec![names::F_OUT.to_owned()])
        .with_internals(vec![names::VCTRL.to_owned()])
        .with_tolerance(Tolerance::new(0.05, 0.01))
        .with_digital_skew(Time::from_ns(2));
    Campaign::forked(
        "pll-chaos",
        spec,
        cases,
        T_END,
        |_ctx: &CaseCtx| {
            let mut bench = pll::build(&PllConfig::fast());
            bench.monitor_standard();
            Ok(bench)
        },
        move |bench: &mut pll::PllBench, i| {
            let amplitude = if poison.contains(&i) { 1e300 } else { 10e-3 };
            bench.arm_saboteur(
                Arc::new(SquarePulse {
                    amplitude,
                    width: Time::from_ns(5),
                }),
                T_INJECT,
            );
            Ok(())
        },
    )
}

/// A tick-per-nanosecond sim whose monitored "flag" signal follows a fault
/// program in tick numbers: high over `[pulse_from, pulse_to)`, then high
/// again forever from `relapse_at`. Golden (no program) keeps it low.
#[derive(Debug, Clone)]
struct RelapseSim {
    now: Time,
    ticks: u64,
    fault: Option<(u64, u64, u64)>,
    trace: Trace,
    observer: SimObserver,
}

impl RelapseSim {
    fn fresh() -> Self {
        RelapseSim {
            now: Time::ZERO,
            ticks: 0,
            fault: None,
            trace: Trace::new(),
            observer: SimObserver::default(),
        }
    }
}

impl ForkableSim for RelapseSim {
    type Error = GuardViolation;

    fn advance_to(&mut self, t: Time) -> Result<(), Self::Error> {
        while self.now + Time::from_ns(1) <= t {
            self.now += Time::from_ns(1);
            self.ticks += 1;
            let flag = match self.fault {
                Some((a, b, c)) => (self.ticks >= a && self.ticks < b) || self.ticks >= c,
                None => false,
            };
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

    fn install_observer(&mut self, observer: SimObserver) {
        self.observer = observer;
    }
}

/// A cheap [`RelapseSim`] campaign for the journal chaos tests: no case
/// touches the flag, and `on_inject(i)` runs as case `i` is armed.
fn toy_campaign(
    name: &str,
    n: usize,
    on_inject: impl Fn(usize) + Send + Sync + 'static,
) -> Campaign {
    let t_end = Time::from_ns(1000);
    let spec = ClassifySpec::new((Time::ZERO, t_end), vec!["flag".to_owned()]);
    let cases = (0..n)
        .map(|i| FaultCase::new(format!("case{i}"), Time::from_ns(100)))
        .collect();
    Campaign::forked(
        name,
        spec,
        cases,
        t_end,
        |_ctx: &CaseCtx| Ok(RelapseSim::fresh()),
        move |_sim: &mut RelapseSim, i| {
            on_inject(i);
            Ok(())
        },
    )
}

/// The early-abort chaos campaign: case 0 pulses the flag for 10 ticks and
/// relapses permanently 80 ticks after re-converging — *inside* the 100 ns
/// settle window, so a correct quiescent seal must wait it out and land on
/// `Failure`, never on a premature `Transient`. Case 1 is the control: the
/// same pulse with no relapse, a genuine `Transient`.
fn relapse_campaign() -> Campaign {
    let t_end = Time::from_ns(2000);
    let spec = ClassifySpec::new((Time::ZERO, t_end), vec!["flag".to_owned()]);
    let cases = vec![
        FaultCase::new("relapse", Time::from_ns(400)),
        FaultCase::new("pulse-only", Time::from_ns(400)),
    ];
    Campaign::forked(
        "chaos-relapse",
        spec,
        cases,
        t_end,
        |_ctx: &CaseCtx| Ok(RelapseSim::fresh()),
        move |sim: &mut RelapseSim, i| {
            sim.fault = Some(if i == 0 {
                (401, 411, 491)
            } else {
                (401, 411, u64::MAX)
            });
            Ok(())
        },
    )
}

/// A fault that diverges again after apparent re-convergence must not be
/// mis-sealed: the quiescence clock restarts on every comparison-state
/// change, so a relapse inside the settle window always reaches the
/// classifier before a `Transient` verdict could seal.
#[test]
fn relapse_within_settle_window_is_never_mis_sealed() {
    let campaign = relapse_campaign();
    let plain = Engine::new(EngineConfig::default().with_workers(2))
        .run(&campaign)
        .unwrap();
    let early = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_early_abort(true),
    )
    .run(&campaign)
    .unwrap();
    assert_eq!(plain.result.cases[0].outcome.class, FaultClass::Failure);
    assert_eq!(plain.result.cases[1].outcome.class, FaultClass::Transient);
    for (a, b) in plain.result.cases.iter().zip(&early.result.cases) {
        assert_eq!(a.outcome.class, b.outcome.class, "case {}", a.case);
        assert_eq!(
            a.outcome.error_onset, b.outcome.error_onset,
            "case {}",
            a.case
        );
        assert_eq!(a.outcome.affected, b.outcome.affected, "case {}", a.case);
    }
    for case in &early.result.cases {
        let sealed_at = case.outcome.sealed_at.expect("early-abort case must seal");
        assert!(
            sealed_at < Time::from_ns(2000),
            "case {} sealed only at the window end: {sealed_at:?}",
            case.case
        );
    }
}

fn temp_journal(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("amsfi-chaos-{tag}-{}.journal", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

/// Replaces the journal's final record with what a kill mid-write leaves of
/// it: a partial line (with stray non-UTF-8 bytes for good measure). The
/// record is lost, not merely followed by garbage.
fn tear_last_record(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let ends: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
    bytes.truncate(ends[ends.len() - 2] + 1);
    bytes.extend_from_slice(b"case 5 at=10000000 cla\xFF\xFE");
    std::fs::write(path, &bytes).unwrap();
}

#[test]
fn forced_divergence_is_classified_not_fatal() {
    let campaign = pll_chaos_campaign(4, &[1]);
    let report = Engine::new(
        EngineConfig::default()
            .with_workers(2)
            .with_max_steps(200_000),
    )
    .run(&campaign)
    .unwrap();
    assert!(report.skipped.is_empty());
    assert!(report.quarantined.is_empty());
    assert_eq!(report.result.cases.len(), 4);
    let poisoned = &report.result.cases[1];
    assert_eq!(poisoned.outcome.class, FaultClass::SimFailure);
    match &poisoned.outcome.failure {
        Some(GuardViolation::NonFinite { signal, .. }) => assert_eq!(signal, names::VCTRL),
        other => panic!("expected a non-finite guard trip, got {other:?}"),
    }
    for (i, case) in report.result.cases.iter().enumerate() {
        if i != 1 {
            assert_ne!(case.outcome.class, FaultClass::SimFailure, "case {i}");
        }
    }
}

#[test]
fn divergence_in_checkpoint_mode_matches_from_scratch() {
    let campaign = pll_chaos_campaign(3, &[0]);
    let config = EngineConfig::default()
        .with_workers(2)
        .with_max_steps(200_000);
    let scratch = Engine::new(config.clone()).run(&campaign).unwrap();
    let forked = Engine::new(config.with_checkpoint(true))
        .run(&campaign)
        .unwrap();
    assert_eq!(scratch.result.cases.len(), forked.result.cases.len());
    for (i, (a, b)) in scratch
        .result
        .cases
        .iter()
        .zip(&forked.result.cases)
        .enumerate()
    {
        assert_eq!(a.outcome.class, b.outcome.class, "case {i}");
    }
}

#[test]
fn mid_campaign_panic_is_quarantined_and_never_rerun() {
    let attempts = Arc::new(AtomicU32::new(0));
    let campaign = {
        let attempts = Arc::clone(&attempts);
        toy_campaign("chaos-panic", 5, move |i| {
            if i == 3 {
                attempts.fetch_add(1, Ordering::SeqCst);
                panic!("solver exploded mid-campaign");
            }
        })
    };
    let path = temp_journal("panic");
    // One worker: the journal ends with case 4, not with the quarantine.
    let config = EngineConfig::default()
        .with_workers(1)
        .with_retries(1)
        .with_backoff(std::time::Duration::from_millis(1))
        .with_error_policy(ErrorPolicy::SkipAndRecord)
        .with_quarantine(true)
        .with_journal(&path);

    let report = Engine::new(config.clone()).run(&campaign).unwrap();
    assert_eq!(report.result.cases.len(), 4);
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].index, 3);
    assert!(report.quarantined[0].reason.contains("panicked"));
    assert_eq!(attempts.load(Ordering::SeqCst), 2); // first try + one retry

    // Resume from a torn tail: the case whose record was destroyed re-runs,
    // the quarantine record before it survives and the poison case does not.
    tear_last_record(&path);
    let resumed = Engine::new(config.with_resume(true))
        .run(&campaign)
        .unwrap();
    assert_eq!(attempts.load(Ordering::SeqCst), 2, "poison case re-ran");
    assert_eq!(resumed.quarantined.len(), 1);
    assert_eq!(resumed.resumed, 3);
    assert_eq!(resumed.result.cases.len(), 4);
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_journal_tail_recovers_on_resume() {
    let campaign = toy_campaign("chaos-torn", 6, |_| {});
    let path = temp_journal("torn");
    let config = EngineConfig::default().with_workers(1).with_journal(&path);
    Engine::new(config.clone()).run(&campaign).unwrap();

    // Resume must absorb the torn tail, take exactly the intact records
    // from the journal and re-run only the case whose record was destroyed.
    tear_last_record(&path);
    let resumed = Engine::new(config.with_resume(true))
        .run(&campaign)
        .unwrap();
    assert_eq!(resumed.resumed, 5);
    assert_eq!(resumed.stats.done - resumed.stats.seeded, 1);
    assert_eq!(resumed.result.cases.len(), 6);
    assert!(resumed.skipped.is_empty());
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any strike violent enough to diverge trips a guard — non-finite
    /// detection or, failing that, the step budget — well before consuming
    /// twice the configured step budget.
    #[test]
    fn forced_divergence_always_trips_a_guard(exp in 300i32..308) {
        const MAX_STEPS: u64 = 50_000;
        let mut bench = pll::build(&PllConfig::fast());
        bench.monitor_standard();
        bench.set_budget(SimBudget::unlimited().with_max_steps(MAX_STEPS));
        bench.arm_saboteur(
            Arc::new(SquarePulse {
                amplitude: 10f64.powi(exp),
                width: Time::from_ns(5),
            }),
            T_INJECT,
        );
        let err = bench.run_until(T_END);
        prop_assert!(err.is_err(), "a 1e{} A strike simulated to completion", exp);
        match err.unwrap_err() {
            amsfi_digital::SimError::Guard(
                GuardViolation::NonFinite { .. } | GuardViolation::StepBudgetExhausted { .. },
            ) => {}
            other => return Err(TestCaseError::fail(format!("unexpected error: {other}"))),
        }
        let used = bench.mixed.budget().steps_used();
        prop_assert!(used < 2 * MAX_STEPS, "guard tripped only after {} steps", used);
    }
}
