//! Campaign definition and the (parallel) injection run engine.
//!
//! A campaign is the paper's "fault injection set-up" plus the run loop:
//! a golden run, then one instrumented run per fault case, each compared
//! against the golden trace and classified. The engine is agnostic to what
//! a "run" is — the caller provides a closure that builds and executes the
//! circuit for a given case — so the same engine drives digital-only,
//! analog-only and mixed-signal campaigns.

use crate::classify::{classify, CaseOutcome, ClassifySpec, FaultClass};
use amsfi_waves::{Time, Trace};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One fault case of a campaign: an opaque index interpreted by the caller's
/// run closure, plus presentation metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCase {
    /// Human-readable target/fault description (appears in reports).
    /// Shared: every result and journal entry of the case holds this one.
    pub label: Arc<str>,
    /// Injection instant, used for latency statistics.
    pub injected_at: Time,
}

impl FaultCase {
    /// Creates a case.
    pub fn new(label: impl Into<Arc<str>>, injected_at: Time) -> Self {
        FaultCase {
            label: label.into(),
            injected_at,
        }
    }
}

impl fmt::Display for FaultCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.label, self.injected_at)
    }
}

/// An error reported by the caller's run closure.
#[derive(Debug)]
pub struct RunError {
    /// Which case failed (`None` for the golden run).
    pub case: Option<usize>,
    /// The underlying error.
    pub source: Box<dyn std::error::Error + Send + Sync>,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.case {
            Some(i) => write!(f, "fault case {i} failed: {}", self.source),
            None => write!(f, "golden run failed: {}", self.source),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.source.as_ref())
    }
}

/// Converts a panic payload (from `catch_unwind`) into a printable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("run closure panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("run closure panicked: {s}")
    } else {
        "run closure panicked (non-string payload)".to_owned()
    }
}

/// The result of one classified fault case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// The case that was injected.
    pub case: FaultCase,
    /// Measurement and verdict.
    pub outcome: CaseOutcome,
}

/// The result of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The golden (fault-free) trace.
    pub golden: Trace,
    /// Per-case results, in case order.
    pub cases: Vec<CaseResult>,
}

impl CampaignResult {
    /// Counts of cases per class, in [`FaultClass::ALL`] order (no-effect,
    /// latent, transient, failure, sim-failure).
    pub fn summary(&self) -> [(FaultClass, usize); FaultClass::ALL.len()] {
        let mut counts = FaultClass::ALL.map(|class| (class, 0));
        for c in &self.cases {
            let idx = FaultClass::ALL
                .iter()
                .position(|&k| k == c.outcome.class)
                .expect("every class is in ALL");
            counts[idx].1 += 1;
        }
        counts
    }

    /// Cases with a given verdict.
    pub fn with_class(&self, class: FaultClass) -> impl Iterator<Item = &CaseResult> {
        self.cases.iter().filter(move |c| c.outcome.class == class)
    }

    /// Appends another result's cases to this one (keeping this golden
    /// trace), e.g. to combine the shards of a distributed campaign.
    ///
    /// The caller is responsible for merge order; for a deterministic merge
    /// of interleaved shards, append in shard order and then restore the
    /// original case order (the `amsfi-engine` journal does this by case
    /// index).
    pub fn merge(&mut self, other: CampaignResult) {
        self.cases.extend(other.cases);
    }

    /// Mean error latency over cases whose outputs diverged.
    pub fn mean_latency(&self) -> Option<Time> {
        let latencies: Vec<Time> = self
            .cases
            .iter()
            .filter_map(|c| c.outcome.latency_from(c.case.injected_at))
            .collect();
        if latencies.is_empty() {
            return None;
        }
        Some(latencies.iter().copied().sum::<Time>() / latencies.len() as i64)
    }
}

/// Runs a campaign sequentially.
///
/// `run` receives `None` for the golden run and `Some(case_index)` for each
/// fault case, and returns the monitored trace of that run.
///
/// # Errors
///
/// Returns the first [`RunError`] reported by `run`.
pub fn run_campaign<F>(
    spec: &ClassifySpec,
    cases: Vec<FaultCase>,
    mut run: F,
) -> Result<CampaignResult, RunError>
where
    F: FnMut(Option<usize>) -> Result<Trace, Box<dyn std::error::Error + Send + Sync>>,
{
    let golden = run(None).map_err(|source| RunError { case: None, source })?;
    let mut results = Vec::with_capacity(cases.len());
    for (i, case) in cases.into_iter().enumerate() {
        let faulty = run(Some(i)).map_err(|source| RunError {
            case: Some(i),
            source,
        })?;
        let outcome = classify(spec, &golden, &faulty);
        results.push(CaseResult { case, outcome });
    }
    Ok(CampaignResult {
        golden,
        cases: results,
    })
}

/// Runs a campaign on `workers` threads (work-stealing over the case list).
///
/// `run` must be callable from multiple threads; each invocation builds and
/// executes a fresh instance of the circuit, which is what makes the paper's
/// "instrument once, inject many" loop embarrassingly parallel.
///
/// # Errors
///
/// Returns the first [`RunError`] reported by `run` (remaining cases still
/// execute, but their results are discarded). A `run` closure that
/// *panics* is caught and surfaced the same way, as a [`RunError`] for that
/// case, so one diverging simulation cannot take down the whole process.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn run_campaign_parallel<F>(
    spec: &ClassifySpec,
    cases: Vec<FaultCase>,
    workers: usize,
    run: F,
) -> Result<CampaignResult, RunError>
where
    F: Fn(Option<usize>) -> Result<Trace, Box<dyn std::error::Error + Send + Sync>> + Sync,
{
    assert!(workers > 0, "need at least one worker");
    let golden = run(None).map_err(|source| RunError { case: None, source })?;
    let n = cases.len();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<CaseOutcome, RunError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let golden_ref = &golden;
    let run_ref = &run;
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let unwound =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_ref(Some(i))));
                let result = match unwound {
                    Ok(Ok(trace)) => Ok(classify(spec, golden_ref, &trace)),
                    Ok(Err(source)) => Err(RunError {
                        case: Some(i),
                        source,
                    }),
                    Err(payload) => Err(RunError {
                        case: Some(i),
                        source: panic_message(payload).into(),
                    }),
                };
                *slots[i].lock().expect("slot poisoned") = Some(result);
            });
        }
    });
    let mut results = Vec::with_capacity(n);
    for (case, slot) in cases.into_iter().zip(slots) {
        let outcome = slot
            .into_inner()
            .expect("slot poisoned")
            .expect("all cases visited")?;
        results.push(CaseResult { case, outcome });
    }
    Ok(CampaignResult {
        golden,
        cases: results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amsfi_waves::Logic;

    fn spec() -> ClassifySpec {
        ClassifySpec::new((Time::ZERO, Time::from_us(1)), vec!["out".to_owned()])
    }

    /// A toy "circuit": case i corrupts the output iff i is odd; case 4
    /// corrupts permanently.
    fn toy_run(case: Option<usize>) -> Result<Trace, Box<dyn std::error::Error + Send + Sync>> {
        let mut t = Trace::new();
        t.record_digital("out", Time::ZERO, Logic::Zero)?;
        match case {
            Some(4) => {
                t.record_digital("out", Time::from_ns(100), Logic::One)?;
            }
            Some(i) if i % 2 == 1 => {
                t.record_digital("out", Time::from_ns(100), Logic::One)?;
                t.record_digital("out", Time::from_ns(200), Logic::Zero)?;
            }
            _ => {}
        }
        Ok(t)
    }

    fn toy_cases(n: usize) -> Vec<FaultCase> {
        (0..n)
            .map(|i| FaultCase::new(format!("bit{i}"), Time::from_ns(50)))
            .collect()
    }

    #[test]
    fn sequential_campaign_classifies_all_cases() {
        let result = run_campaign(&spec(), toy_cases(5), toy_run).unwrap();
        assert_eq!(result.cases.len(), 5);
        let summary = result.summary();
        assert_eq!(summary[0], (FaultClass::NoEffect, 2)); // 0, 2
        assert_eq!(summary[2], (FaultClass::Transient, 2)); // 1, 3
        assert_eq!(summary[3], (FaultClass::Failure, 1)); // 4
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq = run_campaign(&spec(), toy_cases(20), toy_run).unwrap();
        let par = run_campaign_parallel(&spec(), toy_cases(20), 4, toy_run).unwrap();
        assert_eq!(seq.summary(), par.summary());
        for (a, b) in seq.cases.iter().zip(&par.cases) {
            assert_eq!(a.outcome, b.outcome, "case {}", a.case);
        }
    }

    #[test]
    fn latency_statistics() {
        let result = run_campaign(&spec(), toy_cases(5), toy_run).unwrap();
        // Divergence at 100 ns, injected at 50 ns: latency 50 ns.
        assert_eq!(result.mean_latency(), Some(Time::from_ns(50)));
        let failures: Vec<_> = result.with_class(FaultClass::Failure).collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(&*failures[0].case.label, "bit4");
    }

    #[test]
    fn run_error_is_propagated_with_case_index() {
        let err = run_campaign(&spec(), toy_cases(3), |case| {
            if case == Some(1) {
                Err("simulated blow-up".into())
            } else {
                toy_run(case)
            }
        })
        .unwrap_err();
        assert_eq!(err.case, Some(1));
        assert!(err.to_string().contains("case 1"));
    }

    #[test]
    fn worker_panic_is_surfaced_as_run_error() {
        let err = run_campaign_parallel(&spec(), toy_cases(8), 4, |case| {
            if case == Some(3) {
                panic!("simulated diverging solver");
            }
            toy_run(case)
        })
        .unwrap_err();
        assert_eq!(err.case, Some(3));
        assert!(
            err.to_string().contains("simulated diverging solver"),
            "{err}"
        );
    }

    #[test]
    fn merge_appends_cases() {
        let mut a = run_campaign(&spec(), toy_cases(3), toy_run).unwrap();
        let b = run_campaign(&spec(), toy_cases(2), toy_run).unwrap();
        a.merge(b);
        assert_eq!(a.cases.len(), 5);
        // 0..3 then 0..2 again: three no-effect (0, 2, 0), two transient (1, 1).
        assert_eq!(a.summary()[0], (FaultClass::NoEffect, 3));
        assert_eq!(a.summary()[2], (FaultClass::Transient, 2));
    }

    #[test]
    fn empty_campaign_is_fine() {
        let result = run_campaign(&spec(), Vec::new(), toy_run).unwrap();
        assert!(result.cases.is_empty());
        assert_eq!(result.mean_latency(), None);
        assert_eq!(result.summary().iter().map(|c| c.1).sum::<usize>(), 0);
    }

    #[test]
    fn case_display() {
        let c = FaultCase::new("pfd.up", Time::from_us(170));
        assert_eq!(c.to_string(), "pfd.up @ 170 us");
    }
}
