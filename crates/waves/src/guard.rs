//! Cooperative simulation budgets and numerical guards.
//!
//! At campaign scale some faulty cases drive a behavioural kernel into
//! numerical divergence (non-finite node values), timestep collapse (an
//! adaptive step shrinking without bound) or plain runaway (an event loop
//! that never converges). A [`SimBudget`] is the contract between the
//! campaign engine and a simulation kernel that bounds all of these: the
//! kernel calls the cheap check methods inside its `advance_to` loop and
//! surfaces a structured [`GuardViolation`] instead of hanging, spinning or
//! emitting NaNs into the trace.
//!
//! The wall-clock half is a [`CancelToken`]: a shared flag plus an optional
//! deadline. The engine hands the token to the attempt it spawns; when the
//! timeout fires it cancels the token and the attempt *returns* — no
//! abandoned thread keeps burning a core. Whether the deadline passes or the
//! token is cancelled, the kernel reports a [`GuardViolation::Deadline`].
//!
//! [`GuardViolation`] is also the campaign's failure taxonomy: a case whose
//! kernel tripped a guard is booked as a `sim-failure` verdict carrying it,
//! and its [`Display`](fmt::Display) form, which round-trips through
//! [`FromStr`] (times as raw femtosecond integers), is the text the
//! campaign journal stores.
//!
//! All checks are designed to sit on a hot simulation loop: a step check is
//! an integer compare plus a relaxed atomic load, and the wall clock is only
//! probed every [`CLOCK_STRIDE`] steps.
//!
//! # Examples
//!
//! ```
//! use amsfi_waves::{GuardViolation, SimBudget, Time};
//!
//! let mut budget = SimBudget::unlimited().with_max_steps(2);
//! assert!(budget.note_step(Time::ZERO).is_ok());
//! assert!(budget.note_step(Time::ZERO).is_ok());
//! let err = budget.note_step(Time::from_ns(3)).unwrap_err();
//! assert!(matches!(err, GuardViolation::StepBudgetExhausted { .. }));
//! ```

use crate::Time;
use amsfi_telemetry::KernelMetrics;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many steps elapse between wall-clock probes of a budget's
/// [`CancelToken`] deadline. The cancellation *flag* is checked every step
/// (a relaxed atomic load); only the `Instant::now()` syscall is strided.
pub const CLOCK_STRIDE: u32 = 64;

/// A structured reason a guarded simulation was stopped: why a case failed
/// to *simulate*, as opposed to simulating a faulty behaviour.
///
/// Every variant carries the simulation time `t` at which the guard fired,
/// so a campaign report can say *where* in the transient a case went bad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardViolation {
    /// A node or signal took a NaN or infinite value.
    NonFinite {
        /// Name of the offending node or signal.
        signal: String,
        /// Simulation time of the first non-finite sample.
        t: Time,
    },
    /// The step budget ran out before the horizon was reached.
    StepBudgetExhausted {
        /// Steps consumed when the budget tripped.
        steps: u64,
        /// Simulation time when the budget tripped.
        t: Time,
    },
    /// The adaptive timestep collapsed below the configured floor.
    TimestepCollapse {
        /// The offending proposed step.
        dt: Time,
        /// The configured floor.
        min_dt: Time,
        /// Simulation time of the collapse.
        t: Time,
    },
    /// The attempt's wall-clock deadline expired, or its owner cancelled
    /// its [`CancelToken`].
    Deadline {
        /// Simulation time reached when the deadline or cancellation was
        /// observed.
        t: Time,
    },
    /// A [`SimObserver`](crate::SimObserver) hook retired the run.
    Retired {
        /// The watermark of the poll whose hook retired the run.
        t: Time,
    },
}

impl fmt::Display for GuardViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardViolation::NonFinite { signal, t } => {
                write!(f, "non-finite signal={signal} t={}", t.as_fs())
            }
            GuardViolation::StepBudgetExhausted { steps, t } => {
                write!(f, "step-budget-exhausted steps={steps} t={}", t.as_fs())
            }
            GuardViolation::TimestepCollapse { dt, min_dt, t } => write!(
                f,
                "timestep-collapse dt={} min={} t={}",
                dt.as_fs(),
                min_dt.as_fs(),
                t.as_fs()
            ),
            GuardViolation::Deadline { t } => write!(f, "deadline t={}", t.as_fs()),
            GuardViolation::Retired { t } => write!(f, "retired t={}", t.as_fs()),
        }
    }
}

impl std::error::Error for GuardViolation {}

/// Error parsing a [`GuardViolation`] from its display form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGuardViolationError(String);

impl fmt::Display for ParseGuardViolationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unparseable guard violation {:?}", self.0)
    }
}

impl std::error::Error for ParseGuardViolationError {}

fn parse_fs(s: &str) -> Option<Time> {
    s.parse::<i64>().ok().map(Time::from_fs)
}

impl FromStr for GuardViolation {
    type Err = ParseGuardViolationError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseGuardViolationError(s.to_owned());
        if let Some(rest) = s.strip_prefix("non-finite signal=") {
            // The signal name may itself contain spaces or `=`; the time is
            // always the final ` t=` field.
            let (signal, t) = rest.rsplit_once(" t=").ok_or_else(err)?;
            return Ok(GuardViolation::NonFinite {
                signal: signal.to_owned(),
                t: parse_fs(t).ok_or_else(err)?,
            });
        }
        if let Some(rest) = s.strip_prefix("step-budget-exhausted steps=") {
            let (steps, t) = rest.split_once(" t=").ok_or_else(err)?;
            return Ok(GuardViolation::StepBudgetExhausted {
                steps: steps.parse().map_err(|_| err())?,
                t: parse_fs(t).ok_or_else(err)?,
            });
        }
        if let Some(rest) = s.strip_prefix("timestep-collapse dt=") {
            let (dt, rest) = rest.split_once(" min=").ok_or_else(err)?;
            let (min_dt, t) = rest.split_once(" t=").ok_or_else(err)?;
            return Ok(GuardViolation::TimestepCollapse {
                dt: parse_fs(dt).ok_or_else(err)?,
                min_dt: parse_fs(min_dt).ok_or_else(err)?,
                t: parse_fs(t).ok_or_else(err)?,
            });
        }
        if let Some(t) = s.strip_prefix("deadline t=") {
            return Ok(GuardViolation::Deadline {
                t: parse_fs(t).ok_or_else(err)?,
            });
        }
        if let Some(t) = s.strip_prefix("retired t=") {
            return Ok(GuardViolation::Retired {
                t: parse_fs(t).ok_or_else(err)?,
            });
        }
        Err(err())
    }
}

impl GuardViolation {
    /// Best-effort extraction of a violation from a boxed runner error: a
    /// direct [`GuardViolation`], one found along the error's source chain
    /// (a kernel error wrapping it), or an error whose display form parses
    /// as one.
    pub fn from_error(error: &(dyn std::error::Error + 'static)) -> Option<GuardViolation> {
        if let Some(v) = error.downcast_ref::<GuardViolation>() {
            return Some(v.clone());
        }
        if let Some(source) = error.source() {
            if let Some(v) = GuardViolation::from_error(source) {
                return Some(v);
            }
        }
        error.to_string().parse().ok()
    }
}

/// A shared cooperative-cancellation flag with an optional wall-clock
/// deadline.
///
/// Clones share the flag: the engine keeps one clone and hands another to
/// the attempt; [`CancelToken::cancel`] on either side is observed by all.
/// [`CancelToken::new`] never cancels on its own and has no deadline, so an
/// unconfigured budget costs one relaxed load per step.
#[derive(Debug, Clone)]
pub struct CancelToken {
    /// `None` only for the built-in token of a budget nobody attached one
    /// to: nothing else holds it, so nothing can cancel it, and it costs no
    /// allocation.
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token that never expires on its own (cancellable only via
    /// [`CancelToken::cancel`]).
    pub fn new() -> Self {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: None,
        }
    }

    /// A token that additionally expires `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            deadline: Some(Instant::now() + timeout),
            ..CancelToken::new()
        }
    }

    /// The token of a budget without one: no flag to share, no deadline.
    const fn never() -> Self {
        CancelToken {
            flag: None,
            deadline: None,
        }
    }

    /// Requests cancellation; observed by every clone of this token.
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether [`CancelToken::cancel`] has been called (does not consult
    /// the deadline — that costs a clock read; see
    /// [`CancelToken::expired`]).
    pub fn is_cancelled(&self) -> bool {
        self.flag
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// Whether the deadline (if any) has passed. Reads the clock.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Flag *or* deadline: the full (clock-reading) stop check.
    pub fn should_stop(&self) -> bool {
        self.is_cancelled() || self.expired()
    }
}

/// A per-attempt simulation budget: step count, timestep floor and a
/// [`CancelToken`] for wall-clock deadline / cooperative cancellation.
///
/// A kernel holds one `SimBudget` (default: unlimited) and calls
/// [`SimBudget::note_step`] once per step of its main loop,
/// [`SimBudget::check_dt`] on each proposed adaptive step and
/// [`SimBudget::check_finite`] on freshly computed values. The budget is
/// `Clone` so snapshotting a kernel snapshots its budget; the engine
/// installs a fresh budget per attempt, so consumed steps never leak
/// across cases. [`SimBudget::unlimited`] allocates nothing: the engine
/// hands one to every case and word lane.
#[derive(Debug)]
pub struct SimBudget {
    max_steps: Option<u64>,
    min_dt: Option<Time>,
    /// [`CancelToken::never`] unless [`SimBudget::with_cancel`] attached
    /// one: only then can anyone else hold a clone of it, or can it carry a
    /// deadline.
    cancel: CancelToken,
    steps: u64,
    probe: u32,
    armed: bool,
    /// Observability-only, present with a metric registry attached; see
    /// [`Metered`].
    metered: Option<Metered>,
    /// Steps noted locally but not yet flushed to `attempt_steps`.
    pending: u32,
}

/// What a budget with telemetry attached carries.
#[derive(Debug, Clone)]
struct Metered {
    /// The registry; attaching it does *not* arm the budget, so guard
    /// semantics are identical with telemetry on or off.
    metrics: Arc<KernelMetrics>,
    /// Total steps noted by this budget *and every clone of it* within one
    /// attempt (the engine reads it after the attempt for the `steps_used`
    /// histogram). Shared via `Arc` because kernels clone their budget into
    /// sub-kernels and snapshots. To keep the hot path free of contended
    /// atomics, steps accumulate locally in `pending` and flush in
    /// [`CLOCK_STRIDE`]-sized batches (and on drop).
    attempt_steps: Arc<AtomicU64>,
}

impl Default for SimBudget {
    fn default() -> Self {
        SimBudget {
            max_steps: None,
            min_dt: None,
            cancel: CancelToken::never(),
            steps: 0,
            probe: 0,
            armed: false,
            metered: None,
            pending: 0,
        }
    }
}

impl Clone for SimBudget {
    fn clone(&self) -> Self {
        SimBudget {
            max_steps: self.max_steps,
            min_dt: self.min_dt,
            cancel: self.cancel.clone(),
            steps: self.steps,
            probe: self.probe,
            armed: self.armed,
            metered: self.metered.clone(),
            // Unflushed steps stay with the instance that noted them: the
            // original will flush them exactly once. A clone that copied
            // `pending` would double-count on its own flush.
            pending: 0,
        }
    }
}

impl Drop for SimBudget {
    fn drop(&mut self) {
        self.flush_pending();
    }
}

impl SimBudget {
    /// A budget with no limits: every check passes.
    pub fn unlimited() -> Self {
        SimBudget::default()
    }

    /// Caps the number of simulation steps.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = Some(max_steps);
        self.armed = true;
        self
    }

    /// Floors the adaptive timestep: a proposed step strictly below
    /// `min_dt` is a [`GuardViolation::TimestepCollapse`].
    #[must_use]
    pub fn with_min_dt(mut self, min_dt: Time) -> Self {
        self.min_dt = Some(min_dt);
        self.armed = true;
        self
    }

    /// Attaches a cancellation token (deadline and/or cooperative cancel).
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self.armed = true;
        self
    }

    /// Attaches a telemetry metric registry. Purely observational: it
    /// does **not** arm the budget ([`SimBudget::is_limited`] is
    /// unchanged), so enabling telemetry never alters guard semantics or
    /// simulation behaviour.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<KernelMetrics>) -> Self {
        let attempt_steps = match self.metered.take() {
            Some(metered) => metered.attempt_steps,
            None => Arc::default(),
        };
        self.metered = Some(Metered {
            metrics,
            attempt_steps,
        });
        self
    }

    /// The attached metric registry, if telemetry is enabled.
    pub fn metrics(&self) -> Option<&Arc<KernelMetrics>> {
        self.metered.as_ref().map(|m| &m.metrics)
    }

    /// Total steps noted by this budget and all of its clones (the
    /// observability counter behind the engine's `steps_used` histogram).
    /// Only maintained while a metric registry is attached, and updated in
    /// [`CLOCK_STRIDE`]-sized batches: live reads may trail by up to
    /// `CLOCK_STRIDE - 1` steps per active clone, but each clone flushes
    /// its remainder on drop, so the count is exact once the kernels that
    /// noted the steps have been dropped (which is how the engine reads
    /// it: after the attempt thread is joined).
    pub fn attempt_steps(&self) -> u64 {
        let flushed = self
            .metered
            .as_ref()
            .map_or(0, |m| m.attempt_steps.load(Ordering::Relaxed));
        flushed + u64::from(self.pending)
    }

    /// Whether any guard is configured. `false` for
    /// [`SimBudget::unlimited`]; kernels may use this to skip optional
    /// (per-value) checks when running unguarded.
    pub fn is_limited(&self) -> bool {
        self.armed
    }

    /// Whether a cancellation token was attached
    /// ([`SimBudget::with_cancel`]). Without one, [`SimBudget::note_step`]
    /// can only ever trip on the step cap, which depends on nothing but the
    /// count — a kernel stepping many budgets at once may then keep that
    /// count itself instead of calling `note_step` on each.
    pub fn is_cancellable(&self) -> bool {
        self.cancel.flag.is_some()
    }

    /// The configured step cap, if any.
    pub fn max_steps(&self) -> Option<u64> {
        self.max_steps
    }

    /// The configured timestep floor, if any.
    pub fn min_dt(&self) -> Option<Time> {
        self.min_dt
    }

    /// The attached cancellation token. Without one, a token nothing can
    /// cancel: [`CancelToken::cancel`] on it is a no-op.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Steps consumed so far (via [`SimBudget::note_step`]).
    pub fn steps_used(&self) -> u64 {
        self.steps
    }

    /// Counts one simulation step and runs the per-step checks: step
    /// budget, cancellation flag, and (every [`CLOCK_STRIDE`] steps) the
    /// wall-clock deadline.
    ///
    /// # Errors
    ///
    /// [`GuardViolation::StepBudgetExhausted`], or
    /// [`GuardViolation::Deadline`] once the token is cancelled or expired.
    pub fn note_step(&mut self, now: Time) -> Result<(), GuardViolation> {
        self.steps += 1;
        if self.metered.is_some() {
            // Batched: one contended RMW per CLOCK_STRIDE steps (flushed
            // below with the clock probe, and on drop), not one per step.
            self.pending += 1;
        }
        if let Some(max) = self.max_steps {
            if self.steps > max {
                return Err(GuardViolation::StepBudgetExhausted {
                    steps: self.steps,
                    t: now,
                });
            }
        }
        if self.cancel.is_cancelled() {
            return Err(GuardViolation::Deadline { t: now });
        }
        self.probe += 1;
        if self.probe >= CLOCK_STRIDE {
            self.probe = 0;
            self.flush_pending();
            if self.cancel.expired() {
                return Err(GuardViolation::Deadline { t: now });
            }
        }
        Ok(())
    }

    /// Publishes locally accumulated steps to the shared attempt counter.
    fn flush_pending(&mut self) {
        if self.pending > 0 {
            if let Some(metered) = &self.metered {
                metered
                    .attempt_steps
                    .fetch_add(u64::from(self.pending), Ordering::Relaxed);
            }
            self.pending = 0;
        }
    }

    /// Checks a proposed adaptive timestep against the configured floor.
    ///
    /// # Errors
    ///
    /// [`GuardViolation::TimestepCollapse`] when `dt < min_dt`.
    pub fn check_dt(&self, dt: Time, now: Time) -> Result<(), GuardViolation> {
        if let Some(min_dt) = self.min_dt {
            if dt < min_dt {
                return Err(GuardViolation::TimestepCollapse { dt, min_dt, t: now });
            }
        }
        Ok(())
    }

    /// Checks one freshly computed value for NaN/Inf.
    ///
    /// # Errors
    ///
    /// [`GuardViolation::NonFinite`] when `value` is NaN or infinite.
    pub fn check_finite(signal: &str, value: f64, now: Time) -> Result<(), GuardViolation> {
        if value.is_finite() {
            Ok(())
        } else {
            Err(GuardViolation::NonFinite {
                signal: signal.to_owned(),
                t: now,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_passes_every_check() {
        let mut b = SimBudget::unlimited();
        for i in 0..10_000 {
            b.note_step(Time::from_ns(i)).unwrap();
        }
        b.check_dt(Time::RESOLUTION, Time::ZERO).unwrap();
        assert_eq!(b.steps_used(), 10_000);
    }

    #[test]
    fn step_budget_trips_exactly_after_the_cap() {
        let mut b = SimBudget::unlimited().with_max_steps(3);
        for _ in 0..3 {
            b.note_step(Time::ZERO).unwrap();
        }
        match b.note_step(Time::from_ns(9)).unwrap_err() {
            GuardViolation::StepBudgetExhausted { steps, t } => {
                assert_eq!(steps, 4);
                assert_eq!(t, Time::from_ns(9));
            }
            other => panic!("unexpected violation {other}"),
        }
    }

    #[test]
    fn min_dt_floor_detects_collapse() {
        let b = SimBudget::unlimited().with_min_dt(Time::from_ps(10));
        b.check_dt(Time::from_ps(10), Time::ZERO).unwrap();
        let err = b.check_dt(Time::from_ps(9), Time::from_ns(1)).unwrap_err();
        assert_eq!(
            err,
            GuardViolation::TimestepCollapse {
                dt: Time::from_ps(9),
                min_dt: Time::from_ps(10),
                t: Time::from_ns(1),
            }
        );
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let token = CancelToken::new();
        let mut b = SimBudget::unlimited().with_cancel(token.clone());
        assert!(b.is_cancellable() && b.clone().is_cancellable());
        assert!(!SimBudget::unlimited().with_max_steps(1).is_cancellable());
        b.note_step(Time::ZERO).unwrap();
        token.cancel();
        assert!(matches!(
            b.note_step(Time::ZERO).unwrap_err(),
            GuardViolation::Deadline { .. }
        ));
        assert!(b.cancel_token().is_cancelled());

        // A budget nobody attached a token to shares no flag: its own token
        // cannot be cancelled from outside, and clones stay independent.
        let mut plain = SimBudget::unlimited();
        plain.cancel_token().cancel();
        plain.note_step(Time::ZERO).unwrap();
        assert!(!plain.is_cancellable() && !plain.cancel_token().should_stop());
    }

    #[test]
    fn expired_deadline_trips_within_one_clock_stride() {
        let token = CancelToken::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        assert!(token.expired() && token.should_stop());
        let mut b = SimBudget::unlimited().with_cancel(token);
        let mut tripped = None;
        for i in 0..=u64::from(CLOCK_STRIDE) {
            if let Err(e) = b.note_step(Time::from_ns(i as i64)) {
                tripped = Some(e);
                break;
            }
        }
        assert!(
            matches!(tripped, Some(GuardViolation::Deadline { .. })),
            "{tripped:?}"
        );
    }

    #[test]
    fn non_finite_values_are_named() {
        SimBudget::check_finite("vctrl", 2.5, Time::ZERO).unwrap();
        let err = SimBudget::check_finite("vctrl", f64::NAN, Time::from_ns(5)).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("non-finite signal=vctrl t={}", Time::from_ns(5).as_fs())
        );
        assert!(SimBudget::check_finite("x", f64::INFINITY, Time::ZERO).is_err());
    }

    #[test]
    fn attempt_steps_shared_across_clones_only_with_metrics() {
        // Without metrics the observability counter stays untouched.
        let mut plain = SimBudget::unlimited().with_max_steps(10);
        plain.note_step(Time::ZERO).unwrap();
        assert_eq!(plain.attempt_steps(), 0);
        assert_eq!(plain.steps_used(), 1);

        // With metrics, clones (sub-kernels, snapshots) share the counter.
        // Updates are batched at CLOCK_STRIDE granularity, so cross the
        // stride in one clone and rely on drop-flush for the other.
        let metrics = Arc::new(KernelMetrics::new());
        let mut a = SimBudget::unlimited().with_metrics(Arc::clone(&metrics));
        assert!(!a.is_limited(), "with_metrics must not arm the budget");
        let probe = a.clone();
        let mut b = a.clone();
        for _ in 0..CLOCK_STRIDE {
            a.note_step(Time::ZERO).unwrap();
        }
        b.note_step(Time::ZERO).unwrap();
        b.note_step(Time::ZERO).unwrap();
        // `a` crossed the stride: its steps are already visible everywhere.
        assert_eq!(probe.attempt_steps(), u64::from(CLOCK_STRIDE));
        // A reader sees its *own* unflushed remainder immediately.
        assert_eq!(b.attempt_steps(), u64::from(CLOCK_STRIDE) + 2);
        // Per-clone guard accounting is unchanged.
        assert_eq!(a.steps_used(), u64::from(CLOCK_STRIDE));
        assert_eq!(b.steps_used(), 2);
        // Dropping a clone flushes its remainder, making the total exact.
        drop(a);
        drop(b);
        assert_eq!(probe.attempt_steps(), u64::from(CLOCK_STRIDE) + 2);
    }

    /// Every variant beside its display form, which is both the kernels'
    /// error message and the text the campaign journal stores after
    /// `simfail=`.
    fn display_table() -> [(GuardViolation, &'static str); 6] {
        [
            (
                GuardViolation::NonFinite {
                    signal: "vctrl".to_owned(),
                    t: Time::from_ns(170),
                },
                "non-finite signal=vctrl t=170000000",
            ),
            (
                GuardViolation::NonFinite {
                    signal: "node a=b t=c".to_owned(),
                    t: Time::ZERO,
                },
                "non-finite signal=node a=b t=c t=0",
            ),
            (
                GuardViolation::StepBudgetExhausted {
                    steps: 1_000_001,
                    t: Time::from_us(3),
                },
                "step-budget-exhausted steps=1000001 t=3000000000",
            ),
            (
                GuardViolation::TimestepCollapse {
                    dt: Time::from_fs(3),
                    min_dt: Time::from_ps(1),
                    t: Time::from_ns(9),
                },
                "timestep-collapse dt=3 min=1000 t=9000000",
            ),
            (
                GuardViolation::Deadline {
                    t: Time::from_us(1),
                },
                "deadline t=1000000000",
            ),
            (
                GuardViolation::Retired {
                    t: Time::from_ns(2),
                },
                "retired t=2000000",
            ),
        ]
    }

    /// A changed message would silently change every journal, so each one
    /// is pinned.
    #[test]
    fn violation_display_is_stable() {
        for (violation, text) in display_table() {
            assert_eq!(violation.to_string(), text);
        }
    }

    /// The journal reads back what it wrote: every variant parses from its
    /// display form, and text no variant writes is refused.
    #[test]
    fn display_round_trips_through_from_str() {
        for (violation, text) in display_table() {
            assert_eq!(text.parse::<GuardViolation>(), Ok(violation), "{text}");
        }
        for junk in [
            "gremlins",
            "deadline t=soon",
            "cancelled t=5",
            "panicked boom",
        ] {
            assert!(junk.parse::<GuardViolation>().is_err(), "{junk}");
        }
    }

    #[test]
    fn from_error_sees_through_boxes_and_text() {
        #[derive(Debug)]
        struct Wrapper(GuardViolation);
        impl fmt::Display for Wrapper {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "kernel: {}", self.0)
            }
        }
        impl std::error::Error for Wrapper {
            fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
                Some(&self.0)
            }
        }

        let icp = GuardViolation::NonFinite {
            signal: "icp".to_owned(),
            t: Time::ZERO,
        };
        let direct: Box<dyn std::error::Error> = Box::new(icp.clone());
        assert_eq!(
            GuardViolation::from_error(direct.as_ref()),
            Some(icp.clone())
        );
        let wrapped: Box<dyn std::error::Error> = Box::new(Wrapper(icp.clone()));
        assert_eq!(GuardViolation::from_error(wrapped.as_ref()), Some(icp));

        // A stringly-typed error whose message is a violation's display form.
        let text: Box<dyn std::error::Error> = "deadline t=5000".into();
        assert_eq!(
            GuardViolation::from_error(text.as_ref()),
            Some(GuardViolation::Deadline {
                t: Time::from_fs(5000)
            })
        );
        let other: Box<dyn std::error::Error> = "disk on fire".into();
        assert_eq!(GuardViolation::from_error(other.as_ref()), None);
    }
}
