//! Fault classification: turning a golden-vs-faulty trace comparison into a
//! dependability verdict.
//!
//! This is the "Failure report / Classification" box of the paper's Figs. 2
//! and 3. Monitored signals are split into *functional outputs* (a mismatch
//! there is externally visible) and *internals* (a mismatch there that never
//! reaches an output is a latent error). Analog signals are compared with the
//! Section 4.1 tolerance "in order to avoid non significant error
//! identifications".

use amsfi_waves::{
    AnalogStream, AnalogWave, DigitalSlot, DigitalStream, DigitalWave, GuardViolation,
    MismatchToggles, StreamState, Time, ToggleStream, Tolerance, Trace, TraceView,
};
use std::fmt;
use std::sync::Arc;

/// The dependability verdict for one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultClass {
    /// No monitored signal ever left its tolerance band.
    NoEffect,
    /// Only internal signals diverged, and they still differ at the end of
    /// the observation window: the error is stored but not yet visible.
    Latent,
    /// Outputs (and internals) diverged but everything re-converged and
    /// stayed clean for the recovery period: the system healed itself.
    Transient,
    /// An output is still wrong at (or near) the end of the window.
    Failure,
    /// The case did not produce a comparable trace: the simulation itself
    /// failed (non-finite samples, exhausted budget, collapsed timestep or
    /// deadline — see [`GuardViolation`]). Reported as its own class so
    /// infrastructure failures are never mistaken for error propagation.
    SimFailure,
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultClass::NoEffect => "no-effect",
            FaultClass::Latent => "latent",
            FaultClass::Transient => "transient",
            FaultClass::Failure => "failure",
            FaultClass::SimFailure => "sim-failure",
        };
        f.write_str(s)
    }
}

/// Error parsing a [`FaultClass`] from its display form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultClassError(String);

impl fmt::Display for ParseFaultClassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown fault class {:?}", self.0)
    }
}

impl std::error::Error for ParseFaultClassError {}

impl std::str::FromStr for FaultClass {
    type Err = ParseFaultClassError;

    /// Parses the [`Display`](fmt::Display) form, so classes round-trip
    /// through textual artifacts such as the campaign journal.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "no-effect" => Ok(FaultClass::NoEffect),
            "latent" => Ok(FaultClass::Latent),
            "transient" => Ok(FaultClass::Transient),
            "failure" => Ok(FaultClass::Failure),
            "sim-failure" => Ok(FaultClass::SimFailure),
            other => Err(ParseFaultClassError(other.to_owned())),
        }
    }
}

impl FaultClass {
    /// All classes, in report order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::NoEffect,
        FaultClass::Latent,
        FaultClass::Transient,
        FaultClass::Failure,
        FaultClass::SimFailure,
    ];
}

/// How traces are compared and verdicts drawn.
#[derive(Debug, Clone)]
pub struct ClassifySpec {
    /// Comparison window (usually `[injection time, end of run]`).
    pub window: (Time, Time),
    /// Tolerance for analog signals (Section 4.1 of the paper).
    pub analog_tolerance: Tolerance,
    /// Mismatch observations closer than this merge into one interval.
    pub merge_gap: Time,
    /// A signal counts as *recovered* if its last divergence ends earlier
    /// than `window.1 - recovery`.
    pub recovery: Time,
    /// Edge-timing tolerance for digital signals: clock edges displaced by
    /// less than this are not errors (residual phase offsets, jitter).
    pub digital_skew: Time,
    /// Settle window hint for *streaming* classification (ignored by the
    /// post-hoc [`classify`]): how long a signal's comparison state must
    /// stay unchanged — clean, or continuously diverged — before the
    /// online classifier may treat it as final. This is a property of the
    /// circuit's dynamics (e.g. a PLL's re-lock time), so campaigns that
    /// know their bench should set it; `None` falls back to `recovery`.
    pub settle: Option<Time>,
    /// Names of functional outputs (divergence ⇒ transient or failure).
    pub outputs: Vec<String>,
    /// Names of internal signals (divergence alone ⇒ latent).
    pub internals: Vec<String>,
}

impl ClassifySpec {
    /// A spec observing `outputs` over `window` with defaults: 1 % + 50 mV
    /// analog tolerance, 100 ns merge gap, 5 % of the window as recovery
    /// margin.
    pub fn new(window: (Time, Time), outputs: Vec<String>) -> Self {
        let span = window.1 - window.0;
        ClassifySpec {
            window,
            analog_tolerance: Tolerance::new(0.05, 0.01),
            merge_gap: Time::from_ns(100),
            recovery: span / 20,
            digital_skew: Time::ZERO,
            settle: None,
            outputs,
            internals: Vec::new(),
        }
    }

    /// Adds internal (latent-detection) signals.
    #[must_use]
    pub fn with_internals(mut self, internals: Vec<String>) -> Self {
        self.internals = internals;
        self
    }

    /// Overrides the analog tolerance.
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: Tolerance) -> Self {
        self.analog_tolerance = tolerance;
        self
    }

    /// Sets the digital edge-skew tolerance.
    #[must_use]
    pub fn with_digital_skew(mut self, skew: Time) -> Self {
        self.digital_skew = skew;
        self
    }

    /// Sets the streaming-classification settle window (see [`Self::settle`]).
    #[must_use]
    pub fn with_settle(mut self, settle: Time) -> Self {
        self.settle = Some(settle);
        self
    }

    /// Every monitored name with its is-output flag, outputs first: the
    /// order verdicts are folded in.
    pub(crate) fn signals(&self) -> impl Iterator<Item = (&str, bool)> {
        let outputs = self.outputs.iter().map(|n| (n.as_str(), true));
        outputs.chain(self.internals.iter().map(|n| (n.as_str(), false)))
    }

    /// The recovery horizon: a divergence reaching it is unrecovered.
    pub(crate) fn recovered_by(&self) -> Time {
        self.window.1 - self.recovery
    }

    pub(crate) fn digital_stream(&self) -> DigitalStream {
        let (from, to) = self.window;
        DigitalStream::new(from, to, self.merge_gap, self.digital_skew)
    }

    pub(crate) fn analog_stream(&self) -> AnalogStream {
        let (from, to) = self.window;
        AnalogStream::new(from, to, self.analog_tolerance, self.merge_gap)
    }

    pub(crate) fn toggle_stream(&self) -> ToggleStream {
        let (from, to) = self.window;
        ToggleStream::new(from, to, self.merge_gap)
    }
}

/// What every classifier of a campaign run compares with: the spec, the
/// golden trace, and the digital slot the trace records each monitored
/// name under, resolved once. Clones share all three.
#[derive(Debug, Clone)]
pub struct Golden {
    pub(crate) spec: Arc<ClassifySpec>,
    pub(crate) trace: Arc<Trace>,
    /// Per monitored name, in [`ClassifySpec::signals`] order: the slot
    /// the trace recorded it under, if it did.
    pub(crate) slots: Arc<[Option<DigitalSlot>]>,
}

impl Golden {
    /// Resolves `spec`'s names against `trace`.
    pub fn new(spec: ClassifySpec, trace: Arc<Trace>) -> Self {
        let slots = spec
            .signals()
            .map(|(name, _)| trace.recorded_digital_slot(name))
            .collect();
        let spec = Arc::new(spec);
        Golden { spec, trace, slots }
    }

    /// How runs are compared with this one.
    pub fn spec(&self) -> &ClassifySpec {
        &self.spec
    }

    /// The golden trace.
    pub fn trace(&self) -> &Arc<Trace> {
        &self.trace
    }

    /// The golden trace, shared no more by this.
    pub fn into_trace(self) -> Arc<Trace> {
        self.trace
    }
}

/// Everything measured about one fault-injection run.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOutcome {
    /// The verdict.
    pub class: FaultClass,
    /// First time any *output* diverged.
    pub error_onset: Option<Time>,
    /// Last time any *output* was observed diverged.
    pub error_end: Option<Time>,
    /// Total mismatched time summed over all output signals.
    pub total_mismatch: Time,
    /// Monitored signals (outputs and internals) that diverged at least
    /// once, sorted. Shared: the cases a verdict is booked for hold one
    /// list between them.
    pub affected: Arc<[String]>,
    /// When `class` is [`FaultClass::SimFailure`], the structured reason.
    pub failure: Option<GuardViolation>,
    /// Simulation time at which an online classifier sealed this verdict and
    /// aborted the case early (`None` for post-hoc classification, which
    /// always observes the full window). When set, [`CaseOutcome::error_end`]
    /// and [`CaseOutcome::total_mismatch`] are as-of-seal lower bounds;
    /// `class`, `error_onset` and `affected` are exact.
    pub sealed_at: Option<Time>,
}

impl CaseOutcome {
    /// Error latency relative to an injection instant.
    pub fn latency_from(&self, injected_at: Time) -> Option<Time> {
        self.error_onset.map(|t| t - injected_at)
    }

    /// The verdict for a case whose *simulation* failed: class
    /// [`FaultClass::SimFailure`] carrying the structured reason, with the
    /// failure instant as the onset.
    pub fn from_sim_failure(failure: GuardViolation) -> CaseOutcome {
        let t = match &failure {
            GuardViolation::NonFinite { t, .. }
            | GuardViolation::StepBudgetExhausted { t, .. }
            | GuardViolation::TimestepCollapse { t, .. }
            | GuardViolation::Deadline { t }
            | GuardViolation::Retired { t } => *t,
        };
        CaseOutcome {
            class: FaultClass::SimFailure,
            error_onset: Some(t),
            error_end: None,
            total_mismatch: Time::ZERO,
            affected: Arc::default(),
            failure: Some(failure),
            sealed_at: None,
        }
    }
}

/// What the verdict reads off one diverged signal — from a finished
/// comparison, or from a stream still running.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divergence {
    /// Start of the first mismatch.
    pub(crate) first: Time,
    /// End of the last mismatch; for one still open, the finality bound it
    /// has been held through (a lower bound).
    pub(crate) last: Time,
    /// Summed mismatch duration (a lower bound while a mismatch is open).
    pub(crate) total: Time,
    /// Still wrong at the recovery horizon `window.1 - recovery`.
    pub(crate) unrecovered: bool,
}

impl Divergence {
    /// The summary of `state` as of its finality bound; `None` while the
    /// signal has not mismatched. Observations only occur where a wave
    /// changes, so a mismatch open at the bound has persisted through it.
    pub(crate) fn as_of(spec: &ClassifySpec, state: &StreamState) -> Option<Divergence> {
        let (closed, open) = (state.closed(), state.open_since());
        let first = closed.map(|c| c.first).or(open)?;
        let mut total = closed.map_or(Time::ZERO, |c| c.total);
        let last = match open {
            Some(open) => {
                let held = state.processed_to().max(open);
                total += held - open;
                held
            }
            None => closed.map_or(first, |c| c.last),
        };
        Some(Divergence {
            first,
            last,
            total,
            unrecovered: last >= spec.recovered_by(),
        })
    }

    /// The one rule for a signal no typed comparison can handle — missing
    /// from one trace, missing from *both* (a typo'd monitor name, a signal
    /// that never transitioned into the trace), or recorded in different
    /// domains: a mismatch over the whole window. Silently reporting a match
    /// would let a misspelled `ClassifySpec` output turn every case into a
    /// false no-effect verdict.
    pub(crate) fn full_window(spec: &ClassifySpec) -> Divergence {
        let (first, last) = spec.window;
        Divergence {
            first,
            last,
            total: last - first,
            unrecovered: last >= spec.recovered_by(),
        }
    }
}

/// What a monitored name resolves to: a pair of waves in one domain, or
/// nothing the typed comparisons can handle.
pub(crate) enum Resolved<'a> {
    Digital(&'a DigitalWave, &'a DigitalWave),
    Analog(&'a AnalogWave, &'a AnalogWave),
    Uncomparable,
}

/// Resolves `name` against the golden trace and what the faulty run has
/// recorded.
pub(crate) fn resolve<'a>(golden: &'a Trace, faulty: &TraceView<'a>, name: &str) -> Resolved<'a> {
    if let (Some(g), Some(f)) = (golden.digital(name), faulty.digital(name)) {
        Resolved::Digital(g, f)
    } else if let (Some(g), Some(f)) = (golden.analog(name), faulty.analog(name)) {
        Resolved::Analog(g, f)
    } else {
        Resolved::Uncomparable
    }
}

/// First non-finite sample of `wave` within `[from, to]`.
pub(crate) fn first_non_finite(wave: &AnalogWave, from: Time, to: Time) -> Option<Time> {
    wave.samples()
        .iter()
        .filter(|&&(t, _)| t >= from && t <= to)
        .find(|&&(_, v)| !v.is_finite())
        .map(|&(t, _)| t)
}

/// Compares one monitored signal over the whole window. `Err` is a NaN/Inf
/// sample at that time — IEEE comparison semantics must never be allowed to
/// decide such a case (`NaN <= x` is false, so a NaN sample would read as
/// an ordinary mismatch and quietly inflate `failure` counts).
fn compare_signal(
    spec: &ClassifySpec,
    golden: &Trace,
    faulty: &TraceView<'_>,
    name: &str,
) -> Result<Option<Divergence>, Time> {
    match resolve(golden, faulty, name) {
        Resolved::Digital(g, f) => {
            let mut stream = spec.digital_stream();
            stream.finish(g, f);
            Ok(Divergence::as_of(spec, stream.state()))
        }
        Resolved::Analog(g, f) => {
            let (from, to) = spec.window;
            // The faulty trace is checked first: it is the one a diverging
            // kernel poisons, so its (earlier or equal) timestamp is the one
            // worth reporting.
            if let Some(t) = first_non_finite(f, from, to).or_else(|| first_non_finite(g, from, to))
            {
                return Err(t);
            }
            let mut stream = spec.analog_stream();
            stream.finish(g, f);
            Ok(Divergence::as_of(spec, stream.state()))
        }
        Resolved::Uncomparable => Ok(Some(Divergence::full_window(spec))),
    }
}

/// The verdict lattice: folds each monitored signal's divergence (`None` =
/// clean), in spec order, into the outcome. Every classification — post-hoc
/// and each online seal — ends here.
pub(crate) fn fold<'a>(
    signals: impl Iterator<Item = (&'a str, bool, Option<Divergence>)>,
) -> CaseOutcome {
    let mut affected = Vec::new();
    let mut onset: Option<Time> = None;
    let mut end: Option<Time> = None;
    let mut total = Time::ZERO;
    let mut output_unrecovered = false;
    let mut internal_unrecovered = false;
    for (name, is_output, divergence) in signals {
        let Some(d) = divergence else { continue };
        affected.push(name.to_owned());
        if is_output {
            onset = Some(onset.map_or(d.first, |t| t.min(d.first)));
            end = Some(end.map_or(d.last, |t| t.max(d.last)));
            total += d.total;
            output_unrecovered |= d.unrecovered;
        } else {
            internal_unrecovered |= d.unrecovered;
        }
    }
    affected.sort();
    let class = if output_unrecovered {
        FaultClass::Failure
    } else if internal_unrecovered {
        FaultClass::Latent
    } else if affected.is_empty() {
        FaultClass::NoEffect
    } else {
        FaultClass::Transient
    };
    CaseOutcome {
        class,
        error_onset: onset,
        error_end: end,
        total_mismatch: total,
        affected: affected.into(),
        failure: None,
        sealed_at: None,
    }
}

/// Classifies one faulty trace against the golden trace.
pub fn classify(spec: &ClassifySpec, golden: &Trace, faulty: &Trace) -> CaseOutcome {
    let parts = [faulty];
    let faulty = TraceView::new(&parts);
    let mut poisoned = None;
    let outcome = fold(spec.signals().map_while(|(name, is_output)| {
        match compare_signal(spec, golden, &faulty, name) {
            Ok(divergence) => Some((name, is_output, divergence)),
            Err(t) => {
                poisoned = Some((name, t));
                None
            }
        }
    }));
    match poisoned {
        Some((name, t)) => sim_failure_outcome(name, t),
        None => outcome,
    }
}

/// Classifies digital runs known only by where they differ from golden —
/// their [`MismatchToggles`], as the word kernel notes them — with the
/// verdict [`classify`] gives each run's trace. A name golden never
/// recorded, or one the run left silent, is a mismatch over the whole
/// window, as [`classify`] has it.
#[derive(Debug, Clone)]
pub struct MismatchClassifier<'a> {
    golden: &'a Golden,
    /// Behind every slot some name resolves to, indexed by slot, the
    /// stream the run being classified is fed to.
    streams: Vec<Option<ToggleStream>>,
}

impl<'a> MismatchClassifier<'a> {
    /// A classifier of runs against `golden`.
    ///
    /// # Panics
    ///
    /// If the spec's `digital_skew` is not zero: a skewed comparison reads
    /// golden at `t ± skew`, which toggles do not carry.
    pub fn new(golden: &'a Golden) -> Self {
        let spec = &golden.spec;
        assert_eq!(
            spec.digital_skew,
            Time::ZERO,
            "toggles carry no skewed comparison"
        );
        let width = golden.slots.iter().flatten().map(|s| s.index() + 1).max();
        let mut streams = vec![None; width.unwrap_or(0)];
        for slot in golden.slots.iter().flatten() {
            streams[slot.index()] = Some(spec.toggle_stream());
        }
        MismatchClassifier { golden, streams }
    }

    /// The verdict of one run with these toggles.
    pub fn classify(&mut self, toggles: &MismatchToggles) -> CaseOutcome {
        let spec = &self.golden.spec;
        for stream in self.streams.iter_mut().flatten() {
            *stream = spec.toggle_stream();
        }
        toggles.feed(&mut self.streams);
        let streams = &mut self.streams;
        fold(
            spec.signals()
                .zip(self.golden.slots.iter())
                .map(|((name, is_output), slot)| {
                    let stream = slot
                        .filter(|&slot| !toggles.is_silent(slot))
                        .and_then(|slot| streams[slot.index()].as_mut());
                    let divergence = match stream {
                        Some(stream) => Divergence::as_of(spec, stream.finish()),
                        None => Some(Divergence::full_window(spec)),
                    };
                    (name, is_output, divergence)
                }),
        )
    }
}

/// The verdict for a trace poisoned by a non-finite sample on `signal`.
fn sim_failure_outcome(signal: &str, t: Time) -> CaseOutcome {
    let mut outcome = CaseOutcome::from_sim_failure(GuardViolation::NonFinite {
        signal: signal.to_owned(),
        t,
    });
    outcome.affected = Arc::new([signal.to_owned()]);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use amsfi_waves::Logic;

    fn spec() -> ClassifySpec {
        ClassifySpec::new((Time::ZERO, Time::from_us(10)), vec!["out".to_owned()])
            .with_internals(vec!["state".to_owned()])
    }

    fn trace_with(out: &[(i64, Logic)], state: &[(i64, Logic)]) -> Trace {
        let mut t = Trace::new();
        for &(ns, v) in out {
            t.record_digital("out", Time::from_ns(ns), v).unwrap();
        }
        for &(ns, v) in state {
            t.record_digital("state", Time::from_ns(ns), v).unwrap();
        }
        t
    }

    fn golden() -> Trace {
        trace_with(&[(0, Logic::Zero)], &[(0, Logic::Zero)])
    }

    #[test]
    fn identical_traces_are_no_effect() {
        let out = classify(&spec(), &golden(), &golden());
        assert_eq!(out.class, FaultClass::NoEffect);
        assert!(out.affected.is_empty());
        assert_eq!(out.error_onset, None);
        assert_eq!(out.total_mismatch, Time::ZERO);
    }

    #[test]
    fn persistent_output_error_is_failure() {
        let faulty = trace_with(&[(0, Logic::Zero), (100, Logic::One)], &[(0, Logic::Zero)]);
        let out = classify(&spec(), &golden(), &faulty);
        assert_eq!(out.class, FaultClass::Failure);
        assert_eq!(out.error_onset, Some(Time::from_ns(100)));
        assert_eq!(*out.affected, ["out"]);
    }

    #[test]
    fn recovered_output_error_is_transient() {
        let faulty = trace_with(
            &[(0, Logic::Zero), (100, Logic::One), (200, Logic::Zero)],
            &[(0, Logic::Zero)],
        );
        let out = classify(&spec(), &golden(), &faulty);
        assert_eq!(out.class, FaultClass::Transient);
        assert_eq!(out.latency_from(Time::from_ns(50)), Some(Time::from_ns(50)));
    }

    #[test]
    fn internal_only_error_is_latent() {
        let faulty = trace_with(&[(0, Logic::Zero)], &[(0, Logic::Zero), (100, Logic::One)]);
        let out = classify(&spec(), &golden(), &faulty);
        assert_eq!(out.class, FaultClass::Latent);
        assert_eq!(out.error_onset, None, "no output divergence");
        assert_eq!(*out.affected, ["state"]);
    }

    #[test]
    fn recovered_internal_error_is_transient() {
        let faulty = trace_with(
            &[(0, Logic::Zero)],
            &[(0, Logic::Zero), (100, Logic::One), (200, Logic::Zero)],
        );
        let out = classify(&spec(), &golden(), &faulty);
        assert_eq!(out.class, FaultClass::Transient);
    }

    #[test]
    fn transient_output_with_stuck_internal_is_latent() {
        let faulty = trace_with(
            &[(0, Logic::Zero), (100, Logic::One), (200, Logic::Zero)],
            &[(0, Logic::Zero), (100, Logic::One)],
        );
        let out = classify(&spec(), &golden(), &faulty);
        assert_eq!(out.class, FaultClass::Latent);
    }

    #[test]
    fn analog_tolerance_is_applied() {
        let mut golden = Trace::new();
        golden.record_analog("out", Time::ZERO, 2.5).unwrap();
        golden.record_analog("out", Time::from_us(10), 2.5).unwrap();
        let mut faulty = Trace::new();
        faulty.record_analog("out", Time::ZERO, 2.52).unwrap();
        faulty
            .record_analog("out", Time::from_us(10), 2.48)
            .unwrap();
        let s = ClassifySpec::new((Time::ZERO, Time::from_us(10)), vec!["out".to_owned()]);
        // Within 50 mV absolute tolerance: no effect.
        assert_eq!(classify(&s, &golden, &faulty).class, FaultClass::NoEffect);
        // Zero tolerance: failure.
        let strict = s.with_tolerance(Tolerance::exact());
        assert_eq!(
            classify(&strict, &golden, &faulty).class,
            FaultClass::Failure
        );
    }

    #[test]
    fn missing_signal_in_one_trace_is_a_failure() {
        let faulty = Trace::new();
        let out = classify(&spec(), &golden(), &faulty);
        assert_eq!(out.class, FaultClass::Failure);
    }

    /// Regression: a monitored name present in *neither* trace (e.g. a typo
    /// in `ClassifySpec.outputs`) used to compare as a silent match, turning
    /// every case into a false no-effect verdict.
    #[test]
    fn signal_missing_from_both_traces_is_a_failure_not_no_effect() {
        let mut s = spec();
        s.outputs = vec!["outt".to_owned()]; // typo: never recorded anywhere
        let out = classify(&s, &golden(), &golden());
        assert_eq!(out.class, FaultClass::Failure);
        assert_eq!(*out.affected, ["outt"]);
        assert_eq!(out.error_onset, Some(s.window.0));
        assert_eq!(out.error_end, Some(s.window.1));
    }

    /// Same for an internal signal: a never-recorded internal is at least a
    /// latent error, never silently clean.
    #[test]
    fn internal_missing_from_both_traces_is_latent() {
        let mut s = spec();
        s.internals = vec!["statee".to_owned()];
        let out = classify(&s, &golden(), &golden());
        assert_eq!(out.class, FaultClass::Latent);
        assert_eq!(*out.affected, ["statee"]);
    }

    #[test]
    fn digital_skew_forgives_displaced_clock_edges() {
        let golden = trace_with(&[(0, Logic::Zero), (100, Logic::One)], &[(0, Logic::Zero)]);
        let faulty = trace_with(&[(0, Logic::Zero), (101, Logic::One)], &[(0, Logic::Zero)]);
        let strict = classify(&spec(), &golden, &faulty);
        assert_ne!(strict.class, FaultClass::NoEffect);
        let lax = classify(
            &spec().with_digital_skew(Time::from_ns(5)),
            &golden,
            &faulty,
        );
        assert_eq!(lax.class, FaultClass::NoEffect);
    }

    /// Satellite regression: a NaN sample used to fall through IEEE
    /// comparison semantics (`NaN` fails every tolerance check) and read as
    /// an ordinary failure-class mismatch. It must be its own class.
    #[test]
    fn nan_sample_is_sim_failure_not_mismatch() {
        let s = ClassifySpec::new((Time::ZERO, Time::from_us(10)), vec!["out".to_owned()]);
        let mut golden = Trace::new();
        golden.record_analog("out", Time::ZERO, 2.5).unwrap();
        golden.record_analog("out", Time::from_us(10), 2.5).unwrap();
        let mut faulty = Trace::new();
        faulty.record_analog("out", Time::ZERO, 2.5).unwrap();
        faulty
            .record_analog("out", Time::from_us(3), f64::NAN)
            .unwrap();
        faulty.record_analog("out", Time::from_us(10), 2.5).unwrap();
        let out = classify(&s, &golden, &faulty);
        assert_eq!(out.class, FaultClass::SimFailure);
        assert_eq!(out.error_onset, Some(Time::from_us(3)));
        assert_eq!(*out.affected, ["out"]);
        assert_eq!(
            out.failure,
            Some(GuardViolation::NonFinite {
                signal: "out".to_owned(),
                t: Time::from_us(3)
            })
        );
        // A NaN in the *golden* trace is equally fatal.
        let swapped = classify(&s, &faulty, &golden);
        assert_eq!(swapped.class, FaultClass::SimFailure);
        // Infinities count too.
        let mut inf = Trace::new();
        inf.record_analog("out", Time::ZERO, 2.5).unwrap();
        inf.record_analog("out", Time::from_us(5), f64::INFINITY)
            .unwrap();
        inf.record_analog("out", Time::from_us(10), 2.5).unwrap();
        assert_eq!(classify(&s, &golden, &inf).class, FaultClass::SimFailure);
        // A non-finite sample *outside* the window is not this case's
        // problem.
        let narrow = ClassifySpec::new((Time::from_us(4), Time::from_us(10)), vec!["out".into()]);
        assert_ne!(
            classify(&narrow, &golden, &faulty).class,
            FaultClass::SimFailure
        );
    }

    #[test]
    fn class_display() {
        assert_eq!(FaultClass::NoEffect.to_string(), "no-effect");
        assert_eq!(FaultClass::Failure.to_string(), "failure");
        assert_eq!(FaultClass::SimFailure.to_string(), "sim-failure");
    }

    #[test]
    fn class_round_trips_through_display() {
        for class in FaultClass::ALL {
            assert_eq!(class.to_string().parse::<FaultClass>(), Ok(class));
        }
        assert!("glitch".parse::<FaultClass>().is_err());
    }
}
