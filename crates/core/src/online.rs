//! Online (streaming) fault classification: sealing a verdict *during*
//! simulation so a case can be aborted the moment its outcome is decided.
//!
//! [`classify`](crate::classify) waits for the full faulty trace and then
//! compares it against the golden run. For most campaigns that wastes the
//! bulk of the simulation budget: a PLL that has visibly re-locked at
//! `t_inject + 2 µs` will be simulated for another 28 µs just to confirm
//! nothing else happens. [`OnlineClassifier`] consumes the faulty trace
//! incrementally — fed by a [`SimObserver`](amsfi_waves::SimObserver)
//! polling from a kernel's step loop, or by the word kernel at its stops —
//! and *seals* the verdict as soon as
//! one of three conditions holds. Each seal is an early exit of the one
//! fold [`classify`](crate::classify) ends in: every signal's divergence
//! as of now, through the same lattice.
//!
//! 1. **Permanent** — every monitored signal has already diverged and at
//!    least one output's divergence reaches the recovery horizon
//!    (`window.1 - recovery`). No future observation can downgrade the
//!    verdict: class `Failure`, the onset and the affected set are exact;
//!    `error_end` / `total_mismatch` are as-of-seal lower bounds.
//! 2. **Quiescent** — every signal's comparison state has held unchanged
//!    through a *settle window*: clean signals stayed clean, diverged
//!    signals stayed continuously diverged. Closed mismatch intervals are
//!    final, so recovered signals feed the verdict lattice (`NoEffect` /
//!    `Transient` / `Latent` / `Failure`) exactly as the post-hoc
//!    classifier would; a mismatch still open after a full settle window
//!    is predicted to persist to the window end — the stuck or unlocked
//!    regime — sealing `Failure` when the signal is an output. Any
//!    re-convergence observation closes the interval and restarts the
//!    quiescence clock, so beat and re-lock patterns keep the classifier
//!    watching instead of mis-sealing. While any mismatch is still open
//!    the seal additionally requires every signal to have diverged
//!    already: corruption that is actively propagating can pull a
//!    so-far-clean signal into the affected set later, so the
//!    clean-stays-clean prediction is only trusted once the system has
//!    globally re-converged (or every signal is already affected). The
//!    settle window must exceed both the longest clean gap and the
//!    longest single diverged episode of any non-final pattern the bench
//!    can produce; that is a circuit property, so campaigns set
//!    [`ClassifySpec::settle`] (a PLL uses its re-lock time) and the
//!    fallback is the spec's recovery margin, clamped to at least the
//!    merge gap.
//! 3. **Window complete** — every stream has processed the whole
//!    observation window; the outcome equals the post-hoc one by
//!    construction.
//!
//! A word lane records no trace: shown its toggles at the machine's stops
//! ([`OnlineClassifier::observe_toggles`]), the classifier feeds a
//! [`ToggleStream`] per monitored golden slot.
//!
//! Anything the streaming comparison cannot decide soundly makes the
//! classifier *inert* rather than wrong: a non-finite sample anywhere in
//! the window (the post-hoc classifier short-circuits those into
//! [`FaultClass::SimFailure`](crate::FaultClass::SimFailure) with its own
//! precedence order), or toggles under a digital skew. A monitored signal
//! the faulty run has not recorded yet (a slot a lane has not touched)
//! blocks every seal. An inert classifier simply never seals and the case
//! runs to completion — sim-failures and timeouts always stay terminal.
//!
//! Whoever feeds the classifier stops the simulation once it has sealed —
//! the engine by cancelling the attempt's budget token, or by retiring the
//! word lane — and records the sealed outcome (with
//! [`CaseOutcome::sealed_at`] set) instead of classifying post-hoc.

use crate::classify::{first_non_finite, fold, resolve, CaseOutcome, Divergence, Golden, Resolved};
use amsfi_waves::{
    AnalogStream, DigitalSlot, DigitalStream, MismatchToggles, StreamState, Time, ToggleStream,
    TraceView,
};

/// Streaming comparison state for one monitored signal.
#[derive(Debug, Clone)]
enum SigStream {
    /// Digital golden-vs-faulty merge cursor.
    Digital(DigitalStream),
    /// Analog golden-vs-faulty merge cursor.
    Analog(AnalogStream),
    /// A word lane's mismatch toggles on this golden slot.
    Toggles(DigitalSlot, ToggleStream),
    /// The golden trace records this name in *neither* domain. The post-hoc
    /// classifier reports a definitive full-window mismatch for such a
    /// signal no matter what the faulty run does, so the online one may
    /// treat it as permanently diverged from the first observation.
    MissingInGolden,
}

/// One monitored signal; its name and is-output flag are the spec's, at
/// the same position.
#[derive(Debug, Clone, Default)]
struct SigState {
    /// `None` until the faulty trace records this signal in the domain the
    /// golden trace uses: comparison cannot start, which blocks every seal.
    stream: Option<SigStream>,
    /// Number of faulty analog samples already scanned for non-finite
    /// values (samples are append-only, so the scan never re-reads).
    scanned: usize,
}

impl SigState {
    /// The comparison state of a live stream; `None` for a signal missing
    /// from the golden trace.
    fn state(&self) -> Option<&StreamState> {
        match self.stream.as_ref()? {
            SigStream::Digital(s) => Some(s.state()),
            SigStream::Analog(s) => Some(s.state()),
            SigStream::Toggles(_, s) => Some(s.state()),
            SigStream::MissingInGolden => None,
        }
    }

    /// True once the signal has mismatched at all.
    fn diverged(&self) -> bool {
        self.state()
            .is_none_or(|st| st.open_since().is_some() || st.closed().is_some())
    }
}

/// Incremental golden-vs-faulty classifier that reaches
/// [`classify`](crate::classify::classify)'s verdict through the same
/// lattice and seals the outcome as soon as no future observation can
/// change it.
///
/// Feed it watermarks with the faulty trace so far
/// ([`OnlineClassifier::observe`]) or a word lane's toggles
/// ([`OnlineClassifier::observe_toggles`]); once
/// [`OnlineClassifier::sealed`] returns an outcome further observations
/// are ignored.
#[derive(Debug, Clone)]
pub struct OnlineClassifier {
    golden: Golden,
    injected_at: Time,
    settle: Time,
    /// Per monitored name, in the spec's order.
    signals: Vec<SigState>,
    /// Observations below this watermark are skipped: kernels poll every
    /// few dozen sync steps (tens of ns of simulated time) while seals
    /// move at settle-window granularity (µs), so checking every poll
    /// costs more than early abort saves. Throttling to `settle / 8`
    /// bounds the added seal latency at 12.5 % of the settle window.
    next_check: Time,
    /// How many of a word lane's toggles the streams have been fed.
    fed: usize,
    /// Set when streaming comparison can no longer decide the case soundly
    /// (non-finite samples). The case then always runs to completion.
    inert: bool,
    sealed: Option<CaseOutcome>,
}

impl OnlineClassifier {
    /// Builds a classifier for one fault case against `golden`.
    ///
    /// `injected_at` is the injection instant (quiescence is only
    /// meaningful after it); the settle window is the spec's
    /// [`ClassifySpec::settle`](crate::ClassifySpec::settle), else its
    /// recovery margin, clamped to at least the merge gap (a mismatch
    /// inside the gap would merge into a "closed" interval) and one
    /// femtosecond.
    pub fn new(golden: Golden, injected_at: Time) -> Self {
        let spec = &golden.spec;
        let settle = spec
            .settle
            .unwrap_or(spec.recovery)
            .max(spec.merge_gap)
            .max(Time::RESOLUTION);
        let (from, to) = spec.window;
        // A non-finite golden sample in the window makes the whole case a
        // sim-failure under post-hoc precedence rules; never seal.
        let inert = spec.signals().any(|(name, _)| {
            golden
                .trace
                .analog(name)
                .and_then(|w| first_non_finite(w, from, to))
                .is_some()
        });
        let signals = spec.signals().map(|_| SigState::default()).collect();
        OnlineClassifier {
            golden,
            injected_at,
            settle,
            signals,
            next_check: Time::ZERO,
            fed: 0,
            inert,
            sealed: None,
        }
    }

    /// The sealed outcome, if the verdict has been decided.
    pub fn sealed(&self) -> Option<&CaseOutcome> {
        self.sealed.as_ref()
    }

    /// True when the classifier has given up on sealing (non-finite data);
    /// the case will run to completion and be classified post-hoc.
    pub fn is_inert(&self) -> bool {
        self.inert
    }

    /// Ingests all faulty-trace data final below `watermark`.
    ///
    /// The finality contract matches the kernel observer hooks: every
    /// record in `view` strictly below `watermark` is frozen; the instant
    /// itself may still gain records. Digital streams therefore advance to
    /// `watermark - skew - 1 fs`, analog streams to
    /// `min(watermark, last faulty sample)` (interpolation beyond the last
    /// sample is not final).
    pub fn observe(&mut self, watermark: Time, view: &TraceView<'_>) {
        self.check(watermark, view, |cl| cl.feed_trace(watermark, view));
    }

    /// Ingests a word lane's toggles final below `watermark`: `toggles`
    /// holds every one so far, `untouched` the monitored golden slots the
    /// lane has not recorded yet (the signals it has not changed).
    pub fn observe_toggles(
        &mut self,
        watermark: Time,
        toggles: &MismatchToggles,
        untouched: &[DigitalSlot],
    ) {
        // A lane's streams finish without the trace it never recorded.
        let feed = |cl: &mut Self| cl.feed_toggles(watermark, toggles, untouched);
        self.check(watermark, &TraceView::new(&[]), feed);
    }

    /// Feeds what `feed` shows, then seals the verdict if it can.
    fn check(
        &mut self,
        watermark: Time,
        view: &TraceView<'_>,
        feed: impl FnOnce(&mut Self) -> bool,
    ) {
        if self.sealed.is_some() || self.inert {
            return;
        }
        let (from, to) = self.golden.spec.window;
        if to < from {
            return; // degenerate window: leave it to the post-hoc path
        }
        // Watermarks at or past the window end are always processed (the
        // window-complete seal must not be throttled away); in between,
        // check at settle-window granularity only.
        if watermark < self.next_check && watermark < to {
            return;
        }
        self.next_check = watermark.saturating_add(self.settle / 8);
        if !feed(self) {
            return;
        }
        let outcome = self
            .try_seal_complete(view)
            .or_else(|| self.try_seal_permanent())
            .or_else(|| self.try_seal_quiescent());
        if let Some(mut outcome) = outcome {
            outcome.sealed_at = Some(watermark);
            self.sealed = Some(outcome);
        }
    }

    /// Advances the streams over traces; true when all started, none inert.
    fn feed_trace(&mut self, watermark: Time, view: &TraceView<'_>) -> bool {
        let Golden { spec, trace, .. } = &self.golden;
        let (from, to) = spec.window;
        for ((name, _), sig) in spec.signals().zip(&mut self.signals) {
            let resolved = resolve(trace, view, name);
            if sig.stream.is_none() {
                sig.stream = match resolved {
                    Resolved::Digital(..) => Some(SigStream::Digital(spec.digital_stream())),
                    Resolved::Analog(..) => Some(SigStream::Analog(spec.analog_stream())),
                    Resolved::Uncomparable => {
                        let in_golden =
                            trace.digital(name).is_some() || trace.analog(name).is_some();
                        (!in_golden).then_some(SigStream::MissingInGolden)
                    }
                };
            }
            match (&mut sig.stream, resolved) {
                (Some(SigStream::Digital(stream)), Resolved::Digital(golden, faulty)) => {
                    let upto = watermark - spec.digital_skew - Time::RESOLUTION;
                    stream.advance(golden, faulty, upto);
                }
                (Some(SigStream::Analog(stream)), Resolved::Analog(golden, faulty)) => {
                    // Only samples strictly below the watermark are
                    // frozen: a sample *at* the watermark may still be
                    // overwritten (same-time pushes replace the value),
                    // which would retroactively change interpolated
                    // values below it. Scan and advance up to the last
                    // frozen sample only.
                    let samples = faulty.samples();
                    let frozen = samples.partition_point(|&(t, _)| t < watermark);
                    while sig.scanned < frozen {
                        let (t, v) = samples[sig.scanned];
                        sig.scanned += 1;
                        if t >= from && t <= to && !v.is_finite() {
                            self.inert = true;
                        }
                    }
                    if frozen > 0 {
                        stream.advance(golden, faulty, samples[frozen - 1].0);
                    }
                }
                _ => {}
            }
        }
        !self.inert && self.signals.iter().all(|s| s.stream.is_some())
    }

    /// Advances the streams over a word lane's toggles, on the golden slots
    /// the names resolve to; true when the lane has touched every one.
    fn feed_toggles(
        &mut self,
        watermark: Time,
        toggles: &MismatchToggles,
        untouched: &[DigitalSlot],
    ) -> bool {
        let Golden { spec, trace, slots } = &self.golden;
        self.inert |= spec.digital_skew != Time::ZERO; // toggles carry no skew
        if self.signals.iter().any(|s| s.stream.is_none()) {
            for (sig, slot) in self.signals.iter_mut().zip(slots.iter()) {
                let stream = slot.map(|slot| SigStream::Toggles(slot, spec.toggle_stream()));
                sig.stream = Some(stream.unwrap_or(SigStream::MissingInGolden));
            }
        }
        let upto = watermark - Time::RESOLUTION;
        let fresh = toggles
            .iter()
            .skip(self.fed)
            .take_while(|&(t, _)| t <= upto);
        for (t, slot) in fresh {
            self.fed += 1;
            for sig in &mut self.signals {
                match &mut sig.stream {
                    Some(SigStream::Toggles(s, stream)) if *s == slot => stream.toggle(t),
                    _ => {}
                }
            }
        }
        let mut started = !self.inert;
        for sig in &mut self.signals {
            if let Some(SigStream::Toggles(slot, stream)) = &mut sig.stream {
                stream.advance(trace.digital_at(*slot).expect("a recorded slot"), upto);
                started &= !untouched.contains(slot);
            }
        }
        started
    }

    /// Every signal's divergence as of now, in the spec's order.
    /// `settled` counts a mismatch still open as unrecovered: held through a
    /// full settle window, it is predicted to persist to the window end.
    fn divergences(&self, settled: bool) -> impl Iterator<Item = (&str, bool, Option<Divergence>)> {
        let spec = &self.golden.spec;
        spec.signals()
            .zip(&self.signals)
            .map(move |((name, output), sig)| {
                let divergence = match sig.state() {
                    Some(st) => Divergence::as_of(spec, st).map(|d| Divergence {
                        unrecovered: d.unrecovered || (settled && st.open_since().is_some()),
                        ..d
                    }),
                    None => Some(Divergence::full_window(spec)),
                };
                (name, output, divergence)
            })
    }

    /// Seal 3: every stream has processed the whole window — finish them
    /// all, and the verdict is the post-hoc one by construction.
    fn try_seal_complete(&mut self, view: &TraceView<'_>) -> Option<CaseOutcome> {
        let Golden { spec, trace, .. } = &self.golden;
        let to = spec.window.1;
        let behind = |s: &SigState| s.state().is_some_and(|st| st.processed_to() < to);
        if self.signals.iter().any(behind) {
            return None;
        }
        for ((name, _), sig) in spec.signals().zip(&mut self.signals) {
            match (&mut sig.stream, resolve(trace, view, name)) {
                (Some(SigStream::Digital(stream)), Resolved::Digital(golden, faulty)) => {
                    stream.finish(golden, faulty);
                }
                (Some(SigStream::Analog(stream)), Resolved::Analog(golden, faulty)) => {
                    stream.finish(golden, faulty);
                }
                (Some(SigStream::Toggles(_, stream)), _) => {
                    stream.finish();
                }
                _ => {}
            }
        }
        Some(fold(self.divergences(false)))
    }

    /// Seal 1: all monitored signals have diverged (so the affected set is
    /// complete) and the lattice already says `Failure` — an output's
    /// divergence reaches the recovery horizon, so no future observation
    /// can downgrade it. The check reads that rule of the lattice off the
    /// divergences; the outcome, with its `affected` list, is built only
    /// for the seal.
    fn try_seal_permanent(&self) -> Option<CaseOutcome> {
        let fails = |(_, output, d): (&str, bool, Option<Divergence>)| {
            output && d.is_some_and(|d| d.unrecovered)
        };
        let failed =
            self.signals.iter().all(SigState::diverged) && self.divergences(false).any(fails);
        failed.then(|| fold(self.divergences(false)))
    }

    /// Seal 2: every signal's comparison state has held unchanged through
    /// the settle window — clean signals stayed clean since injection (or
    /// their last re-convergence), diverged signals stayed continuously
    /// diverged since their mismatch opened.
    ///
    /// Closed intervals are final and decide the lattice exactly; an open
    /// mismatch held a full settle window is predicted to persist to the
    /// window end (the stuck/unlocked regime), which makes an open output
    /// `Failure` and an open internal unrecovered. Any re-convergence
    /// observation closes the interval and restarts the quiescence clock,
    /// so beat/re-lock patterns fall through to a later, better-informed
    /// seal instead of a wrong one. `error_end` / `total_mismatch` for
    /// still-open divergences are as-of-seal lower bounds.
    fn try_seal_quiescent(&self) -> Option<CaseOutcome> {
        // The quiescence clock is global: every signal must have held its
        // state since the *latest* state change across all signals. A
        // recent recovery on one signal delays the whole seal, because
        // cross-coupled dynamics (one loop's re-lock) can disturb another
        // signal that currently looks settled. A signal missing from golden
        // is definitively diverged: it neither blocks nor delays quiescence.
        let mut quiet_since = self.injected_at.max(self.golden.spec.window.0);
        let mut min_limit = Time::MAX;
        let mut any_open = false;
        for st in self.signals.iter().filter_map(SigState::state) {
            // The comparison state last changed when the current open
            // mismatch opened, or when the last closed interval
            // re-converged.
            let open = st.open_since();
            if let Some(t) = open.max(st.closed().map(|c| c.last)) {
                quiet_since = quiet_since.max(t);
            }
            any_open |= open.is_some();
            min_limit = min_limit.min(st.processed_to());
        }
        if min_limit < quiet_since.saturating_add(self.settle) {
            return None;
        }
        // The clean-stays-clean prediction is only trustworthy once the
        // system has *globally* re-converged. While any mismatch is still
        // open, corruption is actively propagating and a so-far-clean
        // signal may yet join the affected set (a corrupted checksum
        // exposes its high bits only when later carries reach them), so the
        // seal then also requires every signal to have already diverged —
        // making the affected set complete, as the permanent seal does.
        if any_open && !self.signals.iter().all(SigState::diverged) {
            return None;
        }
        Some(fold(self.divergences(true)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, ClassifySpec, FaultClass};
    use amsfi_waves::{Logic, Trace};
    use std::sync::Arc;

    const US: i64 = 1_000;

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

    /// A classifier of a case injected at `injected_at` against `golden`.
    fn online(spec: ClassifySpec, golden: &Trace, injected_at: Time) -> OnlineClassifier {
        OnlineClassifier::new(Golden::new(spec, Arc::new(golden.clone())), injected_at)
    }

    /// Drives the classifier over `faulty` with watermarks every `step_ns`
    /// until it seals or passes `until_ns`; returns the seal if any.
    fn drive(
        cl: &mut OnlineClassifier,
        faulty: &Trace,
        step_ns: i64,
        until_ns: i64,
    ) -> Option<CaseOutcome> {
        let mut t = 0;
        while t <= until_ns + step_ns {
            let parts = [faulty];
            cl.observe(Time::from_ns(t), &TraceView::new(&parts));
            if cl.sealed().is_some() {
                return cl.sealed().cloned();
            }
            t += step_ns;
        }
        None
    }

    #[test]
    fn clean_case_seals_no_effect_after_settle() {
        let golden = golden();
        let mut cl = online(
            spec().with_settle(Time::from_ns(500)),
            &golden,
            Time::from_ns(100),
        );
        let faulty = trace_with(&[(0, Logic::Zero)], &[(0, Logic::Zero)]);
        let sealed = drive(&mut cl, &faulty, 50, 2 * US).expect("seals well before window end");
        assert_eq!(sealed.class, FaultClass::NoEffect);
        assert!(sealed.sealed_at.unwrap() < Time::from_us(2));
        assert_eq!(cl.sealed(), Some(&sealed), "the seal stays");
        // The sealed verdict matches the post-hoc classifier.
        assert_eq!(sealed.class, classify(&spec(), &golden, &faulty).class);
    }

    #[test]
    fn no_seal_before_injection_plus_settle() {
        let spec = spec().with_settle(Time::from_us(1));
        let mut cl = online(spec, &golden(), Time::from_us(5));
        let faulty = trace_with(&[(0, Logic::Zero)], &[(0, Logic::Zero)]);
        let parts = [&faulty];
        cl.observe(Time::from_us(4), &TraceView::new(&parts));
        assert!(cl.sealed().is_none(), "fault not injected yet");
        cl.observe(
            Time::from_us(5) + Time::from_ns(500),
            &TraceView::new(&parts),
        );
        assert!(cl.sealed().is_none(), "settle window not elapsed");
        cl.observe(Time::from_us(7), &TraceView::new(&parts));
        assert_eq!(cl.sealed().unwrap().class, FaultClass::NoEffect);
    }

    #[test]
    fn transient_seals_after_reconvergence_and_matches_post_hoc() {
        let golden_t = golden();
        let spec = spec();
        let faulty = trace_with(
            &[(0, Logic::Zero), (100, Logic::One), (200, Logic::Zero)],
            &[(0, Logic::Zero)],
        );
        let post_hoc = classify(&spec, &golden_t, &faulty);
        assert_eq!(post_hoc.class, FaultClass::Transient);
        let mut cl = online(
            spec.with_settle(Time::from_ns(400)),
            &golden_t,
            Time::from_ns(50),
        );
        let sealed = drive(&mut cl, &faulty, 25, 2 * US).expect("seals");
        assert_eq!(sealed.class, post_hoc.class);
        assert_eq!(sealed.error_onset, post_hoc.error_onset);
        assert_eq!(sealed.affected, post_hoc.affected);
        assert!(sealed.sealed_at.unwrap() < Time::from_us(1));
    }

    #[test]
    fn stuck_divergence_seals_failure_after_settle() {
        let golden_t = golden();
        let spec = spec();
        // Both signals stuck wrong from 100 ns on: once the mismatch has
        // stayed open through the settle window the quiescent seal predicts
        // it permanent and seals Failure — long before the recovery horizon
        // at 9.5 µs.
        let faulty = trace_with(
            &[(0, Logic::Zero), (100, Logic::One)],
            &[(0, Logic::Zero), (100, Logic::One)],
        );
        let post_hoc = classify(&spec, &golden_t, &faulty);
        assert_eq!(post_hoc.class, FaultClass::Failure);
        let mut cl = online(
            spec.with_settle(Time::from_ns(500)),
            &golden_t,
            Time::from_ns(50),
        );
        let sealed = drive(&mut cl, &faulty, 50, 11 * US).expect("seals");
        assert_eq!(sealed.class, FaultClass::Failure);
        assert_eq!(sealed.error_onset, post_hoc.error_onset);
        assert_eq!(sealed.affected, post_hoc.affected);
        assert!(
            sealed.sealed_at.unwrap() < Time::from_us(1),
            "sealed at the settle window, not the horizon: {:?}",
            sealed.sealed_at
        );
    }

    #[test]
    fn permanent_seal_fires_at_horizon_when_settle_is_long() {
        let golden_t = golden();
        let spec = spec();
        // With a settle window longer than the run, only the
        // exact-certainty permanent seal can fire: the mismatch must be
        // *held* past the recovery horizon (10 µs - 500 ns), not a moment
        // earlier.
        let faulty = trace_with(
            &[(0, Logic::Zero), (100, Logic::One)],
            &[(0, Logic::Zero), (100, Logic::One)],
        );
        let post_hoc = classify(&spec, &golden_t, &faulty);
        assert_eq!(post_hoc.class, FaultClass::Failure);
        let mut cl = online(
            spec.with_settle(Time::from_us(100)),
            &golden_t,
            Time::from_ns(50),
        );
        let parts = [&faulty];
        cl.observe(Time::from_us(5), &TraceView::new(&parts));
        assert!(cl.sealed().is_none(), "horizon not reached");
        let sealed = drive(&mut cl, &faulty, 100, 11 * US).expect("seals at the horizon");
        assert_eq!(sealed.class, FaultClass::Failure);
        assert_eq!(sealed.error_onset, post_hoc.error_onset);
        assert_eq!(sealed.affected, post_hoc.affected);
    }

    #[test]
    fn episode_shorter_than_settle_never_predicted_permanent() {
        let golden_t = golden();
        let spec = spec();
        // A single 500 ns divergence episode under an 800 ns settle window:
        // the open mismatch is never *held* long enough for the permanence
        // bet, the re-convergence restarts the clock, and the case seals as
        // the transient it is.
        let faulty = trace_with(
            &[(0, Logic::Zero), (100, Logic::One), (600, Logic::Zero)],
            &[(0, Logic::Zero)],
        );
        let post_hoc = classify(&spec, &golden_t, &faulty);
        assert_eq!(post_hoc.class, FaultClass::Transient);
        let mut cl = online(
            spec.with_settle(Time::from_ns(800)),
            &golden_t,
            Time::from_ns(50),
        );
        let sealed = drive(&mut cl, &faulty, 25, 3 * US).expect("seals");
        assert_eq!(sealed.class, post_hoc.class);
        assert_eq!(sealed.error_onset, post_hoc.error_onset);
        assert_eq!(sealed.affected, post_hoc.affected);
        assert!(sealed.sealed_at.unwrap() >= Time::from_ns(600 + 800));
    }

    #[test]
    fn divergence_inside_settle_window_prevents_early_seal() {
        let golden_t = golden();
        let spec = spec();
        // Recover at 200 ns, then diverge again at 400 ns — inside the
        // 500 ns settle window. The re-divergence restarts the quiescence
        // clock, so the classifier keeps watching and agrees with the
        // post-hoc verdict instead of sealing a false transient.
        let faulty = trace_with(
            &[
                (0, Logic::Zero),
                (100, Logic::One),
                (200, Logic::Zero),
                (400, Logic::One),
            ],
            &[(0, Logic::Zero)],
        );
        let post_hoc = classify(&spec, &golden_t, &faulty);
        assert_eq!(post_hoc.class, FaultClass::Failure);
        let mut cl = online(
            spec.with_settle(Time::from_ns(500)),
            &golden_t,
            Time::from_ns(50),
        );
        let sealed = drive(&mut cl, &faulty, 10, 11 * US).expect("eventually seals");
        assert_eq!(sealed.class, post_hoc.class);
        assert_eq!(sealed.error_onset, post_hoc.error_onset);
        assert_eq!(sealed.affected, post_hoc.affected);
    }

    #[test]
    fn non_finite_faulty_sample_makes_classifier_inert() {
        let mut golden_t = Trace::new();
        golden_t.record_analog("out", Time::ZERO, 2.5).unwrap();
        golden_t
            .record_analog("out", Time::from_us(10), 2.5)
            .unwrap();
        let spec = ClassifySpec::new((Time::ZERO, Time::from_us(10)), vec!["out".to_owned()]);
        let mut faulty = Trace::new();
        faulty.record_analog("out", Time::ZERO, 2.5).unwrap();
        faulty
            .record_analog("out", Time::from_us(3), f64::NAN)
            .unwrap();
        faulty.record_analog("out", Time::from_us(10), 2.5).unwrap();
        let mut cl = online(spec, &golden_t, Time::from_us(1));
        assert!(drive(&mut cl, &faulty, 100, 12 * US).is_none());
        assert!(cl.is_inert());
        assert!(cl.sealed().is_none());
    }

    #[test]
    fn non_finite_golden_sample_is_inert_from_construction() {
        let mut golden_t = Trace::new();
        golden_t.record_analog("out", Time::ZERO, 2.5).unwrap();
        golden_t
            .record_analog("out", Time::from_us(5), f64::INFINITY)
            .unwrap();
        let spec = ClassifySpec::new((Time::ZERO, Time::from_us(10)), vec!["out".to_owned()]);
        let cl = online(spec, &golden_t, Time::ZERO);
        assert!(cl.is_inert());
    }

    #[test]
    fn signal_missing_from_golden_blocks_convergence_and_seals_failure() {
        let spec = ClassifySpec::new((Time::ZERO, Time::from_us(10)), vec!["ghost".to_owned()]);
        let golden_t = golden();
        let faulty = trace_with(&[(0, Logic::Zero)], &[(0, Logic::Zero)]);
        let post_hoc = classify(&spec, &golden_t, &faulty);
        assert_eq!(post_hoc.class, FaultClass::Failure);
        let mut cl = online(spec.with_settle(Time::from_ns(100)), &golden_t, Time::ZERO);
        let sealed = drive(&mut cl, &faulty, 100, 11 * US).expect("seals");
        assert_eq!(sealed.class, FaultClass::Failure);
        assert_eq!(sealed.error_onset, post_hoc.error_onset);
        assert_eq!(sealed.affected, post_hoc.affected);
    }

    #[test]
    fn unresolved_faulty_signal_never_seals() {
        // Golden records "out"; the faulty run never does. Post-hoc this is
        // a full-window mismatch (Failure), but online the stream stays
        // unresolved and must not guess.
        let spec = ClassifySpec::new((Time::ZERO, Time::from_us(10)), vec!["out".to_owned()]);
        let faulty = Trace::new();
        let mut cl = online(spec.with_settle(Time::from_ns(100)), &golden(), Time::ZERO);
        assert!(drive(&mut cl, &faulty, 100, 12 * US).is_none());
    }

    #[test]
    fn window_complete_seal_equals_post_hoc_exactly() {
        let golden_t = golden();
        let spec = spec();
        let faulty = trace_with(
            &[(0, Logic::Zero), (100, Logic::One), (300, Logic::Zero)],
            &[(0, Logic::Zero), (150, Logic::One)],
        );
        let post_hoc = classify(&spec, &golden_t, &faulty);
        // A settle window longer than the run: only the window-complete
        // seal can fire.
        let mut cl = online(
            spec.with_settle(Time::from_us(100)),
            &golden_t,
            Time::from_ns(50),
        );
        let parts = [&faulty];
        cl.observe(Time::from_us(11), &TraceView::new(&parts));
        let sealed = cl.sealed().expect("window fully processed").clone();
        assert_eq!(sealed.class, post_hoc.class);
        assert_eq!(sealed.error_onset, post_hoc.error_onset);
        assert_eq!(sealed.error_end, post_hoc.error_end);
        assert_eq!(sealed.total_mismatch, post_hoc.total_mismatch);
        assert_eq!(sealed.affected, post_hoc.affected);
    }

    #[test]
    fn toggle_fed_classifier_waits_for_every_slot_to_be_touched() {
        // A word lane that differs nowhere, shown its (empty) toggles: it
        // cannot seal while it has not touched `state`, which golden
        // recorded, and seals no-effect once it has. A skewed comparison,
        // which toggles cannot express, leaves the classifier inert.
        let golden = golden();
        let state = golden.recorded_digital_slot("state").unwrap();
        let spec = spec().with_settle(Time::from_ns(500));
        let none = MismatchToggles::new();
        let mut cl = online(spec.clone(), &golden, Time::from_ns(100));
        cl.observe_toggles(Time::from_us(2), &none, &[state]);
        assert!(cl.sealed().is_none(), "an untouched slot blocks the seal");
        cl.observe_toggles(Time::from_us(3), &none, &[]);
        let sealed = cl.sealed().expect("seals once touched");
        assert_eq!(sealed.class, FaultClass::NoEffect);
        assert_eq!(sealed.sealed_at, Some(Time::from_us(3)));

        let skewed = spec.with_digital_skew(Time::from_ns(1));
        let mut cl = online(skewed, &golden, Time::ZERO);
        cl.observe_toggles(Time::from_us(3), &none, &[]);
        assert!(cl.is_inert() && cl.sealed().is_none());
    }

    #[test]
    fn observations_after_seal_are_ignored() {
        let faulty = trace_with(&[(0, Logic::Zero)], &[(0, Logic::Zero)]);
        let mut cl = online(
            spec().with_settle(Time::from_ns(100)),
            &golden(),
            Time::ZERO,
        );
        let sealed = drive(&mut cl, &faulty, 50, US).expect("seals");
        let parts = [&faulty];
        cl.observe(Time::from_us(9), &TraceView::new(&parts));
        assert_eq!(cl.sealed(), Some(&sealed));
    }
}
