//! Streaming (single-pass) golden-vs-faulty comparison.
//!
//! The batch comparators in `compare` resolve every observation time with
//! `value_at()` — a binary search per observation, O(n log n) per signal —
//! and need the complete faulty wave up front. This module is the O(n)
//! replacement: monotone *merge cursors* walk both waves exactly once,
//! feeding an incremental interval builder, and — because they never look
//! past a caller-supplied bound — they can run *while the faulty wave is
//! still being recorded*. That is the substrate for early-verdict
//! classification: an online classifier advances each signal's stream to
//! the frozen prefix of the faulty trace between simulation steps (via a
//! [`SimObserver`] hook installed on the kernel) and seals the verdict the
//! moment no future observation can change it.
//!
//! # Finality contract
//!
//! A caller advancing a stream to `upto` asserts that both waves are
//! *final* up to and including `upto`: every recorded point at `t <= upto`
//! is immutable and no point with `t <= upto` will be appended later. The
//! simulation kernels guarantee this for any time *strictly below* their
//! current watermark — they only append at or after the instant they are
//! currently executing (a mixed-signal digitizer crossing may clamp an
//! injected edge back to the current sync-step start, so the watermark
//! instant itself is not yet final). Digital comparisons with an edge-skew
//! tolerance additionally read values at `t + skew`, so their safe bound is
//! `watermark - skew` (exclusive); analog comparisons interpolate, so their
//! safe bound is `min(watermark, last faulty sample)`.

use crate::{
    AnalogWave, DigitalWave, GuardViolation, Logic, MismatchInterval, SignalComparison, Time,
    Tolerance, Trace,
};
use std::fmt;

/// Default number of kernel steps between [`SimObserver`] hook invocations.
///
/// Matches the clock-probe stride of the simulation budgets: frequent
/// enough that a sealed case stops within microseconds of simulated time,
/// rare enough that the hook costs nothing measurable per step.
pub const OBSERVER_STRIDE: u32 = 64;

/// A monotone replacement for [`DigitalWave::value_at`]: amortized O(1)
/// per query as long as query times never decrease.
#[derive(Debug, Clone, Copy, Default)]
struct DigitalValueCursor {
    /// Number of transitions at or before the last queried time.
    idx: usize,
}

impl DigitalValueCursor {
    fn value_at(&mut self, wave: &DigitalWave, t: Time) -> Logic {
        let tr = wave.transitions();
        while self.idx < tr.len() && tr[self.idx].0 <= t {
            self.idx += 1;
        }
        if self.idx == 0 {
            Logic::Uninitialized
        } else {
            tr[self.idx - 1].1
        }
    }
}

/// A monotone replacement for [`AnalogWave::value_at`]: amortized O(1)
/// per query as long as query times never decrease.
#[derive(Debug, Clone, Copy, Default)]
struct AnalogValueCursor {
    /// Number of samples at or before the last queried time.
    idx: usize,
}

impl AnalogValueCursor {
    fn value_at(&mut self, wave: &AnalogWave, t: Time) -> f64 {
        let s = wave.samples();
        if s.is_empty() {
            return 0.0;
        }
        while self.idx < s.len() && s[self.idx].0 <= t {
            self.idx += 1;
        }
        if self.idx == 0 {
            return s[0].1;
        }
        if self.idx == s.len() {
            return s[self.idx - 1].1;
        }
        let (t0, v0) = s[self.idx - 1];
        let (t1, v1) = s[self.idx];
        let frac = (t - t0).as_fs() as f64 / (t1 - t0).as_fs() as f64;
        v0 + (v1 - v0) * frac
    }
}

/// Sentinel for "nothing observed yet" — below every representable time.
const UNSET: Time = Time::from_fs(i64::MIN);

/// The domain-independent half of a streaming comparison, embedded in
/// [`DigitalStream`], [`AnalogStream`] and [`ToggleStream`]: the window,
/// the incremental interval builder and the finality bound.
///
/// The builder is the incremental equivalent of the batch one: a
/// mismatching observation extends to the next observation, and intervals
/// closer than `merge_gap` fuse. Feeding the same `(time, matched)`
/// sequence produces byte-identical intervals. What a verdict reads of them
/// is kept up to date as they close ([`StreamState::closed`]); the list
/// itself only by a stream that reports it.
#[derive(Debug, Clone)]
pub struct StreamState {
    from: Time,
    to: Time,
    merge_gap: Time,
    /// Every closed interval before `latest`, for a stream whose `finish`
    /// returns them all; `None` for one read through `closed` alone.
    earlier: Option<Vec<MismatchInterval>>,
    /// The most recently closed interval: the one a new mismatch may fuse
    /// with.
    latest: Option<MismatchInterval>,
    /// Start of the first closed interval (meaningful once `latest` is
    /// set) and the summed length of all of them.
    first: Time,
    total: Time,
    /// The previous observation mismatched at this time; its interval stays
    /// open until the next observation closes (and bounds) it.
    open: Option<Time>,
    last_obs: Time,
    limit: Time,
    finished: bool,
}

/// What the closed mismatch intervals of a [`StreamState`] amount to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedMismatch {
    /// Start of the first interval.
    pub first: Time,
    /// End of the last interval.
    pub last: Time,
    /// Summed length of all of them.
    pub total: Time,
}

impl StreamState {
    fn new(from: Time, to: Time, merge_gap: Time, listed: bool) -> Self {
        StreamState {
            from,
            to,
            merge_gap,
            earlier: listed.then(Vec::new),
            latest: None,
            first: UNSET,
            total: Time::ZERO,
            open: None,
            last_obs: UNSET,
            limit: UNSET,
            finished: false,
        }
    }

    #[inline]
    fn observe(&mut self, t: Time, matched: bool) {
        if let Some(from) = self.open.take() {
            self.push(from, t);
        }
        if !matched {
            self.open = Some(t);
        }
        self.last_obs = t;
    }

    #[inline]
    fn push(&mut self, from: Time, end: Time) {
        match &mut self.latest {
            Some(latest) if from - latest.to <= self.merge_gap => {
                let to = latest.to.max(end);
                self.total += to - latest.to;
                latest.to = to;
            }
            _ => {
                self.total += end - from;
                match self.latest.replace(MismatchInterval { from, to: end }) {
                    None => self.first = from,
                    Some(done) => {
                        if let Some(earlier) = &mut self.earlier {
                            earlier.push(done);
                        }
                    }
                }
            }
        }
    }

    /// Raises the finality bound to `upto` (clamped to the window end) and
    /// returns it, or `None` when there is nothing to process below it: the
    /// stream is finished or the bound is still before the window.
    fn raise(&mut self, upto: Time) -> Option<Time> {
        if self.finished {
            return None;
        }
        let cap = upto.min(self.to);
        self.limit = self.limit.max(cap);
        (cap >= self.from).then_some(cap)
    }

    /// The window-closing observations still owed once everything up to
    /// `to` is processed: `to` itself unless already observed — or, for a
    /// degenerate inverted window (nothing observed, `from > to`), `to`
    /// then `from`, the order the batch path's sorted sentinels give.
    fn sentinels(&self) -> [Option<Time>; 2] {
        [self.to, self.from].map(|t| (!self.finished && t > self.last_obs).then_some(t))
    }

    /// Closes a still-open mismatch at its own time: it was the final
    /// observation, so it extends no further.
    fn close(&mut self) {
        if let Some(from) = self.open.take() {
            self.push(from, from);
        }
        self.finished = true;
    }

    /// [`StreamState::close`], returning every interval of a listed stream.
    fn seal(&mut self) -> SignalComparison {
        self.close();
        let earlier = self.earlier.iter().flatten();
        SignalComparison {
            mismatches: earlier.chain(&self.latest).copied().collect(),
        }
    }

    /// The mismatch intervals closed so far, summed up; `None` while none
    /// has (an open mismatch is not included until the observation that
    /// bounds it — see [`StreamState::open_since`]).
    pub fn closed(&self) -> Option<ClosedMismatch> {
        self.latest.map(|latest| ClosedMismatch {
            first: self.first,
            last: latest.to,
            total: self.total,
        })
    }

    /// Start of the currently open (still mismatching) interval, if any.
    pub fn open_since(&self) -> Option<Time> {
        self.open
    }

    /// The highest finality bound processed so far, clamped to the window
    /// end.
    pub fn processed_to(&self) -> Time {
        self.limit
    }
}

/// One merged observation-time source: the transition/sample times of one
/// wave, shifted by `offset` (the `±skew` expansion of the batch path).
#[derive(Debug, Clone, Copy)]
struct ObsSource {
    /// `true` reads the golden wave, `false` the faulty wave.
    golden: bool,
    offset: Time,
    idx: usize,
}

/// A streaming digital comparator: equivalent to the batch
/// `compare_digital_with_skew`, but incremental and O(n).
///
/// Feed it monotonically increasing finality bounds with
/// [`DigitalStream::advance`]; read partial state any time through
/// [`DigitalStream::state`]; obtain the exact batch result with
/// [`DigitalStream::finish`] once both waves are complete.
#[derive(Debug, Clone)]
pub struct DigitalStream {
    state: StreamState,
    skew: Time,
    sources: [ObsSource; 6],
    nsources: usize,
    f_at: DigitalValueCursor,
    g_at: DigitalValueCursor,
    g_minus: DigitalValueCursor,
    g_plus: DigitalValueCursor,
}

impl DigitalStream {
    /// A stream comparing over `[from, to]` with the given merge gap and
    /// edge-skew tolerance (the exact parameters of the batch path).
    pub fn new(from: Time, to: Time, merge_gap: Time, skew: Time) -> Self {
        let mut sources = [ObsSource {
            golden: true,
            offset: Time::ZERO,
            idx: 0,
        }; 6];
        let offsets: &[Time] = if skew > Time::ZERO {
            &[Time::ZERO, -skew, skew]
        } else {
            &[Time::ZERO]
        };
        let mut n = 0;
        for &golden in &[true, false] {
            for &offset in offsets {
                sources[n] = ObsSource {
                    golden,
                    offset,
                    idx: 0,
                };
                n += 1;
            }
        }
        DigitalStream {
            state: StreamState::new(from, to, merge_gap, true),
            skew,
            sources,
            nsources: n,
            f_at: DigitalValueCursor::default(),
            g_at: DigitalValueCursor::default(),
            g_minus: DigitalValueCursor::default(),
            g_plus: DigitalValueCursor::default(),
        }
    }

    fn observe(&mut self, golden: &DigitalWave, faulty: &DigitalWave, t: Time) {
        let f = self.f_at.value_at(faulty, t).to_x01();
        let matched = if self.g_at.value_at(golden, t).to_x01() == f {
            true
        } else {
            self.skew > Time::ZERO
                && (self.g_minus.value_at(golden, t - self.skew).to_x01() == f
                    || self.g_plus.value_at(golden, t + self.skew).to_x01() == f)
        };
        self.state.observe(t, matched);
    }

    /// Processes every observation at `t <= min(upto, to)` not yet
    /// processed. Both waves must be final up to `upto + skew` (see the
    /// module-level finality contract).
    pub fn advance(&mut self, golden: &DigitalWave, faulty: &DigitalWave, upto: Time) {
        let Some(cap) = self.state.raise(upto) else {
            return;
        };
        if self.state.last_obs == UNSET {
            self.observe(golden, faulty, self.state.from);
        }
        loop {
            let mut best: Option<Time> = None;
            for i in 0..self.nsources {
                let src = &mut self.sources[i];
                let tr = if src.golden {
                    golden.transitions()
                } else {
                    faulty.transitions()
                };
                while src.idx < tr.len() && tr[src.idx].0 + src.offset <= self.state.last_obs {
                    src.idx += 1;
                }
                if src.idx < tr.len() {
                    let t = tr[src.idx].0 + src.offset;
                    if t <= cap && best.is_none_or(|b| t < b) {
                        best = Some(t);
                    }
                }
            }
            match best {
                Some(t) => self.observe(golden, faulty, t),
                None => break,
            }
        }
    }

    /// Processes everything up to the window end, emits the closing
    /// sentinel observation and returns the completed comparison. Requires
    /// both waves to be fully recorded. Idempotent.
    pub fn finish(&mut self, golden: &DigitalWave, faulty: &DigitalWave) -> SignalComparison {
        self.advance(golden, faulty, self.state.to);
        for t in self.state.sentinels().into_iter().flatten() {
            self.observe(golden, faulty, t);
        }
        self.state.seal()
    }

    /// The comparison state as of the last finality bound.
    pub fn state(&self) -> &StreamState {
        &self.state
    }
}

/// A digital comparator fed where the comparison flips instead of the two
/// waves: the instants at which the faulty value, reduced to X01, starts or
/// stops differing from the golden one — a slot's entries of
/// [`MismatchToggles`](crate::MismatchToggles). Both waves start
/// `'U'`, so the comparison starts matched.
///
/// It arrives at the [`StreamState`] [`DigitalStream::finish`] leaves with
/// zero skew (and a non-negative merge gap): that stream observes at
/// `from`, at every transition of either wave inside the window and at
/// `to`, and an observation that repeats the previous result changes no
/// interval. This one observes at `from`, at each toggle in `(from, to]`
/// and at `to`. It keeps the intervals' summary, not their list.
#[derive(Debug, Clone)]
pub struct ToggleStream {
    state: StreamState,
    mismatched: bool,
}

impl ToggleStream {
    /// A stream comparing over `[from, to]` with the given merge gap.
    pub fn new(from: Time, to: Time, merge_gap: Time) -> Self {
        ToggleStream {
            state: StreamState::new(from, to, merge_gap, false),
            mismatched: false,
        }
    }

    /// Feeds one instant at which the comparison flips. Instants must be
    /// strictly increasing.
    #[inline]
    pub fn toggle(&mut self, t: Time) {
        let (from, to) = (self.state.from, self.state.to);
        if from < t && t <= to {
            // Inside the window the only end owed before `t` is `from`.
            if self.state.last_obs < from {
                self.state.observe(from, !self.mismatched);
            }
            self.mismatched = !self.mismatched;
            self.state.observe(t, !self.mismatched);
        } else {
            self.observe_ends(Some(t));
            self.mismatched = !self.mismatched;
        }
    }

    /// Observes the window ends still owed (those strictly before `until`,
    /// when given): `from` then `to`, or for an inverted window `to` then
    /// `from` — the order [`DigitalStream::finish`] observes them in.
    fn observe_ends(&mut self, until: Option<Time>) {
        let (from, to) = (self.state.from, self.state.to);
        for end in [from.min(to), from.max(to)] {
            if end > self.state.last_obs && until.is_none_or(|t| end < t) {
                self.state.observe(end, !self.mismatched);
            }
        }
    }

    /// Raises the finality bound to `upto` (all toggles up to it fed). An
    /// open mismatch is observed at golden's last edge up to it, as by
    /// [`DigitalStream`], whose partial state this then is where the faulty
    /// wave changes only at toggles or golden edges.
    pub fn advance(&mut self, golden: &DigitalWave, upto: Time) {
        let Some(cap) = self.state.raise(upto) else {
            return;
        };
        if self.state.last_obs < self.state.from {
            self.state.observe(self.state.from, !self.mismatched);
        }
        if self.state.open.is_some() {
            let tr = golden.transitions();
            let last = tr.partition_point(|&(t, _)| t <= cap).checked_sub(1);
            if let Some(t) = last.map(|i| tr[i].0).filter(|&t| t > self.state.last_obs) {
                self.state.observe(t, false);
            }
        }
    }

    /// Closes the window once every toggle is fed and returns the completed
    /// comparison state. Idempotent.
    pub fn finish(&mut self) -> &StreamState {
        if !self.state.finished {
            self.observe_ends(None);
            self.state.raise(self.state.to);
            self.state.close();
        }
        &self.state
    }

    /// The comparison state as of the last finality bound.
    pub fn state(&self) -> &StreamState {
        &self.state
    }
}

/// A streaming analog comparator: equivalent to the batch
/// `compare_analog`, but incremental and O(n).
#[derive(Debug, Clone)]
pub struct AnalogStream {
    state: StreamState,
    tolerance: Tolerance,
    g_idx: usize,
    f_idx: usize,
    g_val: AnalogValueCursor,
    f_val: AnalogValueCursor,
}

impl AnalogStream {
    /// A stream comparing over `[from, to]` with the given tolerance and
    /// merge gap (the exact parameters of the batch path).
    pub fn new(from: Time, to: Time, tolerance: Tolerance, merge_gap: Time) -> Self {
        AnalogStream {
            state: StreamState::new(from, to, merge_gap, true),
            tolerance,
            g_idx: 0,
            f_idx: 0,
            g_val: AnalogValueCursor::default(),
            f_val: AnalogValueCursor::default(),
        }
    }

    fn observe(&mut self, golden: &AnalogWave, faulty: &AnalogWave, t: Time) {
        let matched = self.tolerance.matches(
            self.g_val.value_at(golden, t),
            self.f_val.value_at(faulty, t),
        );
        self.state.observe(t, matched);
    }

    /// Processes every observation at `t <= min(upto, to)` not yet
    /// processed. Both waves must be final up to `upto` — for a faulty
    /// wave still being recorded that means
    /// `upto <= min(watermark - 1 fs, last faulty sample)`.
    pub fn advance(&mut self, golden: &AnalogWave, faulty: &AnalogWave, upto: Time) {
        let Some(cap) = self.state.raise(upto) else {
            return;
        };
        if self.state.last_obs == UNSET {
            self.observe(golden, faulty, self.state.from);
        }
        loop {
            let gs = golden.samples();
            while self.g_idx < gs.len() && gs[self.g_idx].0 <= self.state.last_obs {
                self.g_idx += 1;
            }
            let fs = faulty.samples();
            while self.f_idx < fs.len() && fs[self.f_idx].0 <= self.state.last_obs {
                self.f_idx += 1;
            }
            let g_head = gs.get(self.g_idx).map(|&(t, _)| t).filter(|&t| t <= cap);
            let f_head = fs.get(self.f_idx).map(|&(t, _)| t).filter(|&t| t <= cap);
            let t = match (g_head, f_head) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            self.observe(golden, faulty, t);
        }
    }

    /// Processes everything up to the window end, emits the closing
    /// sentinel observation and returns the completed comparison. Requires
    /// both waves to be fully recorded. Idempotent.
    pub fn finish(&mut self, golden: &AnalogWave, faulty: &AnalogWave) -> SignalComparison {
        self.advance(golden, faulty, self.state.to);
        for t in self.state.sentinels().into_iter().flatten() {
            self.observe(golden, faulty, t);
        }
        self.state.seal()
    }

    /// The comparison state as of the last finality bound.
    pub fn state(&self) -> &StreamState {
        &self.state
    }
}

/// A read-only view over the traces a (possibly composite) simulator has
/// recorded so far. A mixed-signal kernel exposes its digital and analog
/// sub-traces as separate parts without merging (merging clones); lookups
/// scan the parts in order.
#[derive(Debug, Clone, Copy)]
pub struct TraceView<'a> {
    parts: &'a [&'a Trace],
}

impl<'a> TraceView<'a> {
    /// A view over the given trace parts.
    pub fn new(parts: &'a [&'a Trace]) -> Self {
        TraceView { parts }
    }

    /// The named digital waveform from the first part recording it.
    pub fn digital(&self, name: &str) -> Option<&'a DigitalWave> {
        self.parts.iter().find_map(|t| t.digital(name))
    }

    /// The named analog waveform from the first part recording it.
    pub fn analog(&self, name: &str) -> Option<&'a AnalogWave> {
        self.parts.iter().find_map(|t| t.analog(name))
    }
}

/// The callback a [`SimObserver`] invokes: current simulation time (the
/// *watermark* — everything strictly below it is final) plus a view of the
/// traces recorded so far. Returning `true` retires the run.
type ObserverHook = dyn FnMut(Time, &TraceView<'_>) -> bool + Send;

/// A periodic observation hook a simulation kernel polls from its step
/// loop.
///
/// Installed via [`ForkableSim::install_observer`](crate::ForkableSim);
/// the kernel calls [`SimObserver::poll`] once per step (or sync
/// iteration) at a point where every recorded value strictly below the
/// current time is final. The hook itself only runs every
/// [`OBSERVER_STRIDE`] polls, so the per-step cost is a counter decrement.
/// A hook that returns `true` *retires* the run: that poll returns
/// [`GuardViolation::Retired`], which the kernel propagates like any guard
/// trip. An unwatched kernel holds the default observer, with no hook; so
/// does a copy of a kernel (a clone is empty: a snapshot is not the run
/// the hook watches).
#[derive(Default)]
pub struct SimObserver {
    countdown: u32,
    hook: Option<Box<ObserverHook>>,
}

impl Clone for SimObserver {
    fn clone(&self) -> Self {
        SimObserver::default()
    }
}

impl fmt::Debug for SimObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimObserver")
            .field("countdown", &self.countdown)
            .finish()
    }
}

impl SimObserver {
    /// Wraps a hook.
    pub fn new<F>(hook: F) -> Self
    where
        F: FnMut(Time, &TraceView<'_>) -> bool + Send + 'static,
    {
        SimObserver {
            countdown: 0,
            hook: Some(Box::new(hook)),
        }
    }

    /// Whether a hook is installed.
    pub fn is_watching(&self) -> bool {
        self.hook.is_some()
    }

    /// Stride-gated hook invocation: cheap enough for a kernel's inner
    /// loop. `now` is the watermark; `parts` are the traces recorded so
    /// far. [`GuardViolation::Retired`] at `now` if the hook retires the run.
    #[inline]
    pub fn poll(&mut self, now: Time, parts: &[&Trace]) -> Result<(), GuardViolation> {
        if self.hook.is_none() {
            return Ok(());
        }
        if self.countdown > 0 {
            self.countdown -= 1;
            return Ok(());
        }
        self.countdown = OBSERVER_STRIDE - 1;
        self.flush(now, parts)
    }

    /// Ungated hook invocation (used at natural boundaries such as the end
    /// of an `advance_to`), with [`SimObserver::poll`]'s result.
    pub fn flush(&mut self, now: Time, parts: &[&Trace]) -> Result<(), GuardViolation> {
        let view = TraceView::new(parts);
        match self.hook.as_mut().map(|hook| hook(now, &view)) {
            Some(true) => Err(GuardViolation::Retired { t: now }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::baseline;
    use crate::{compare_analog, compare_digital_with_skew};

    fn dwave(points: &[(i64, Logic)]) -> DigitalWave {
        let mut w = DigitalWave::new();
        for &(ns, v) in points {
            w.push(Time::from_ns(ns), v).unwrap();
        }
        w
    }

    fn awave(points: &[(i64, f64)]) -> AnalogWave {
        AnalogWave::from_samples(points.iter().map(|&(ns, v)| (Time::from_ns(ns), v)))
    }

    #[test]
    fn digital_stream_matches_batch_and_baseline() {
        let g = dwave(&[(0, Logic::Zero), (100, Logic::One), (300, Logic::Zero)]);
        let f = dwave(&[
            (0, Logic::Zero),
            (102, Logic::One),
            (150, Logic::Zero),
            (160, Logic::One),
            (300, Logic::Zero),
        ]);
        for skew_ns in [0i64, 1, 5] {
            let skew = Time::from_ns(skew_ns);
            let batch = compare_digital_with_skew(
                &g,
                &f,
                Time::ZERO,
                Time::from_ns(400),
                Time::from_ns(5),
                skew,
            );
            let base = baseline::compare_digital_with_skew(
                &g,
                &f,
                Time::ZERO,
                Time::from_ns(400),
                Time::from_ns(5),
                skew,
            );
            assert_eq!(batch, base, "skew {skew_ns} ns");
        }
    }

    #[test]
    fn digital_stream_is_chunk_invariant() {
        let g = dwave(&[(0, Logic::Zero), (100, Logic::One)]);
        let f = dwave(&[(0, Logic::Zero), (103, Logic::One), (250, Logic::Zero)]);
        let (from, to) = (Time::ZERO, Time::from_ns(400));
        let gap = Time::from_ns(10);
        let skew = Time::from_ns(2);
        let mut chunked = DigitalStream::new(from, to, gap, skew);
        for upto_ns in [0i64, 50, 103, 104, 200, 399] {
            chunked.advance(&g, &f, Time::from_ns(upto_ns));
        }
        let chunked = chunked.finish(&g, &f);
        let oneshot = DigitalStream::new(from, to, gap, skew).finish(&g, &f);
        assert_eq!(chunked, oneshot);
        assert_eq!(
            chunked,
            baseline::compare_digital_with_skew(&g, &f, from, to, gap, skew)
        );
    }

    #[test]
    fn analog_stream_matches_baseline() {
        let g = awave(&[(0, 2.5), (1000, 2.5)]);
        let f = awave(&[(0, 2.5), (400, 2.5), (500, 3.2), (600, 2.5), (1000, 2.5)]);
        let tol = Tolerance::absolute(0.1);
        let gap = Time::from_ns(100);
        let batch = compare_analog(&g, &f, Time::ZERO, Time::from_us(1), tol, gap);
        let base = baseline::compare_analog(&g, &f, Time::ZERO, Time::from_us(1), tol, gap);
        assert_eq!(batch, base);
        assert_eq!(batch.first_divergence(), Some(Time::from_ns(500)));
    }

    #[test]
    fn analog_stream_is_chunk_invariant() {
        let g = awave(&[(0, 1.0), (1000, 1.0)]);
        let f = awave(&[(0, 1.0), (300, 5.0), (700, 1.0), (1000, 1.0)]);
        let tol = Tolerance::absolute(0.5);
        let gap = Time::from_ns(50);
        let (from, to) = (Time::from_ns(100), Time::from_ns(900));
        let mut chunked = AnalogStream::new(from, to, tol, gap);
        for upto_ns in [0i64, 150, 300, 301, 699, 700, 850] {
            chunked.advance(&g, &f, Time::from_ns(upto_ns));
        }
        let chunked = chunked.finish(&g, &f);
        assert_eq!(
            chunked,
            baseline::compare_analog(&g, &f, from, to, tol, gap)
        );
    }

    #[test]
    fn open_mismatch_is_visible_before_it_closes() {
        let g = dwave(&[(0, Logic::Zero)]);
        let f = dwave(&[(0, Logic::Zero), (100, Logic::One)]);
        let mut s = DigitalStream::new(Time::ZERO, Time::from_ns(1000), Time::ZERO, Time::ZERO);
        s.advance(&g, &f, Time::from_ns(500));
        assert_eq!(s.state().open_since(), Some(Time::from_ns(100)));
        assert_eq!(s.state().processed_to(), Time::from_ns(500));
        assert!(s.state().closed().is_none(), "not closed yet");
        let cmp = s.finish(&g, &f);
        assert_eq!(cmp.first_divergence(), Some(Time::from_ns(100)));
        assert_eq!(cmp.last_divergence(), Some(Time::from_ns(1000)));
    }

    /// An empty window is one observation; an inverted one observes its two
    /// sentinels, `to` first.
    #[test]
    fn empty_window_single_observation() {
        let g = dwave(&[(0, Logic::Zero), (15, Logic::One)]);
        let f = dwave(&[(0, Logic::One)]);
        let t = Time::from_ns(10);
        for (from, to) in [(t, t), (Time::from_ns(20), t)] {
            let mut s = DigitalStream::new(from, to, Time::ZERO, Time::ZERO);
            s.advance(&g, &f, Time::from_ns(12));
            let cmp = s.finish(&g, &f);
            assert_eq!(
                cmp,
                baseline::compare_digital_with_skew(&g, &f, from, to, Time::ZERO, Time::ZERO)
            );
            assert_eq!(cmp, s.finish(&g, &f), "idempotent");
            assert_eq!(cmp.first_divergence(), Some(t));
        }
    }

    #[test]
    fn observer_stride_gates_hook_invocations() {
        let mut calls = 0u32;
        let (tx, rx) = std::sync::mpsc::channel();
        let mut obs = SimObserver::new(move |t, _| {
            calls += 1;
            tx.send(t).unwrap();
            calls == 4
        });
        let trace = Trace::new();
        for i in 0..=2 * i64::from(OBSERVER_STRIDE) {
            assert_eq!(obs.poll(Time::from_ns(i), &[&trace]), Ok(()));
        }
        let seen: Vec<_> = rx.try_iter().collect();
        assert_eq!(
            seen,
            [0, 64, 128].map(Time::from_ns),
            "polls 0, 64, 128 fire"
        );
        let retired = obs.flush(Time::from_ns(129), &[&trace]);
        assert_eq!(
            retired,
            Err(GuardViolation::Retired {
                t: Time::from_ns(129)
            })
        );
    }

    #[test]
    fn a_clone_of_an_observer_watches_nothing() {
        let mut obs = SimObserver::new(|_, _| true);
        let mut copy = obs.clone();
        assert!(!copy.is_watching());
        assert_eq!(copy.flush(Time::ZERO, &[]), Ok(()));
        assert!(obs.flush(Time::ZERO, &[]).is_err());
    }

    #[test]
    fn trace_view_scans_parts_in_order() {
        let mut a = Trace::new();
        a.record_digital("d", Time::ZERO, Logic::One).unwrap();
        let mut b = Trace::new();
        b.record_analog("v", Time::ZERO, 1.5).unwrap();
        let parts = [&a, &b];
        let view = TraceView::new(&parts);
        assert!(view.digital("d").is_some());
        assert_eq!(view.analog("v").unwrap().value_at(Time::ZERO), 1.5);
        assert!(view.digital("nope").is_none());

        b.record_digital("d", Time::ZERO, Logic::Zero).unwrap();
        let parts = [&a, &b];
        let view = TraceView::new(&parts);
        assert_eq!(view.digital("d"), a.digital("d"), "the first part wins");
    }
}
