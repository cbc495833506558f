//! Golden-prefix checkpointing: snapshot a simulator mid-run and fork
//! faulty runs from the snapshot instead of re-simulating from time zero.
//!
//! A fault injected at time *t* cannot perturb the circuit before *t*, so a
//! campaign of N cases over a horizon T only needs the golden prefix
//! `[0, tᵢ)` simulated once per distinct injection instant. [`ForkableSim`]
//! is the capability contract a simulation kernel implements to take part;
//! [`Checkpoint`] is the snapshot itself: a clone of the campaign's own
//! golden run and the instant it was taken.
//!
//! Because a snapshot clones the *whole* simulator — event queue, solver
//! step state, digitizer hysteresis and the trace recorded so far — a fork
//! already carries the golden prefix of every monitored waveform. Running
//! the fork to the horizon therefore yields a full-length trace with no
//! explicit stitching step.

use crate::{SimBudget, SimObserver, Time, Trace};
use std::any::Any;
use std::sync::Arc;

/// The FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// An incremental FNV-1a hasher for identities and digests.
///
/// The same idiom the engine journal uses for campaign fingerprints: hash
/// bytes, and call [`Fnv1a::eat`] between fields so `("ab", "c")` and
/// `("a", "bc")` hash differently.
///
/// # Examples
///
/// ```
/// use amsfi_waves::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write_str("vctrl");
/// h.eat();
/// h.write_u64(3);
/// let a = h.finish();
///
/// let mut h = Fnv1a::new();
/// h.write_str("vctrl3");
/// assert_ne!(a, h.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a {
    hash: u64,
}

impl Fnv1a {
    /// Starts a fresh hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a { hash: FNV_OFFSET }
    }

    /// Hashes a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes a string's bytes.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// Hashes a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Terminates the current field: a delimiter byte that cannot occur in
    /// UTF-8, so adjacent fields cannot be confused.
    pub fn eat(&mut self) {
        self.hash ^= 0xFF;
        self.hash = self.hash.wrapping_mul(FNV_PRIME);
    }

    /// The hash accumulated so far.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// What a leading run recorded of the half of itself its fault could not
/// reach, for later forks of the same snapshot to replay (see
/// [`ForkableSim::lead_to`]). The kernel that wrote it knows the type; to
/// everything that carries it from leader to follower it is opaque.
pub type SimTape = Arc<dyn Any + Send + Sync>;

/// How [`ForkableSim::follow`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Follow {
    /// The simulator stands at the tape's end, having checked every step
    /// against the tape: its trace is what a full run would have recorded.
    Done,
    /// The simulator could not prove it may follow this tape and did not
    /// move: advance it the ordinary way.
    Refused,
    /// The run left the tape's step grid part-way. Its state is neither
    /// run's: discard it and simulate the case in full.
    LeftGrid,
}

/// A simulation kernel that can be snapshotted mid-run and forked.
///
/// Implementors are `Clone`, and the clone must capture *all* run-relevant
/// state: pending event queues, adaptive solver step state, boundary
/// element (digitizer/driver) state and the trace recorded so far. The
/// digital [`Simulator`], [`AnalogSolver`] and [`MixedSimulator`] kernels
/// all satisfy this because their state lives in owned fields.
///
/// Equivalence contract: advancing through the *same* sequence of
/// `advance_to` stops must be deterministic, so a fork taken at `t` and a
/// fresh run driven through the identical stop sequence up to `t` produce
/// byte-identical traces when both are then advanced to the horizon.
/// (The stop sequence matters for adaptive-step solvers: each stop clamps
/// the final partial step, which shifts the subsequent step grid.)
///
/// [`Simulator`]: https://docs.rs/amsfi-digital
/// [`AnalogSolver`]: https://docs.rs/amsfi-analog
/// [`MixedSimulator`]: https://docs.rs/amsfi-mixed
pub trait ForkableSim: Clone + Send {
    /// Error produced while advancing simulation time.
    type Error: std::error::Error + Send + Sync + 'static;

    /// Advances simulation time to `t` (a no-op if already past it).
    ///
    /// # Errors
    ///
    /// Propagates the kernel's simulation error (e.g. delta overflow).
    fn advance_to(&mut self, t: Time) -> Result<(), Self::Error>;

    /// Current simulation time.
    fn current_time(&self) -> Time;

    /// The trace of monitored signals recorded so far.
    fn snapshot_trace(&self) -> Trace;

    /// Installs a per-attempt [`SimBudget`] that subsequent `advance_to`
    /// calls must observe (step budget, timestep floor, NaN/Inf guard,
    /// cooperative cancellation). Replaces any previous budget wholesale —
    /// in particular one inherited through [`Checkpoint::fork`] — so
    /// consumed steps never leak across attempts. The default
    /// implementation ignores the budget (for toy simulators that cannot
    /// run away); the real kernels override it.
    fn install_budget(&mut self, budget: SimBudget) {
        let _ = budget;
    }

    /// Installs a periodic [`SimObserver`] that subsequent `advance_to`
    /// calls poll from their step loops (at instants where every recorded
    /// value strictly below the current time is final). A hook that
    /// returns `true` ends the call there with
    /// [`GuardViolation::Retired`](crate::GuardViolation::Retired), in the
    /// kernel's error type. Replaces any previous observer. The default
    /// implementation ignores the observer (for toy simulators); the real
    /// kernels override it.
    fn install_observer(&mut self, observer: SimObserver) {
        let _ = observer;
    }

    /// [`ForkableSim::advance_to`], recording on the way whatever part of
    /// the simulator no fault armed on it can reach — when there is such a
    /// part, and the kernel can prove it. Any fork of the same snapshot
    /// with the same proof may then [`follow`](ForkableSim::follow) the
    /// returned tape instead of simulating that part again. The default
    /// only advances: a kernel with nothing to share returns no tape.
    ///
    /// # Errors
    ///
    /// As [`ForkableSim::advance_to`]; a run that fails leaves no tape.
    fn lead_to(&mut self, t: Time) -> Result<Option<SimTape>, Self::Error> {
        self.advance_to(t).map(|()| None)
    }

    /// Advances to the end of `tape` — recorded by
    /// [`lead_to`](ForkableSim::lead_to) on another fork of the snapshot
    /// this simulator was forked from — simulating only what the tape does
    /// not hold and checking, step by step, that the recording fits this
    /// run too. See [`Follow`] for the three ways it ends; the default
    /// refuses.
    ///
    /// # Errors
    ///
    /// As [`ForkableSim::advance_to`].
    fn follow(&mut self, tape: &SimTape) -> Result<Follow, Self::Error> {
        let _ = tape;
        Ok(Follow::Refused)
    }
}

/// A point-in-time snapshot of a [`ForkableSim`].
///
/// Capture is a deep clone; forking clones again, so one checkpoint serves
/// arbitrarily many faulty runs.
#[derive(Debug, Clone)]
pub struct Checkpoint<S: ForkableSim> {
    state: S,
    at: Time,
}

impl<S: ForkableSim> Checkpoint<S> {
    /// Snapshots `sim` at its current time.
    pub fn capture(sim: &S) -> Self {
        Checkpoint {
            state: sim.clone(),
            at: sim.current_time(),
        }
    }

    /// Simulation time at which the snapshot was taken.
    pub fn at(&self) -> Time {
        self.at
    }

    /// Produces an independent simulator resumed from the snapshot.
    pub fn fork(&self) -> S {
        self.state.clone()
    }

    /// [`Checkpoint::fork`] for a checkpoint nobody needs afterwards: the
    /// snapshotted simulator itself, with no second copy made.
    pub fn into_sim(self) -> S {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Logic;
    use std::convert::Infallible;

    /// A counter "simulator": one tick per nanosecond, traced as a bit.
    #[derive(Debug, Clone)]
    struct Ticker {
        now: Time,
        ticks: u64,
        trace: Trace,
    }

    impl Ticker {
        fn new() -> Self {
            Ticker {
                now: Time::ZERO,
                ticks: 0,
                trace: Trace::new(),
            }
        }
    }

    impl ForkableSim for Ticker {
        type Error = Infallible;

        fn advance_to(&mut self, t: Time) -> Result<(), Infallible> {
            while self.now + Time::from_ns(1) <= t {
                self.now += Time::from_ns(1);
                self.ticks += 1;
                let bit = if self.ticks.is_multiple_of(2) {
                    Logic::Zero
                } else {
                    Logic::One
                };
                self.trace.record_digital("tick", self.now, bit).unwrap();
            }
            Ok(())
        }

        fn current_time(&self) -> Time {
            self.now
        }

        fn snapshot_trace(&self) -> Trace {
            self.trace.clone()
        }
    }

    #[test]
    fn fork_resumes_with_prefix_trace() {
        let mut sim = Ticker::new();
        sim.advance_to(Time::from_ns(5)).unwrap();
        let cp = Checkpoint::capture(&sim);
        assert_eq!(cp.at(), Time::from_ns(5));

        // The original keeps running; the fork is independent.
        sim.advance_to(Time::from_ns(20)).unwrap();
        let mut fork = cp.fork();
        assert_eq!(fork.current_time(), Time::from_ns(5));
        fork.advance_to(Time::from_ns(10)).unwrap();
        assert_eq!(fork.ticks, 10);
        assert_eq!(sim.ticks, 20);
        // The fork's trace carries the golden prefix.
        let w = fork.snapshot_trace();
        assert_eq!(
            w.digital("tick").unwrap().value_at(Time::from_ns(1)),
            Logic::One
        );
    }

    #[test]
    fn forked_run_equals_scratch_run() {
        let mut golden = Ticker::new();
        golden.advance_to(Time::from_ns(8)).unwrap();
        let cp = Checkpoint::capture(&golden);
        let mut fork = cp.fork();
        fork.advance_to(Time::from_ns(30)).unwrap();

        let mut scratch = Ticker::new();
        scratch.advance_to(Time::from_ns(8)).unwrap();
        scratch.advance_to(Time::from_ns(30)).unwrap();
        assert_eq!(fork.snapshot_trace(), scratch.snapshot_trace());
    }

    #[test]
    fn fnv_field_delimiters_distinguish_splits() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.eat();
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.eat();
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
        // Deterministic across instances.
        let mut c = Fnv1a::new();
        c.write_str("ab");
        c.eat();
        c.write_str("c");
        assert_eq!(a.finish(), c.finish());
    }
}
