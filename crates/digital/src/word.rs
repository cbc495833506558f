//! Word-parallel digital fault simulation: one event wheel, 64 lanes per
//! gate evaluation.
//!
//! A batch of fault cases runs as PPSFP-style machines — the golden
//! (fault-free) run plus up to 63 mutant lanes at a time, advancing
//! together along a common stop grid (every injection instant, seal-check
//! points, the horizon) — instead of one scalar simulation per case:
//!
//! * **Plane-valued signal store** — each signal bit holds a
//!   [`LogicPlanes`] word: lane `l` of the planes is lane `l` of the batch,
//!   with the golden (fault-free) machine occupying lane
//!   [`GOLDEN_LANE`] (63). All lanes start identical, so a mutant lane
//!   *is* the golden machine until its injection instant.
//! * **Scalar prefix** — until the first injection there is nothing for 64
//!   lanes to disagree on, so the scalar kernel simulates that stretch and
//!   the word machine is seeded from it there: signal values splatted,
//!   component state handed over, still-valid pending events re-queued in
//!   firing order. A caller running many batches (the campaign engine,
//!   from its golden run's snapshots) hands each one a clone already
//!   advanced, and the prefix is simulated once rather than once per batch.
//! * **One shared event wheel** — events carry `(planes value, lane mask)`.
//!   A drive applies to exactly the lanes whose mask bit is set *and*
//!   whose per-lane inertial generation still matches, so one event
//!   replaces up to 64 scalar heap operations.
//! * **Word evaluation** — a component is evaluated once per delta with the
//!   union of per-lane wake/change masks; cells with a native
//!   [`WordComponent`] implementation evaluate all lanes in a handful of
//!   plane operations, everything else falls back to a `LaneFarm` of 64
//!   scalar clones (still one wheel, one store).
//! * **Exact eval masks** — a lane is included in an evaluation only if one
//!   of *its* input lanes changed or a wake targets it. This is a
//!   correctness requirement, not an optimisation: a spurious evaluation
//!   would bump that lane's inertial generations and cancel pending
//!   transactions the scalar reference would have kept.
//! * **Seal by mask** — when a lane's future-relevant machine state (every
//!   signal value, every component state a later evaluation can read, the
//!   valid pending events) equals the golden lane's at a stop, its future
//!   is the golden future. Reconvergence retires the lane by clearing its
//!   bit from the live mask: signals diverged from golden fall out of a
//!   one-XOR-per-bit plane probe, components compare per-lane state
//!   ([`WordComponent::lanes_equal_to`]), and pending events must show
//!   equal participation. From then on the lane differs from golden in
//!   nothing any evaluation reads.
//! * **Refill** — a batch may hold any number of cases. A sealed lane *is*
//!   the golden machine again, in everything a later evaluation reads, so
//!   while cases still wait it stays live as a golden shadow and takes the
//!   next case whose instant comes; a case whose instant finds no free lane
//!   spills to a next machine, forked from the batch's own forward-only
//!   scalar simulator. One machine thus serves every case that seals early
//!   plus 63 that do not.
//!
//! A lane costs what it differs, and records no trace. The golden lane
//! extends the trace the scalar simulator recorded; every other lane keeps
//! only what the digital comparison reads off its trace
//! ([`MismatchToggles`]): per monitored bit, the instants its settled
//! value, reduced to X01, starts or stops differing from the golden lane's
//! — one plane XOR per changed bit, against a per-bit mask of the lanes
//! that differ now — and the bits it never recorded although golden did. A
//! lane that never differed has nothing ([`LaneOutcome::Clean`]); a watch
//! is shown them at the machine's stops, and may retire the lane there
//! ([`WordBatchSimulator::run_watched`], [`LaneOutcome::Retired`]).
//! Per-lane budgets are sorted once, when installed: a step cap becomes a
//! value of one shared step counter (one compare per time point against
//! the earliest trip), a cancel token is asked at the stops. A budget trip
//! retires only that lane ([`LaneOutcome::Failed`]) and the campaign engine
//! re-runs the case scalar, preserving byte identity.

use crate::component::{Action, Arena, Component, EvalContext, IdleRule};
use crate::netlist::{ComponentId, SignalId};
use crate::sim::{debug_renders_as, NormalEvent, SimError, Simulator, WordSeed};
use crate::wheel::Wheel;
use amsfi_waves::{
    CancelToken, DigitalSlot, GuardViolation, KernelMetrics, LogicPlanes, LogicVector,
    MismatchToggles, SimBudget, Time, Trace, LANES,
};
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;

/// The lane index reserved for the golden (fault-free) machine.
pub const GOLDEN_LANE: usize = LANES - 1;

/// A component lifted to word (64-lane) evaluation.
///
/// Implementors hold per-lane state and must evaluate exactly the lanes in
/// [`WordEvalContext::eval_mask`] — driving or waking a lane outside the
/// mask would corrupt that lane's inertial-generation bookkeeping.
pub trait WordComponent: Send + std::fmt::Debug {
    /// Evaluates the masked lanes at the context's current time.
    fn eval(&mut self, ctx: &mut WordEvalContext<'_>);

    /// Inverts one memorised bit of one lane (an SEU strike on that lane).
    fn flip_state_bit(&mut self, lane: usize, bit: usize) {
        let _ = (lane, bit);
    }

    /// Replaces one lane's encoded state (an erroneous FSM transition).
    fn force_state(&mut self, lane: usize, value: u64) {
        let _ = (lane, value);
    }

    /// The lanes of `candidates` whose future-relevant component state
    /// equals lane `reference`'s — the per-component leg of the
    /// reconvergence-seal comparison, one call per seal probe.
    ///
    /// Future-relevant state is every piece of state that a later
    /// evaluation can read. State that is only ever overwritten (a RAM word
    /// no instruction loads) may differ: from equal inputs, such lanes drive,
    /// wake and reach their next state exactly as lane `reference` does, and
    /// no later evaluation reads the difference. A lane that is vacated after
    /// a seal keeps it, and the next case seated there books what a fresh
    /// lane would. Comparing more than this only delays a seal; comparing
    /// less corrupts one.
    fn lanes_equal_to(&mut self, reference: usize, candidates: u64) -> u64;

    /// The scalar component instance backing one lane, if this word
    /// component is a `LaneFarm` of clones. Native plane implementations
    /// return `None`; callers needing in-place configuration (e.g. arming a
    /// saboteur) go through this.
    fn lane_component_mut(&mut self, lane: usize) -> Option<&mut dyn Component> {
        let _ = lane;
        None
    }
}

/// One action requested by a word evaluation: the word-level mirror of
/// [`Action`] with an explicit participating-lane mask. Drive values live
/// in pooled vectors that return to the pool when the event is applied.
#[derive(Debug)]
enum WordAction {
    Drive {
        transport: bool,
        output: usize,
        value: Vec<LogicPlanes>,
        delay: Time,
        mask: u64,
    },
    Wake {
        delay: Time,
        mask: u64,
    },
}

/// The evaluation context handed to [`WordComponent::eval`]: the
/// plane-valued signal store seen through the component's input ports, the
/// lanes being evaluated, and a queue of masked actions.
///
/// It drops idle zero-delay re-drives by the scalar kernel's rule (see
/// [`EvalContext`]), a drive's value being the held one when it equals the
/// held planes on every lane of its mask. A lane farm's merged drives are
/// all queued.
#[derive(Debug)]
pub struct WordEvalContext<'a> {
    now: Time,
    eval_mask: u64,
    signals: &'a [WordSignal],
    ports: &'a [SignalId],
    actions: Vec<WordAction>,
    /// Recycled drive-value vectors (see [`WordScratch::pool`]).
    pool: &'a mut Pool<Vec<LogicPlanes>>,
    /// The idle-drive rule over the component's outputs.
    rule: IdleRule<'a>,
}

impl<'a> WordEvalContext<'a> {
    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The lanes this evaluation covers. Every drive and wake must target a
    /// subset of this mask.
    pub fn eval_mask(&self) -> u64 {
        self.eval_mask
    }

    /// The planes of input port `index`, one [`LogicPlanes`] per bit, lent
    /// straight from the signal store.
    pub fn input(&self, index: usize) -> &'a [LogicPlanes] {
        &self.signals[self.ports[index].0].planes
    }

    /// The first (and for scalars, only) bit of input port `index`.
    pub fn input_bit(&self, index: usize) -> LogicPlanes {
        self.input(index)[0]
    }

    /// Number of input ports.
    pub fn input_count(&self) -> usize {
        self.ports.len()
    }

    /// Drives output `output` for every evaluated lane with inertial
    /// semantics.
    pub fn drive(&mut self, output: usize, value: &[LogicPlanes], delay: Time) {
        let mask = self.eval_mask;
        self.drive_masked(output, value, delay, mask);
    }

    /// Single-bit convenience for [`WordEvalContext::drive`].
    pub fn drive_bit(&mut self, output: usize, value: LogicPlanes, delay: Time) {
        self.drive(output, &[value], delay);
    }

    /// Drives output `output` for the lanes in `mask` (a subset of the eval
    /// mask) with inertial semantics: each masked lane's pending
    /// transactions on this output are cancelled.
    pub fn drive_masked(&mut self, output: usize, value: &[LogicPlanes], delay: Time, mask: u64) {
        if mask == 0 {
            return;
        }
        let signals = self.signals;
        let holds = |sig: usize| {
            let held = &signals[sig].planes;
            held.len() == value.len()
                && held
                    .iter()
                    .zip(value)
                    .all(|(h, v)| h.diverged_mask(*v) & mask == 0)
        };
        if self.rule.idle(output, delay, holds) {
            return;
        }
        let mut owned = self.pooled();
        owned.extend_from_slice(value);
        self.push_drive(false, output, owned, delay, mask);
    }

    /// Single-bit convenience for [`WordEvalContext::drive_masked`].
    pub fn drive_bit_masked(&mut self, output: usize, value: LogicPlanes, delay: Time, mask: u64) {
        self.drive_masked(output, &[value], delay, mask);
    }

    /// Drives with transport semantics (pending transactions survive) for
    /// the lanes in `mask`.
    pub fn drive_transport_masked(
        &mut self,
        output: usize,
        value: &[LogicPlanes],
        delay: Time,
        mask: u64,
    ) {
        if mask == 0 {
            return;
        }
        self.rule.note_driven(output);
        let mut owned = self.pooled();
        owned.extend_from_slice(value);
        self.push_drive(true, output, owned, delay, mask);
    }

    /// An empty drive-value vector, recycled when the pool has one.
    fn pooled(&mut self) -> Vec<LogicPlanes> {
        self.pool.take()
    }

    fn push_drive(
        &mut self,
        transport: bool,
        output: usize,
        value: Vec<LogicPlanes>,
        delay: Time,
        mask: u64,
    ) {
        debug_assert!(
            mask != 0 && mask & !self.eval_mask == 0,
            "drive mask must be a non-empty subset of the eval mask"
        );
        self.actions.push(WordAction::Drive {
            transport,
            output,
            value,
            delay,
            mask,
        });
    }

    /// Requests a re-evaluation of every evaluated lane after `delay`.
    pub fn wake(&mut self, delay: Time) {
        let mask = self.eval_mask;
        self.wake_masked(delay, mask);
    }

    /// Requests a re-evaluation of the lanes in `mask` after `delay`.
    pub fn wake_masked(&mut self, delay: Time, mask: u64) {
        debug_assert_eq!(
            mask & !self.eval_mask,
            0,
            "wake mask must be a subset of the eval mask"
        );
        if mask == 0 {
            return;
        }
        self.actions.push(WordAction::Wake { delay, mask });
    }
}

/// Recycled drive-value vectors: an applied event hands back the vector
/// it is done with and the next drive refills it, so the word kernel's
/// steady state never asks the allocator for a drive value. Bounded,
/// because a burst of pending drives is not worth keeping storage for.
#[derive(Debug)]
struct Pool<V>(Vec<V>);

impl<V> Default for Pool<V> {
    fn default() -> Self {
        Pool(Vec::new())
    }
}

impl<V: Default> Pool<V> {
    /// Vectors beyond this many are dropped rather than kept.
    const CAPACITY: usize = 64;

    /// A value to overwrite: recycled (contents unspecified) when there is
    /// one, otherwise fresh and empty.
    fn take(&mut self) -> V {
        self.0.pop().unwrap_or_default()
    }

    /// Hands `value`'s storage back for the next [`Pool::take`].
    fn give(&mut self, value: V) {
        if self.0.len() < Self::CAPACITY {
            self.0.push(value);
        }
    }
}

/// Returns a drive-value vector to `pool` for the next drive to take.
fn recycle(pool: &mut Pool<Vec<LogicPlanes>>, mut value: Vec<LogicPlanes>) {
    value.clear();
    pool.give(value);
}

/// The universal [`WordComponent`] fallback: 64 scalar clones of one
/// component, evaluated per masked lane and their actions merged back into
/// masked word actions.
///
/// Per merge round `r`, the `r`-th action of every evaluated lane is
/// grouped by `(kind, output, delay)`; lanes sharing a group become one
/// word action with per-lane values packed into planes. Per-lane action
/// *order* is preserved (round `r` schedules before round `r + 1`), so
/// each lane queues every drive its clone requests, in request order: a
/// scalar run's inertial cancellation, plus the idle zero-delay re-drives
/// the scalar and word kernels drop unqueued (a farm's scalar contexts see
/// no outputs, and its merged drives do not go through the rule), which
/// change no value. Cross-lane grouping order is irrelevant because lanes
/// are independent.
struct LaneFarm {
    lanes: Vec<Box<dyn Component>>,
    /// The evaluated lane's input values, one per port, and the identity
    /// port list a scalar context reads them through.
    staged: Vec<LogicVector>,
    staged_ports: Vec<SignalId>,
    lane_actions: Vec<Vec<Action>>,
    /// The scalar drive values of all lanes' contexts.
    arena: Arena,
    /// The merge groups of the round in flight (kept for its capacity).
    groups: Vec<FarmGroup>,
    /// The reference lane's `Debug` rendering during a seal probe.
    rendered: String,
}

impl std::fmt::Debug for LaneFarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneFarm")
            .field("lanes", &self.lanes)
            .finish_non_exhaustive()
    }
}

impl LaneFarm {
    fn new(prototype: &dyn Component) -> Self {
        LaneFarm {
            lanes: (0..LANES).map(|_| prototype.clone_box()).collect(),
            staged: Vec::new(),
            staged_ports: Vec::new(),
            lane_actions: (0..LANES).map(|_| Vec::new()).collect(),
            arena: Arena::default(),
            groups: Vec::new(),
            rendered: String::new(),
        }
    }
}

/// One merge group of a [`LaneFarm`] round.
enum FarmGroup {
    Drive {
        transport: bool,
        output: usize,
        delay: Time,
        mask: u64,
        value: Vec<LogicPlanes>,
    },
    Wake {
        delay: Time,
        mask: u64,
    },
}

impl WordComponent for LaneFarm {
    fn eval(&mut self, ctx: &mut WordEvalContext<'_>) {
        let mask = ctx.eval_mask();
        let ports = ctx.input_count();
        if self.staged.len() != ports {
            self.staged = (0..ports)
                .map(|port| LogicVector::new(ctx.input(port).len()))
                .collect();
            self.staged_ports = (0..ports).map(SignalId).collect();
        }
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            for (port, staged) in self.staged.iter_mut().enumerate() {
                for (bit, planes) in ctx.input(port).iter().enumerate() {
                    staged[bit] = planes.lane(lane);
                }
            }
            let recycled = std::mem::take(&mut self.lane_actions[lane]);
            let mut sctx = EvalContext::new(
                ctx.now(),
                &self.staged,
                &self.staged_ports,
                recycled,
                &mut self.arena,
            );
            self.lanes[lane].eval(&mut sctx);
            self.lane_actions[lane] = sctx.actions;
        }

        let mut groups = std::mem::take(&mut self.groups);
        let mut round = 0usize;
        loop {
            groups.clear();
            let mut progressed = false;
            let mut m = mask;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                let Some(action) = self.lane_actions[lane].get(round) else {
                    continue;
                };
                progressed = true;
                match action {
                    Action::Drive {
                        transport,
                        output,
                        value,
                        delay,
                    } => {
                        let slot = groups.iter_mut().find_map(|g| match g {
                            FarmGroup::Drive {
                                transport: tr,
                                output: o,
                                delay: d,
                                mask,
                                value,
                            } if *tr == *transport && *o == *output && *d == *delay => {
                                Some((mask, value))
                            }
                            _ => None,
                        });
                        let value = &self.arena[*value];
                        let (group_mask, group_value) = match slot {
                            Some(found) => found,
                            None => {
                                let mut planes = ctx.pooled();
                                planes.resize(value.width(), LogicPlanes::new());
                                groups.push(FarmGroup::Drive {
                                    transport: *transport,
                                    output: *output,
                                    delay: *delay,
                                    mask: 0,
                                    value: planes,
                                });
                                let Some(FarmGroup::Drive { mask, value, .. }) = groups.last_mut()
                                else {
                                    unreachable!("just pushed a drive group");
                                };
                                (mask, value)
                            }
                        };
                        *group_mask |= 1 << lane;
                        for (bit, planes) in group_value.iter_mut().enumerate() {
                            planes.set_lane(lane, value[bit]);
                        }
                    }
                    Action::Wake { delay } => {
                        let slot = groups.iter_mut().find_map(|g| match g {
                            FarmGroup::Wake { delay: d, mask } if *d == *delay => Some(mask),
                            _ => None,
                        });
                        match slot {
                            Some(group_mask) => *group_mask |= 1 << lane,
                            None => groups.push(FarmGroup::Wake {
                                delay: *delay,
                                mask: 1 << lane,
                            }),
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
            for group in groups.drain(..) {
                match group {
                    FarmGroup::Drive {
                        transport,
                        output,
                        delay,
                        mask,
                        value,
                    } => ctx.push_drive(transport, output, value, delay, mask),
                    FarmGroup::Wake { delay, mask } => ctx.wake_masked(delay, mask),
                }
            }
            round += 1;
        }
        self.groups = groups;
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            for action in self.lane_actions[lane].drain(..) {
                if let Action::Drive { value, .. } = action {
                    self.arena.free(value);
                }
            }
        }
    }

    fn flip_state_bit(&mut self, lane: usize, bit: usize) {
        self.lanes[lane].flip_state_bit(bit);
    }

    fn force_state(&mut self, lane: usize, value: u64) {
        self.lanes[lane].force_state(value);
    }

    fn lanes_equal_to(&mut self, reference: usize, candidates: u64) -> u64 {
        // Same criterion as `Simulator::state_digest`: `Debug`-rendered
        // state equality, or the component's typed compare where it offers
        // one (which agrees with it). Otherwise the reference lane is
        // rendered once; each candidate is compared against that text as
        // it renders.
        let reference = &*self.lanes[reference];
        let mut rendered = false;
        let mut equal = 0u64;
        let mut m = candidates;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let same = self.lanes[lane].eq_state(reference).unwrap_or_else(|| {
                if !rendered {
                    self.rendered.clear();
                    let _ = write!(self.rendered, "{reference:?}");
                    rendered = true;
                }
                debug_renders_as(&self.lanes[lane], &self.rendered)
            });
            if same {
                equal |= 1 << lane;
            }
        }
        equal
    }

    fn lane_component_mut(&mut self, lane: usize) -> Option<&mut dyn Component> {
        Some(&mut *self.lanes[lane])
    }
}

/// Inertial-cancellation bookkeeping of one output port, per lane.
///
/// A pending drive is identified by its event sequence number. An inertial
/// drive cancels, on its lanes, every transaction scheduled before it, so a
/// pending drive with sequence `s` is still valid on a lane exactly when no
/// inertial drive with a larger sequence has covered that lane since — the
/// scalar kernel's generation match, without a generation stored per event.
#[derive(Debug)]
struct LaneGens {
    /// Sequence of the newest inertial drive per lane, except on the lanes
    /// of `recent_mask`, whose entry is `recent_seq`.
    latest: [u64; LANES],
    /// The newest inertial drive on any lane, held back from `latest`:
    /// lanes in lock step re-drive with the same mask every time, and then
    /// a drive costs one store instead of one per lane.
    recent_seq: u64,
    recent_mask: u64,
}

impl LaneGens {
    fn new() -> Self {
        LaneGens {
            latest: [0; LANES],
            recent_seq: 0,
            recent_mask: 0,
        }
    }

    /// Notes an inertial drive with sequence `seq` on the lanes of `mask`.
    fn bump(&mut self, seq: u64, mask: u64) {
        let mut spill = self.recent_mask & !mask;
        while spill != 0 {
            let lane = spill.trailing_zeros() as usize;
            spill &= spill - 1;
            self.latest[lane] = self.recent_seq;
        }
        self.recent_seq = seq;
        self.recent_mask = mask;
    }

    /// The lanes of `mask` on which a drive with sequence `seq` is still
    /// valid.
    fn valid(&self, seq: u64, mask: u64) -> u64 {
        if self.recent_seq <= seq {
            return mask; // nothing newer on any lane
        }
        let mut ok = mask & !self.recent_mask;
        let mut m = ok;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.latest[lane] > seq {
                ok &= !(1 << lane);
            }
        }
        ok
    }
}

#[derive(Debug)]
enum WordEventKind {
    Drive {
        component: usize,
        output: usize,
        value: Vec<LogicPlanes>,
        mask: u64,
    },
    Wake {
        component: usize,
        mask: u64,
    },
}

#[derive(Debug)]
struct WordSignal {
    name: String,
    width: usize,
    planes: Vec<LogicPlanes>,
    readers: Vec<usize>,
    /// Golden-trace slot of each bit; empty when the signal is not
    /// monitored.
    slots: Vec<DigitalSlot>,
    /// Per slot, the recording lanes whose settled value, reduced to X01,
    /// differs from the golden lane's.
    mismatched: Vec<u64>,
    /// The lanes whose trace would hold this signal so far: it changed on
    /// them at some time point. A monitored signal records every bit on a
    /// change, so untouched is silent.
    touched: u64,
    /// The last time point at which the golden lane changed this signal:
    /// a case that sealed before it records the signal there too (a
    /// sealed lane's future is golden's).
    golden_changed: Time,
}

struct WordSlot {
    name: String,
    comp: Box<dyn WordComponent>,
    inputs: Vec<SignalId>,
    outputs: Vec<SignalId>,
    /// Per-output inertial-cancellation bookkeeping.
    out_gens: Vec<LaneGens>,
}

/// Reusable hot-loop buffers of the word kernel, mirroring the scalar
/// simulator's `SimScratch` but with per-entry lane masks instead of bits,
/// and sized once with the machine like it.
#[derive(Default)]
struct WordScratch {
    /// Per-signal changed-lane mask for the current time point.
    changed: Vec<u64>,
    changed_list: Vec<usize>,
    /// Per-component eval-lane mask for the current delta cycle.
    eval: Vec<u64>,
    eval_list: Vec<usize>,
    /// Recycled action list handed to each [`WordEvalContext`].
    actions: Vec<WordAction>,
    /// Drive-value vectors between uses: an applied event returns its
    /// vector here and the next drive takes it, so the steady state
    /// allocates nothing per event.
    pool: Pool<Vec<LogicPlanes>>,
}

/// The 64-lane word machine: plane-valued signals, one event wheel, one
/// evaluation per gate event. Crate-internal; driven by
/// [`WordBatchSimulator`].
struct WordSimulator {
    signals: Vec<WordSignal>,
    components: Vec<WordSlot>,
    /// Pending events and the simulation clock.
    wheel: Wheel<WordEventKind>,
    /// Per signal, the drives queued for it in the wheel, cancelled ones
    /// included: the idle-drive rule's queued check.
    queued: Vec<u32>,
    delta_limit: usize,
    events_processed: u64,
    /// Lanes still simulating: golden, running cases, and free lanes kept
    /// for a waiting case (a golden shadow). Failed lanes and lanes no case
    /// will take are frozen.
    live: u64,
    /// Lanes being compared with golden (golden + activated mutants).
    recording: u64,
    /// Per-lane mismatch toggles against the golden lane.
    toggles: Vec<MismatchToggles>,
    /// The golden lane's trace, the one trace the machine records.
    trace: Trace,
    /// Machine-wide (golden) budget: a trip here aborts the whole word run.
    budget: SimBudget,
    /// Time points processed: the one step counter every step-capped lane
    /// is measured against.
    steps: u64,
    /// Lanes whose budget is a step cap and nothing else, and the smallest
    /// `trip_at` among them (`u64::MAX` when there is none): one compare
    /// per time point covers them all.
    step_caps: Vec<StepCap>,
    next_trip: u64,
    /// Per lane, the cancel token its budget carries, asked at stops.
    cancels: Vec<Option<CancelToken>>,
    /// Lanes with an outcome in `endings` not yet collected.
    ended: u64,
    endings: Vec<Option<LaneOutcome>>,
    /// The monitored signals each retired case has not touched, case after
    /// case: a [`Retired`] holds its range of them.
    untouched: Vec<usize>,
    scratch: WordScratch,
}

/// A lane budget that can only trip on its step cap, reduced to the count
/// of the machine's step counter at which it does.
#[derive(Debug, Clone, Copy)]
struct StepCap {
    lane: usize,
    /// The lane trips in the time point that raises the machine's step
    /// counter to this.
    trip_at: u64,
    /// What the lane's own count reads then.
    steps: u64,
}

impl WordSimulator {
    /// Builds the word machine from a scalar simulator settled at any
    /// instant of the golden run (power-on included): all 64 lanes take
    /// over its signal values, component state and pending events, so a
    /// mutant lane equals the golden machine until its injection instant,
    /// and the golden lane carries on the scalar trace.
    ///
    /// # Errors
    ///
    /// [`SimError::Unseedable`] on a pending external drive: those bypass
    /// the per-output driver bookkeeping lanes are told apart by. Also on
    /// an installed observer, which no word machine shows the trace to.
    fn from_scalar(sim: Simulator) -> Result<Self, SimError> {
        let seed: WordSeed = sim.into_word_seed()?;
        let signals: Vec<WordSignal> = seed
            .signals
            .into_iter()
            .map(|s| WordSignal {
                planes: s.value.iter().map(LogicPlanes::splat).collect(),
                name: s.name,
                width: s.width,
                readers: s.readers,
                mismatched: vec![0; s.slots.len()],
                touched: match s.slots.first() {
                    Some(&slot) if seed.trace.digital_at(slot).is_some() => u64::MAX,
                    _ => 0,
                },
                golden_changed: Time::ZERO,
                slots: s.slots,
            })
            .collect();
        let components: Vec<WordSlot> = seed
            .components
            .into_iter()
            .map(|c| {
                let comp = c
                    .comp
                    .word_component()
                    .unwrap_or_else(|| Box::new(LaneFarm::new(&*c.comp)));
                WordSlot {
                    name: c.name,
                    comp,
                    out_gens: c.outputs.iter().map(|_| LaneGens::new()).collect(),
                    inputs: c.inputs,
                    outputs: c.outputs,
                }
            })
            .collect();
        let (signal_count, component_count) = (signals.len(), components.len());
        let mut sim = WordSimulator {
            signals,
            components,
            wheel: Wheel::new(seed.now),
            queued: vec![0; signal_count],
            delta_limit: seed.delta_limit,
            events_processed: 0,
            live: u64::MAX,
            recording: 1 << GOLDEN_LANE,
            toggles: (0..LANES).map(|_| MismatchToggles::new()).collect(),
            trace: seed.trace,
            budget: seed.budget,
            steps: 0,
            step_caps: Vec::new(),
            next_trip: u64::MAX,
            cancels: vec![None; LANES],
            ended: 0,
            endings: (0..LANES).map(|_| None).collect(),
            untouched: Vec::new(),
            scratch: WordScratch {
                changed: vec![0; signal_count],
                eval: vec![0; component_count],
                ..WordScratch::default()
            },
        };
        // The wheel takes the still-valid pending events in firing order,
        // on every lane. Renumbering them from zero keeps `LaneGens` exact:
        // all of them are valid now, and the next inertial drive on an
        // output gets a larger sequence and so cancels them, as it would
        // in the scalar kernel. An unstarted simulator holds exactly its
        // components' power-on wakes.
        for (time, event) in seed.pending {
            let kind = match event {
                NormalEvent::Drive {
                    component,
                    output,
                    value,
                } => {
                    sim.queued[sim.components[component].outputs[output].0] += 1;
                    WordEventKind::Drive {
                        component,
                        output,
                        value: value.iter().map(LogicPlanes::splat).collect(),
                        mask: u64::MAX,
                    }
                }
                NormalEvent::Wake { component } => WordEventKind::Wake {
                    component,
                    mask: u64::MAX,
                },
                NormalEvent::External { signal, .. } => {
                    return Err(SimError::Unseedable(format!(
                        "signal {:?} has an external drive pending at {time}",
                        sim.signals[signal].name
                    )));
                }
            };
            sim.wheel.push(time, kind);
        }
        Ok(sim)
    }

    /// Retires lane `lane` early with `outcome`: frozen, no longer recorded.
    fn end_lane(&mut self, lane: usize, outcome: LaneOutcome) {
        self.endings[lane] = Some(outcome);
        self.ended |= 1 << lane;
        self.live &= !(1 << lane);
        self.recording &= !(1 << lane);
    }

    /// Runs until simulation time `t_end`, processing every event at or
    /// before it across all live lanes.
    ///
    /// # Errors
    ///
    /// A delta overflow or a machine-wide (golden) budget trip fails the
    /// whole word run — per-lane faults cannot be untangled from a
    /// non-converging word delta cycle, and nothing can be compared
    /// against a broken golden lane. Per-*lane* budget trips retire only
    /// that lane (recorded in `endings`).
    fn run_until(&mut self, t_end: Time) -> Result<(), SimError> {
        let before = self.events_processed;
        let result = self.drain_until(t_end);
        if let Some(metrics) = self.budget.metrics() {
            metrics.digital_events.add(self.events_processed - before);
        }
        result
    }

    fn drain_until(&mut self, t_end: Time) -> Result<(), SimError> {
        while let Some(t) = self.wheel.next_time() {
            if t > t_end {
                break;
            }
            self.budget.note_step(t)?;
            self.steps += 1;
            if self.steps >= self.next_trip {
                self.trip_step_caps(t);
            }
            self.advance_time_point(t)?;
        }
        if t_end > self.wheel.now() {
            self.wheel.advance(t_end);
        }
        Ok(())
    }

    /// Installs lane `lane`'s budget, sorted once into what it can cost. A
    /// timestep floor can never trip (this kernel proposes no timesteps). A
    /// step cap depends on the count alone, and the lane's count is the
    /// machine's from here on, so the cap becomes a value of
    /// [`WordSimulator::steps`] to watch for. A cancel token is kept, to
    /// be asked at the machine's stops.
    fn set_lane_budget(&mut self, lane: usize, budget: SimBudget) {
        self.step_caps.retain(|cap| cap.lane != lane);
        let cancel = budget.cancel_token().clone();
        self.cancels[lane] = budget.is_cancellable().then_some(cancel);
        if let Some(max) = budget.max_steps() {
            // `note_step` counts first and trips on `count > max`.
            let left = max.saturating_sub(budget.steps_used()).saturating_add(1);
            self.step_caps.push(StepCap {
                lane,
                trip_at: self.steps.saturating_add(left),
                steps: budget.steps_used().saturating_add(left),
            });
        }
        self.next_trip = self.earliest_trip();
    }

    fn earliest_trip(&self) -> u64 {
        self.step_caps
            .iter()
            .map(|cap| cap.trip_at)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Retires every live step-capped lane whose cap the current time point
    /// exceeds — with the violation its own [`SimBudget::note_step`] would
    /// have raised — and forgets the lanes that retired some other way.
    fn trip_step_caps(&mut self, t: Time) {
        let mut caps = std::mem::take(&mut self.step_caps);
        caps.retain(|cap| {
            if self.live & (1 << cap.lane) == 0 {
                return false;
            }
            if cap.trip_at > self.steps {
                return true;
            }
            let violation = GuardViolation::StepBudgetExhausted {
                steps: cap.steps,
                t,
            };
            let error = SimError::from(violation).to_string();
            self.end_lane(cap.lane, LaneOutcome::Failed { error });
            false
        });
        self.step_caps = caps;
        self.next_trip = self.earliest_trip();
    }

    fn mark_changed(&mut self, sig: usize, lanes: u64) {
        if self.scratch.changed[sig] == 0 {
            self.scratch.changed_list.push(sig);
        }
        self.scratch.changed[sig] |= lanes;
    }

    fn mark_eval(&mut self, comp: usize, lanes: u64) {
        if self.scratch.eval[comp] == 0 {
            self.scratch.eval_list.push(comp);
        }
        self.scratch.eval[comp] |= lanes;
    }

    /// Processes every event and delta cycle at time `t` for all live
    /// lanes, then records per-lane transitions of monitored signals.
    fn advance_time_point(&mut self, t: Time) -> Result<(), SimError> {
        self.wheel.advance(t);
        let mut delta = 0usize;
        loop {
            let mut any_event = false;
            while let Some((seq, kind)) = self.wheel.pop_current() {
                any_event = true;
                self.events_processed += 1;
                match kind {
                    WordEventKind::Drive {
                        component,
                        output,
                        value,
                        mask,
                    } => {
                        let sig = self.components[component].outputs[output].0;
                        self.queued[sig] -= 1;
                        let valid = self.components[component].out_gens[output].valid(seq, mask)
                            & self.live;
                        if valid == 0 {
                            recycle(&mut self.scratch.pool, value);
                            continue;
                        }
                        debug_assert_eq!(
                            self.signals[sig].width,
                            value.len(),
                            "component {:?} drove width {} onto signal {:?} of width {}",
                            self.components[component].name,
                            value.len(),
                            self.signals[sig].name,
                            self.signals[sig].width,
                        );
                        let mut changed_lanes = 0u64;
                        {
                            let state = &mut self.signals[sig];
                            for (bit, v) in value.iter().enumerate() {
                                let old = state.planes[bit];
                                let new = old.select(valid, *v);
                                changed_lanes |= new.diverged_mask(old);
                                state.planes[bit] = new;
                            }
                        }
                        recycle(&mut self.scratch.pool, value);
                        if changed_lanes != 0 {
                            self.mark_changed(sig, changed_lanes);
                            for i in 0..self.signals[sig].readers.len() {
                                let reader = self.signals[sig].readers[i];
                                self.mark_eval(reader, changed_lanes);
                            }
                        }
                    }
                    WordEventKind::Wake { component, mask } => {
                        let lanes = mask & self.live;
                        if lanes != 0 {
                            self.mark_eval(component, lanes);
                        }
                    }
                }
            }
            if !any_event && self.scratch.eval_list.is_empty() {
                break;
            }
            // Evaluate sensitive components in deterministic id order, like
            // the scalar kernel's ascending bitset drain.
            let mut eval_list = std::mem::take(&mut self.scratch.eval_list);
            eval_list.sort_unstable();
            let mut dropped = false;
            for &c in &eval_list {
                let mask = std::mem::replace(&mut self.scratch.eval[c], 0);
                if mask != 0 {
                    dropped |= self.eval_component(c, t, mask);
                }
            }
            eval_list.clear();
            self.scratch.eval_list = eval_list;
            delta += 1;
            // As in the scalar kernel, the delta limit counts the delta a
            // dropped idle re-drive would have been applied in.
            let settled = !self.wheel.has_current();
            if delta + usize::from(settled && dropped) > self.delta_limit {
                return Err(SimError::DeltaOverflow {
                    time: t,
                    limit: self.delta_limit,
                });
            }
            if settled {
                break;
            }
        }
        // Compare every monitored bit that settled to a new value at t with
        // the golden lane, ascending signal id like the scalar kernel: a
        // recording lane whose X01 difference from golden flips notes a
        // toggle. Golden also records the transition in its trace.
        let rec = self.recording & self.live;
        let mut changed_list = std::mem::take(&mut self.scratch.changed_list);
        changed_list.sort_unstable();
        for &sig in &changed_list {
            let lanes = std::mem::replace(&mut self.scratch.changed[sig], 0);
            let state = &mut self.signals[sig];
            if state.slots.is_empty() {
                continue;
            }
            state.touched |= lanes;
            let golden = lanes >> GOLDEN_LANE & 1 != 0;
            if golden {
                state.golden_changed = t;
            }
            for ((&slot, planes), mismatched) in state
                .slots
                .iter()
                .zip(&state.planes)
                .zip(&mut state.mismatched)
            {
                let mut flips = (planes.x01_diverged_from(GOLDEN_LANE) ^ *mismatched) & rec;
                *mismatched ^= flips;
                while flips != 0 {
                    let lane = flips.trailing_zeros() as usize;
                    flips &= flips - 1;
                    self.toggles[lane].flip(slot, t);
                }
                if golden {
                    self.trace
                        .push_digital(slot, t, planes.lane(GOLDEN_LANE))
                        .expect("time is monotonic");
                }
            }
        }
        changed_list.clear();
        self.scratch.changed_list = changed_list;
        Ok(())
    }

    /// Evaluates component `c` for the lanes in `mask` and schedules its
    /// masked actions with per-lane inertial bookkeeping; returns whether
    /// the eval dropped an idle re-drive.
    fn eval_component(&mut self, c: usize, t: Time, mask: u64) -> bool {
        let (mut actions, dropped) = {
            let slot = &mut self.components[c];
            let mut ctx = WordEvalContext {
                now: t,
                eval_mask: mask,
                signals: &self.signals,
                ports: &slot.inputs,
                actions: std::mem::take(&mut self.scratch.actions),
                pool: &mut self.scratch.pool,
                rule: IdleRule::new(&slot.outputs, &self.queued),
            };
            slot.comp.eval(&mut ctx);
            (ctx.actions, ctx.rule.dropped)
        };
        for action in actions.drain(..) {
            match action {
                WordAction::Drive {
                    transport,
                    output,
                    value,
                    delay,
                    mask: lanes,
                } => {
                    self.queued[self.components[c].outputs[output].0] += 1;
                    let seq = self.wheel.push(
                        t + delay,
                        WordEventKind::Drive {
                            component: c,
                            output,
                            value,
                            mask: lanes,
                        },
                    );
                    if !transport {
                        self.components[c].out_gens[output].bump(seq, lanes);
                    }
                }
                WordAction::Wake { delay, mask: lanes } => {
                    self.wheel.push(
                        t + delay,
                        WordEventKind::Wake {
                            component: c,
                            mask: lanes,
                        },
                    );
                }
            }
        }
        self.scratch.actions = actions;
        dropped
    }

    /// What the case on lane `lane` leaves behind at `at`, its seal instant
    /// or the horizon: its toggles, and the monitored signals it has not
    /// touched.
    fn retire(&mut self, lane: usize, at: Time) -> Retired {
        let from = self.untouched.len();
        let untouched = self
            .signals
            .iter()
            .enumerate()
            .filter(|(_, signal)| !signal.slots.is_empty() && signal.touched >> lane & 1 == 0);
        self.untouched.extend(untouched.map(|(s, _)| s));
        Retired {
            at,
            toggles: std::mem::take(&mut self.toggles[lane]),
            untouched: from..self.untouched.len(),
        }
    }

    /// Stop `t` for each running case: `watch`, if given, is shown the
    /// lane, and retires it by returning `true` ([`LaneOutcome::Retired`]);
    /// a cancelled or expired token fails it.
    fn stop_cases(
        &mut self,
        occupant: &[usize; LANES],
        t: Time,
        mut watch: Option<&mut LaneWatch<'_>>,
        untouched: &mut Vec<DigitalSlot>,
    ) {
        let mut m = self.recording & !(1 << GOLDEN_LANE);
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let retire = watch.as_deref_mut().is_some_and(|watch| {
                untouched.clear();
                for signal in self.signals.iter().filter(|s| s.touched >> lane & 1 == 0) {
                    untouched.extend_from_slice(&signal.slots);
                }
                watch(occupant[lane], t, &self.toggles[lane], untouched)
            });
            if retire {
                self.end_lane(lane, LaneOutcome::Retired);
                continue;
            }
            if !matches!(&self.cancels[lane], Some(token) if token.should_stop()) {
                continue;
            }
            let error = SimError::from(GuardViolation::Deadline { t }).to_string();
            self.end_lane(lane, LaneOutcome::Failed { error });
        }
    }

    /// How a retired case ended, once the golden lane has reached the
    /// horizon: its toggles, plus every slot golden recorded that the
    /// case's trace would have left silent — a signal it never touched and
    /// golden did not change after `retired.at` either.
    fn outcome(&self, retired: Retired, sealed_at: Option<Time>) -> LaneOutcome {
        let Retired {
            at,
            mut toggles,
            untouched,
        } = retired;
        let golden = &self.trace;
        for signal in self.untouched[untouched].iter().map(|&s| &self.signals[s]) {
            if signal.golden_changed > at {
                continue;
            }
            for &slot in &signal.slots {
                if golden.digital_at(slot).is_some() {
                    toggles.mark_silent(slot);
                }
            }
        }
        if toggles.is_empty() {
            LaneOutcome::Clean { sealed_at }
        } else {
            LaneOutcome::Completed { toggles, sealed_at }
        }
    }

    /// Makes sealed lane `lane` what a lane whose case has not started is:
    /// no budget, no mismatch, and touched exactly where golden is. Its
    /// future-relevant machine state already equals golden's. State no
    /// later evaluation reads may still differ and is left as it is (see
    /// [`WordComponent::lanes_equal_to`]).
    fn vacate(&mut self, lane: usize) {
        let bit = 1u64 << lane;
        self.cancels[lane] = None;
        if self.step_caps.iter().any(|cap| cap.lane == lane) {
            self.step_caps.retain(|cap| cap.lane != lane);
            self.next_trip = self.earliest_trip();
        }
        for signal in &mut self.signals {
            for mismatched in &mut signal.mismatched {
                *mismatched &= !bit;
            }
            let golden = signal.touched >> GOLDEN_LANE & 1;
            signal.touched = (signal.touched & !bit) | (golden << lane);
        }
    }

    /// The lanes of `candidates` whose future-relevant machine state equals
    /// the golden lane's: every component's future-relevant per-lane state
    /// matches ([`WordComponent::lanes_equal_to`]) and every pending event
    /// shows equal (valid) participation with equal values. Signal
    /// equality is checked by the caller's plane probe. Conservative:
    /// equivalent-but-differently-scheduled futures are not recognised,
    /// which can only delay a seal, never corrupt one.
    fn lanes_eq_golden(&mut self, candidates: u64) -> u64 {
        let mut equal = candidates;
        for slot in &mut self.components {
            if equal == 0 {
                return 0;
            }
            equal &= slot.comp.lanes_equal_to(GOLDEN_LANE, equal);
        }
        for (_, seq, kind) in self.wheel.iter() {
            if equal == 0 {
                return 0;
            }
            // A lane matches when it takes part exactly if the golden lane
            // does, and then with the golden lane's values.
            let (taking_part, golden_does) = match kind {
                WordEventKind::Wake { mask, .. } => (*mask, (mask >> GOLDEN_LANE) & 1 != 0),
                WordEventKind::Drive {
                    component,
                    output,
                    value,
                    mask,
                } => {
                    let valid = self.components[*component].out_gens[*output].valid(seq, *mask);
                    let golden_does = (valid >> GOLDEN_LANE) & 1 != 0;
                    if golden_does {
                        for planes in value {
                            equal &= !planes.diverged_mask(planes.broadcast_lane(GOLDEN_LANE));
                        }
                    }
                    (valid, golden_does)
                }
            };
            equal &= if golden_does {
                taking_part
            } else {
                !taking_part
            };
        }
        equal
    }
}

/// A mid-run fault-injection surface shared by the scalar [`Simulator`]
/// and one lane of the word machine, so a campaign's inject/setup closures
/// can run unchanged on either kernel.
pub trait InjectTarget {
    /// Inverts one memorised bit (an SEU) and schedules a re-evaluation.
    fn flip_state(&mut self, component: ComponentId, bit: usize);

    /// Forces the encoded state (an erroneous FSM transition) and schedules
    /// a re-evaluation.
    fn force_state(&mut self, component: ComponentId, value: u64);

    /// Looks up a component instance by name.
    fn component_id(&self, name: &str) -> Option<ComponentId>;

    /// Mutable access to a component instance, for in-place configuration
    /// such as arming a saboteur.
    ///
    /// # Panics
    ///
    /// On a word-kernel lane whose component has a native plane
    /// implementation (no per-lane scalar instance exists). Saboteurs and
    /// all other stateful injection surfaces are farm-backed, so campaign
    /// inject closures never hit this.
    fn component_mut(&mut self, component: ComponentId) -> &mut dyn Component;

    /// Schedules a re-evaluation of `component` at `at` (clamped to the
    /// present).
    fn wake_component(&mut self, component: ComponentId, at: Time);

    /// Installs the per-case budget.
    fn set_budget(&mut self, budget: SimBudget);
}

impl InjectTarget for Simulator {
    fn flip_state(&mut self, component: ComponentId, bit: usize) {
        Simulator::flip_state(self, component, bit);
    }

    fn force_state(&mut self, component: ComponentId, value: u64) {
        Simulator::force_state(self, component, value);
    }

    fn component_id(&self, name: &str) -> Option<ComponentId> {
        Simulator::component_id(self, name)
    }

    fn component_mut(&mut self, component: ComponentId) -> &mut dyn Component {
        Simulator::component_mut(self, component)
    }

    fn wake_component(&mut self, component: ComponentId, at: Time) {
        Simulator::wake_component(self, component, at);
    }

    fn set_budget(&mut self, budget: SimBudget) {
        Simulator::set_budget(self, budget);
    }
}

/// One lane of the word machine viewed as an injection surface.
struct WordLaneCtx<'a> {
    sim: &'a mut WordSimulator,
    lane: usize,
}

impl InjectTarget for WordLaneCtx<'_> {
    fn flip_state(&mut self, component: ComponentId, bit: usize) {
        self.sim.components[component.0]
            .comp
            .flip_state_bit(self.lane, bit);
        self.wake_component(component, self.sim.wheel.now());
    }

    fn force_state(&mut self, component: ComponentId, value: u64) {
        self.sim.components[component.0]
            .comp
            .force_state(self.lane, value);
        self.wake_component(component, self.sim.wheel.now());
    }

    fn component_id(&self, name: &str) -> Option<ComponentId> {
        self.sim
            .components
            .iter()
            .position(|slot| slot.name == name)
            .map(ComponentId)
    }

    fn component_mut(&mut self, component: ComponentId) -> &mut dyn Component {
        let slot = &mut self.sim.components[component.0];
        match slot.comp.lane_component_mut(self.lane) {
            Some(instance) => instance,
            None => panic!(
                "component {:?} has a native word implementation; no per-lane scalar instance to configure",
                slot.name
            ),
        }
    }

    fn wake_component(&mut self, component: ComponentId, at: Time) {
        let at = at.max(self.sim.wheel.now());
        self.sim.wheel.push(
            at,
            WordEventKind::Wake {
                component: component.0,
                mask: 1 << self.lane,
            },
        );
    }

    fn set_budget(&mut self, budget: SimBudget) {
        self.sim.set_lane_budget(self.lane, budget);
    }
}

/// How one mutant lane ended.
#[derive(Debug)]
pub enum LaneOutcome {
    /// The lane ran to the horizon, or sealed, and differs from the golden
    /// trace ([`BatchReport::golden`]) on some monitored bit: `toggles` is
    /// what the comparison reads off the full-horizon trace a scalar run of
    /// the same fault case records. `sealed_at` is the instant its state
    /// reconverged with the golden machine's, if it did.
    Completed {
        /// Where the lane's X01 values differ from golden's.
        toggles: MismatchToggles,
        /// Reconvergence-seal instant, `None` if the lane ran to the end.
        sealed_at: Option<Time>,
    },
    /// The lane never differed from golden on a monitored bit: it
    /// classifies as the golden trace does.
    Clean {
        /// Reconvergence-seal instant, `None` if the lane ran to the end.
        sealed_at: Option<Time>,
    },
    /// A watch retired the lane (early abort): the watch holds its verdict.
    Retired,
    /// The lane's simulation failed: guard trip, cooperative cancellation,
    /// or injection error. Other lanes are unaffected.
    Failed {
        /// Display form of the lane's error.
        error: String,
    },
}

/// What [`WordBatchSimulator::run`] returns.
#[derive(Debug)]
pub struct BatchReport {
    /// The golden machine's trace over the full horizon.
    pub golden: Trace,
    /// Per-lane outcomes, indexed like the `add_lane` calls.
    pub outcomes: Vec<LaneOutcome>,
    /// Word machines the batch ran: one, plus one per spill.
    pub machines: usize,
    /// Cases that ran on a lane an earlier, sealed case had freed.
    pub refills: usize,
}

impl BatchReport {
    /// Lane `lane`'s mismatch toggles against [`BatchReport::golden`] —
    /// none for a [`LaneOutcome::Clean`] lane — or `None` if it retired or
    /// failed.
    pub fn lane_toggles(&self, lane: usize) -> Option<&MismatchToggles> {
        static NONE: MismatchToggles = MismatchToggles::new();
        match &self.outcomes[lane] {
            LaneOutcome::Completed { toggles, .. } => Some(toggles),
            LaneOutcome::Clean { .. } => Some(&NONE),
            LaneOutcome::Retired | LaneOutcome::Failed { .. } => None,
        }
    }
}

/// Where one `add_lane` case stands.
enum CaseState {
    /// Not started: waiting for its instant, in this machine or a later one.
    Pending,
    /// Simulating on lane `lane` of the current machine.
    Running {
        lane: usize,
    },
    /// Sealed; resolved once its machine's golden lane reaches the horizon.
    Sealed(Retired),
    Done(LaneOutcome),
}

struct WordCase {
    inject_at: Time,
    state: CaseState,
}

/// What a case leaves behind when its lane retires (see
/// [`WordSimulator::retire`]).
struct Retired {
    at: Time,
    toggles: MismatchToggles,
    /// Where in [`WordSimulator::untouched`] of its machine the monitored
    /// signals the case has not touched are listed.
    untouched: Range<usize>,
}

/// The batch kernel: any number of cases on word machines of
/// [`WordBatchSimulator::MAX_LANES`] mutant lanes plus the golden machine,
/// each machine one 64-lane word sharing a single event wheel.
///
/// A lane is the golden machine until its case's injection instant, where
/// the `inject` closure arms its fault through [`InjectTarget`] —
/// positioned exactly where the scalar forked runner injects, which is
/// what makes a lane's toggles those of a scalar run of the same case. A
/// lane whose case seals is the golden machine again and takes the next
/// case whose instant comes; a case whose instant finds no free lane runs
/// on a later machine. Which lane and which machine a case runs on never
/// changes its toggles; the stops of its machine decide when its seal is
/// seen.
///
/// # Examples
///
/// ```
/// use amsfi_digital::{cells, LaneOutcome, Netlist, Simulator, WordBatchSimulator};
/// use amsfi_waves::{Logic, Time};
///
/// fn build() -> Simulator {
///     let mut net = Netlist::new();
///     let clk = net.signal("clk", 1);
///     let rst = net.signal("rst", 1);
///     let en = net.signal("en", 1);
///     let q = net.signal("q", 8);
///     net.add("ck", cells::ClockGen::new(Time::from_ns(20)), &[], &[clk]);
///     net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
///     net.add("e", cells::ConstVector::bit(Logic::One), &[], &[en]);
///     net.add("ctr", cells::Counter::new(8, Time::ZERO), &[clk, rst, en], &[q]);
///     let mut sim = Simulator::new(net);
///     sim.monitor_name("q");
///     sim
/// }
///
/// let targets = build().mutant_targets();
/// let ctr = targets.iter().find(|t| t.component_name == "ctr").unwrap();
///
/// let mut batch = WordBatchSimulator::new(build(), Time::from_us(2));
/// batch.add_lane(Time::from_ns(100));
/// let report = batch.run(
///     |_lane, target| {
///         target.flip_state(ctr.component, ctr.bit);
///         Ok(())
///     },
///     |_lane, _target| {},
/// )?;
/// assert!(matches!(report.outcomes[0], LaneOutcome::Completed { .. }));
/// # Ok::<(), amsfi_digital::SimError>(())
/// ```
pub struct WordBatchSimulator {
    /// The fault-free scalar machine: it simulates the prefix all lanes
    /// share, and [`WordBatchSimulator::run`] lifts it to 64 lanes at each
    /// machine's first injection instant.
    golden: Simulator,
    t_end: Time,
    seal_stride: Option<Time>,
    cases: Vec<WordCase>,
    metrics: Option<Arc<KernelMetrics>>,
}

impl std::fmt::Debug for WordBatchSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WordBatchSimulator")
            .field("t_end", &self.t_end)
            .field("lanes", &self.cases.len())
            .finish_non_exhaustive()
    }
}

impl WordBatchSimulator {
    /// Mutant lanes per word: lane [`GOLDEN_LANE`] is the golden machine.
    pub const MAX_LANES: usize = LANES - 1;

    /// Wraps a fault-free simulator (monitoring already attached, budget
    /// already installed) as a word batch to `t_end`. The simulator may be
    /// unstarted or settled anywhere along the golden run, as long as no
    /// lane injects before that instant: a caller running many batches
    /// simulates their shared prefix once and hands each batch a clone.
    /// Lanes and golden come out byte-identical wherever it starts, and
    /// the installed budget counts steps from there.
    pub fn new(golden: Simulator, t_end: Time) -> Self {
        WordBatchSimulator {
            golden,
            t_end,
            seal_stride: None,
            cases: Vec::new(),
            metrics: None,
        }
    }

    /// Sets the spacing of intermediate lock-step stops (divergence probes
    /// and seal checks); the default is `t_end / 64`. Digital simulation is
    /// call-granularity invariant, so the stride affects only how early
    /// seals are *detected*, never simulation results.
    #[must_use]
    pub fn with_seal_stride(mut self, stride: Time) -> Self {
        assert!(stride > Time::ZERO, "seal stride must be positive");
        self.seal_stride = Some(stride);
        self
    }

    /// Feeds the lane-occupancy histogram and lane-seal counter.
    pub fn set_metrics(&mut self, metrics: Arc<KernelMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Adds a case injected at `inject_at` (clamped to the horizon) and
    /// returns its id, the `lane` the [`WordBatchSimulator::run`] closures
    /// are called with. Any number of cases may be added; more than
    /// [`WordBatchSimulator::MAX_LANES`] share lanes as theirs seal, or
    /// run on further machines. A case whose instant the simulator has
    /// already passed cannot be positioned: it ends as
    /// [`LaneOutcome::Failed`] without simulating.
    pub fn add_lane(&mut self, inject_at: Time) -> usize {
        let inject_at = inject_at.min(self.t_end);
        let now = self.golden.now();
        let state = if inject_at < now {
            CaseState::Done(LaneOutcome::Failed {
                error: format!(
                    "injection instant {inject_at} precedes the simulator's position {now}"
                ),
            })
        } else {
            CaseState::Pending
        };
        self.cases.push(WordCase { inject_at, state });
        self.cases.len() - 1
    }

    /// Runs the batch to the horizon. `inject(lane, target)` arms case
    /// `lane`'s fault on a machine positioned exactly at its injection
    /// instant — the same contract as the scalar forked runner's inject
    /// closure. `setup(lane, target)` runs first and is where per-case
    /// budgets are installed. Only a golden/machine-wide failure is an
    /// error; per-case failures land in the case's [`LaneOutcome`] and
    /// never abort the batch.
    ///
    /// # Errors
    ///
    /// A machine-wide failure: golden budget trip, word delta overflow (a
    /// word delta cycle's non-convergence cannot be attributed to one
    /// lane), or [`SimError::Unseedable`] when the simulator holds state
    /// with no 64-lane form (an external drive pending from
    /// [`Simulator::inject_value`]). The campaign engine falls back to
    /// scalar for the whole group.
    pub fn run(
        self,
        inject: impl FnMut(usize, &mut dyn InjectTarget) -> Result<(), String>,
        setup: impl FnMut(usize, &mut dyn InjectTarget),
    ) -> Result<BatchReport, SimError> {
        self.run_with(inject, setup, None)
    }

    /// [`WordBatchSimulator::run`], where `watch(lane, t, toggles,
    /// untouched)` is shown each running case at each stop before the
    /// horizon, after the reconvergence probe: its toggles so far, and the
    /// monitored golden slots it has not recorded yet (the signals it has
    /// not changed). Returning `true` retires the case's lane at that stop:
    /// the case ends [`LaneOutcome::Retired`].
    ///
    /// # Errors
    ///
    /// As [`WordBatchSimulator::run`].
    pub fn run_watched(
        self,
        inject: impl FnMut(usize, &mut dyn InjectTarget) -> Result<(), String>,
        setup: impl FnMut(usize, &mut dyn InjectTarget),
        mut watch: impl FnMut(usize, Time, &MismatchToggles, &[DigitalSlot]) -> bool,
    ) -> Result<BatchReport, SimError> {
        self.run_with(inject, setup, Some(&mut watch))
    }

    fn run_with(
        self,
        mut inject: impl FnMut(usize, &mut dyn InjectTarget) -> Result<(), String>,
        mut setup: impl FnMut(usize, &mut dyn InjectTarget),
        mut watch: Option<&mut LaneWatch<'_>>,
    ) -> Result<BatchReport, SimError> {
        let WordBatchSimulator {
            golden,
            t_end,
            seal_stride,
            mut cases,
            metrics,
        } = self;
        let stride = seal_stride.unwrap_or_else(|| (t_end / 64).max(Time::from_fs(1)));
        let mut arm = |case, target: &mut dyn InjectTarget| {
            setup(case, target);
            inject(case, target)
        };
        // The cases still to activate, in injection order (call order
        // within one instant): every instant is a stop of its machine's
        // grid, so a machine walks its share of this list once, front to
        // back, and hands the cases it found no lane for to the next.
        let mut queue: Vec<usize> = (0..cases.len())
            .filter(|&c| matches!(cases[c].state, CaseState::Pending))
            .collect();
        queue.sort_by_key(|&c| cases[c].inject_at);
        // A later machine counts its steps from its own first instant, as
        // a batch handed a snapshot taken there would.
        let budget = golden.budget().clone();
        let mut cursor = Some(golden);
        let (mut machines, mut refills) = (0, 0);
        let mut golden_trace: Option<Trace> = None;
        while let Some(mut scalar) = cursor.take() {
            let first = queue.first().map_or(t_end, |&c| cases[c].inject_at);
            // Up to the first injection every lane is the golden machine:
            // the scalar kernel simulates that stretch once, at scalar
            // cost, and the word machine takes over where lanes can start
            // to differ.
            scalar.run_until(first)?;
            if queue.len() > Self::MAX_LANES {
                // Cases may spill: the next machine forks here too.
                cursor = Some(scalar.clone());
            }
            if machines > 0 {
                scalar.set_budget(budget.clone());
            }
            let instants = queue.iter().map(|&c| cases[c].inject_at);
            let stops = stop_grid(instants, scalar.now(), stride, t_end);
            let mut sim = WordSimulator::from_scalar(scalar)?;
            let pass = run_machine(
                &mut sim,
                &mut cases,
                &queue,
                &stops,
                metrics.as_deref(),
                &mut arm,
                watch.as_deref_mut(),
            )?;
            machines += 1;
            refills += pass.refills;
            queue = pass.spilled;
            let golden = std::mem::take(&mut sim.trace);
            debug_assert!(
                golden_trace.as_ref().is_none_or(|g| *g == golden),
                "the machines of one batch ran different golden machines"
            );
            golden_trace = Some(golden);
            if queue.is_empty() {
                break;
            }
        }
        let outcomes = cases
            .into_iter()
            .map(|case| match case.state {
                CaseState::Done(outcome) => outcome,
                // Every machine settles the cases it seats, and one that
                // can spill keeps the cursor for the next; the arm reports
                // instead of panicking.
                _ => LaneOutcome::Failed {
                    error: "the lane never reached its injection instant".to_owned(),
                },
            })
            .collect();
        Ok(BatchReport {
            golden: golden_trace.expect("a batch runs at least one machine"),
            outcomes,
            machines,
            refills,
        })
    }
}

/// The lock-step stop grid of a machine handed over at `start`: every
/// injection instant of its cases, seal-check points every `stride`, and
/// the horizon. Ascending and deduplicated. Seal checks sit on multiples of
/// the stride counted from time zero, not from `start`, so lanes seal at
/// the same instants wherever the golden simulator was handed over.
fn stop_grid(
    instants: impl Iterator<Item = Time>,
    start: Time,
    stride: Time,
    t_end: Time,
) -> Vec<Time> {
    let mut stops: Vec<Time> = instants.collect();
    let mut t = start - start % stride + stride;
    while t < t_end {
        stops.push(t);
        t += stride;
    }
    stops.push(t_end);
    stops.sort_unstable();
    stops.dedup();
    stops
}

/// What [`WordBatchSimulator::run_watched`] shows each running case.
pub type LaneWatch<'a> = dyn FnMut(usize, Time, &MismatchToggles, &[DigitalSlot]) -> bool + 'a;

/// What one machine of a batch hands back.
struct Pass {
    /// The cases whose instant found no free lane, in injection order.
    spilled: Vec<usize>,
    /// Cases seated on a lane a sealed case had freed.
    refills: usize,
}

/// Runs one word machine over `queue` (case ids in injection order) along
/// `stops` to the horizon, and settles every case it seats.
///
/// The mutant lanes start as golden shadows, as many as there are cases to
/// take them. A case takes a free lane at its instant — one no case has
/// held yet if there is one. A lane whose case seals is free again: it
/// stays live while more cases wait than lanes are free, and freezes when
/// none would take it. A case whose instant finds no free lane is handed
/// back, still pending, for the next machine. `arm` sets a seated case up
/// and injects its fault.
fn run_machine(
    sim: &mut WordSimulator,
    cases: &mut [WordCase],
    queue: &[usize],
    stops: &[Time],
    metrics: Option<&KernelMetrics>,
    arm: &mut impl FnMut(usize, &mut dyn InjectTarget) -> Result<(), String>,
    mut watch: Option<&mut LaneWatch<'_>>,
) -> Result<Pass, SimError> {
    let mut free = (1u64 << queue.len().min(WordBatchSimulator::MAX_LANES)) - 1;
    sim.live = free | 1 << GOLDEN_LANE;
    // The case on each lane, and the lanes some case has held.
    let mut occupant = [usize::MAX; LANES];
    let mut used = 0u64;
    let mut pass = Pass {
        spilled: Vec::new(),
        refills: 0,
    };
    let mut waiting = queue.len();
    let mut due = queue.iter().copied().peekable();
    let t_end = *stops.last().expect("the grid ends at the horizon");
    let mut untouched = Vec::new();

    for &t in stops {
        sim.run_until(t)?;
        collect_endings(sim, cases, &occupant);

        // Seat the cases whose injection instant this stop is: from here on
        // the lane is compared with golden, and setup + inject run on it.
        let mut activated = false;
        while let Some(case) = due.next_if(|&c| cases[c].inject_at == t) {
            waiting -= 1;
            if free == 0 {
                pass.spilled.push(case);
                continue;
            }
            let fresh = free & !used;
            let pick = if fresh != 0 { fresh } else { free };
            let lane = pick.trailing_zeros() as usize;
            free &= !(1 << lane);
            if used >> lane & 1 != 0 {
                pass.refills += 1;
            }
            used |= 1 << lane;
            occupant[lane] = case;
            sim.recording |= 1 << lane;
            let mut ctx = WordLaneCtx {
                sim: &mut *sim,
                lane,
            };
            match arm(case, &mut ctx) {
                Ok(()) => activated = true,
                Err(error) => sim.end_lane(lane, LaneOutcome::Failed { error }),
            }
            cases[case].state = CaseState::Running { lane };
        }
        // Drain the injection wakes scheduled at the stop itself, so the
        // corrupted state propagates before the seal probe — the same
        // re-opened time point a scalar run processes.
        if activated {
            sim.run_until(t)?;
        }
        collect_endings(sim, cases, &occupant);

        let mut sealed = seal_reconverged(sim, metrics);
        free |= sealed;
        while sealed != 0 {
            let lane = sealed.trailing_zeros() as usize;
            sealed &= sealed - 1;
            cases[occupant[lane]].state = CaseState::Sealed(sim.retire(lane, t));
            sim.vacate(lane);
        }
        if t < t_end {
            sim.stop_cases(&occupant, t, watch.as_deref_mut(), &mut untouched);
        }
        while free.count_ones() as usize > waiting {
            let lane = 63 - free.leading_zeros() as usize;
            free &= !(1 << lane);
            sim.live &= !(1 << lane);
        }

        if let Some(metrics) = metrics {
            // Mutant lanes only: the golden lane is live by construction,
            // and excluding it keeps every observation within the 63-slot
            // mutant capacity (so the log₂ p50 never reads past the word
            // width).
            metrics
                .lane_occupancy
                .observe(u64::from(sim.live.count_ones().saturating_sub(1)));
        }
        if waiting == 0 && sim.recording == 1 << GOLDEN_LANE {
            break;
        }
    }
    // The golden lane must reach the horizon even if every case retired
    // early: the golden trace is the report's, and what the sealed cases
    // would have recorded after their seal is read off it.
    sim.run_until(t_end)?;
    collect_endings(sim, cases, &occupant);
    for &case in queue {
        let state = std::mem::replace(&mut cases[case].state, CaseState::Pending);
        cases[case].state = match state {
            CaseState::Running { lane } => {
                let retired = sim.retire(lane, t_end);
                CaseState::Done(sim.outcome(retired, None))
            }
            CaseState::Sealed(retired) => {
                let at = retired.at;
                CaseState::Done(sim.outcome(retired, Some(at)))
            }
            other => other,
        };
    }
    Ok(pass)
}

/// Moves the outcomes of lanes that ended inside the word machine (budget
/// trips, watch retirements, injection errors) to the cases on them.
fn collect_endings(sim: &mut WordSimulator, cases: &mut [WordCase], occupant: &[usize; LANES]) {
    let mut m = std::mem::take(&mut sim.ended);
    while m != 0 {
        let lane = m.trailing_zeros() as usize;
        m &= m - 1;
        if let Some(outcome) = sim.endings[lane].take() {
            cases[occupant[lane]].state = CaseState::Done(outcome);
        }
    }
}

/// Seals every running lane whose machine state has reconverged with the
/// golden lane's: plane-XOR probe over *all* signals first (one
/// `diverged_mask` per signal bit covers every lane at once), then
/// per-component and pending-event confirmation for the clean candidates.
/// Returns the sealed lanes, which are no longer recorded.
fn seal_reconverged(sim: &mut WordSimulator, metrics: Option<&KernelMetrics>) -> u64 {
    let candidates = sim.recording & !(1 << GOLDEN_LANE);
    if candidates == 0 {
        return 0;
    }
    let mut diverged = 0u64;
    for sig in &sim.signals {
        for plane in &sig.planes {
            diverged |= plane.diverged_mask(plane.broadcast_lane(GOLDEN_LANE));
        }
    }
    let sealed = sim.lanes_eq_golden(candidates & !diverged);
    sim.recording &= !sealed;
    if let Some(metrics) = metrics {
        metrics.lane_seals.add(u64::from(sealed.count_ones()));
    }
    sealed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{ClockGen, ConstVector, Counter, Stimulus};
    use crate::{DigitalSaboteur, Netlist};
    use amsfi_faults::{DigitalFault, DigitalFaultKind};
    use amsfi_waves::Logic;

    /// A clocked 8-bit counter, optionally with a saboteur on `en`: SET
    /// pulses on the enable either suppress a count (sampled) or wash out
    /// (unsampled), giving permanently diverged and reconverging lanes.
    fn build_with(saboteur: Option<DigitalSaboteur>) -> Simulator {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let en = net.signal("en", 1);
        let q = net.signal("q", 8);
        net.add("ck", ClockGen::new(Time::from_ns(20)), &[], &[clk]);
        net.add("r", ConstVector::bit(Logic::Zero), &[], &[rst]);
        net.add("e", ConstVector::bit(Logic::One), &[], &[en]);
        net.add("ctr", Counter::new(8, Time::ZERO), &[clk, rst, en], &[q]);
        if let Some(saboteur) = saboteur {
            net.insert_saboteur(en, Box::new(saboteur));
        }
        let mut sim = Simulator::new(net);
        sim.monitor_name("q");
        sim
    }

    fn build() -> Simulator {
        build_with(None)
    }

    /// The counter with a transparent saboteur on `en`, or one armed with
    /// `fault` from power-on (the scalar reference of a SET case).
    fn build_sab(fault: Option<DigitalFault>) -> Simulator {
        let saboteur = DigitalSaboteur::new(1);
        build_with(Some(match fault {
            Some(fault) => saboteur.with_fault(fault),
            None => saboteur,
        }))
    }

    /// Arms the `en` saboteur of one lane in place, as a campaign's inject
    /// closure does.
    fn arm_en(target: &mut dyn InjectTarget, fault: &DigitalFault) {
        arm(target, "saboteur(en)", fault);
    }

    fn arm(target: &mut dyn InjectTarget, saboteur: &str, fault: &DigitalFault) {
        let sab = target.component_id(saboteur).expect("saboteur present");
        target
            .component_mut(sab)
            .as_any_mut()
            .downcast_mut::<DigitalSaboteur>()
            .expect("saboteur type")
            .arm(fault.clone());
        target.wake_component(sab, fault.at);
    }

    fn counter_target(sim: &Simulator) -> crate::MutantTarget {
        sim.mutant_targets()
            .into_iter()
            .find(|t| t.component_name == "ctr")
            .expect("counter present")
    }

    /// Lane `lane` against the scalar run of its case: its toggles are the
    /// ones that run's trace shows against golden. Panics with the lane's
    /// error.
    fn assert_lane(report: &BatchReport, lane: usize, scalar: &Trace) {
        let toggles = report
            .lane_toggles(lane)
            .unwrap_or_else(|| panic!("lane {lane}: {:?}", report.outcomes[lane]));
        assert_eq!(
            toggles,
            &MismatchToggles::between(&report.golden, scalar),
            "lane {lane}: toggles"
        );
    }

    fn sealed_at(outcome: &LaneOutcome) -> Option<Time> {
        match outcome {
            LaneOutcome::Completed { sealed_at, .. } | LaneOutcome::Clean { sealed_at } => {
                *sealed_at
            }
            other => panic!("{other:?}"),
        }
    }

    fn scalar_flip(at: Time, bit: usize, t_end: Time) -> Trace {
        let mut sim = build();
        let target = counter_target(&sim);
        sim.run_until(at).unwrap();
        sim.flip_state(target.component, bit);
        sim.run_until(t_end).unwrap();
        sim.into_trace()
    }

    #[test]
    fn word_lanes_match_scalar_traces_byte_for_byte() {
        const T_END: Time = Time::from_us(4);
        let times = [Time::from_ns(105), Time::from_ns(330), Time::from_us(1)];
        let bits = [0usize, 3, 7];

        let target = counter_target(&build());
        let mut batch = WordBatchSimulator::new(build(), T_END);
        let mut cases = Vec::new();
        for &at in &times {
            for &bit in &bits {
                batch.add_lane(at);
                cases.push((at, bit));
            }
        }
        let report = batch
            .run(
                |lane, sim| {
                    sim.flip_state(target.component, cases[lane].1);
                    Ok(())
                },
                |_, _| {},
            )
            .unwrap();

        for (lane, &(at, bit)) in cases.iter().enumerate() {
            assert_lane(&report, lane, &scalar_flip(at, bit, T_END));
        }
    }

    #[test]
    fn word_machine_seeded_with_a_delta_event_pending_matches_scalar() {
        // The flip leaves a wake at the current instant in the scalar
        // wheel's FIFO; the word machine must take it over with the rest.
        const T_END: Time = Time::from_us(2);
        let mut scalar = build();
        let target = counter_target(&scalar);
        scalar.run_until(Time::from_ns(105)).unwrap();
        scalar.flip_state(target.component, 3);
        assert_eq!(scalar.next_event_time(), Some(Time::from_ns(105)));

        let mut word = WordSimulator::from_scalar(scalar.clone()).unwrap();
        assert_eq!(word.wheel.next_time(), Some(Time::from_ns(105)));
        assert_eq!(word.wheel.iter().count(), 2, "the wake and the clock");
        scalar.run_until(T_END).unwrap();
        word.run_until(T_END).unwrap();

        assert_eq!(&word.trace, scalar.trace());
        for sig in &word.signals {
            let id = scalar.signal_id(&sig.name).unwrap();
            for (bit, planes) in sig.planes.iter().enumerate() {
                assert_eq!(
                    *planes,
                    LogicPlanes::splat(scalar.value(id)[bit]),
                    "{}[{bit}]",
                    sig.name
                );
            }
        }
    }

    #[test]
    fn word_golden_trace_matches_pristine_scalar() {
        const T_END: Time = Time::from_us(4);
        let mut scalar = build();
        scalar.run_until(T_END).unwrap();
        let scalar_trace = scalar.into_trace();

        let mut batch = WordBatchSimulator::new(build(), T_END);
        let target = counter_target(&build());
        batch.add_lane(Time::from_ns(100));
        let report = batch
            .run(
                |_, sim| {
                    sim.flip_state(target.component, 0);
                    Ok(())
                },
                |_, _| {},
            )
            .unwrap();
        assert_eq!(report.golden, scalar_trace);
    }

    #[test]
    fn word_washed_out_pulse_reconverges_and_seals() {
        const T_END: Time = Time::from_us(4);
        let fault = DigitalFault::new(
            DigitalFaultKind::SetPulse {
                width: Time::from_ns(4),
            },
            Time::from_ns(42),
        );

        let mut scalar = build_sab(Some(fault.clone()));
        scalar.run_until(T_END).unwrap();
        let scalar_trace = scalar.into_trace();

        // Armed at power-on, and armed at 37 ns, where the word machine
        // then takes over from the scalar kernel: seal checks stay on the
        // 50 ns grid counted from time zero, so both seal at one instant.
        let mut seals = Vec::new();
        for armed_at in [Time::ZERO, Time::from_ns(37)] {
            let mut batch =
                WordBatchSimulator::new(build_sab(None), T_END).with_seal_stride(Time::from_ns(50));
            batch.add_lane(armed_at);
            let lane = batch.add_lane(armed_at);
            let report = batch
                .run(
                    |_, sim| {
                        arm_en(sim, &fault);
                        Ok(())
                    },
                    |_, _| {},
                )
                .unwrap();

            assert_lane(&report, lane - 1, &scalar_trace);
            assert_lane(&report, lane, &scalar_trace);
            let sealed = sealed_at(&report.outcomes[lane]).expect("washed-out pulse must seal");
            assert!(sealed < Time::from_us(1), "sealed late: {sealed}");
            seals.push(sealed);
        }
        assert_eq!(seals[0], seals[1]);
        assert_eq!(seals[0] % Time::from_ns(50), Time::ZERO);
    }

    #[test]
    fn lane_behind_the_simulator_fails_alone() {
        const T_END: Time = Time::from_us(2);
        let target = counter_target(&build());
        let mut golden = build();
        golden.run_until(Time::from_ns(500)).unwrap();
        let mut batch = WordBatchSimulator::new(golden, T_END);
        let late = batch.add_lane(Time::from_ns(700));
        let behind = batch.add_lane(Time::from_ns(499));
        let report = batch
            .run(
                |_, sim| {
                    sim.flip_state(target.component, 2);
                    Ok(())
                },
                |_, _| {},
            )
            .unwrap();
        assert!(
            matches!(&report.outcomes[behind], LaneOutcome::Failed { error } if error.contains("precedes")),
            "{:?}",
            report.outcomes[behind]
        );
        assert_lane(&report, late, &scalar_flip(Time::from_ns(700), 2, T_END));
    }

    #[test]
    fn external_drive_past_the_first_injection_is_an_error_not_a_panic() {
        const T_END: Time = Time::from_us(2);
        let target = counter_target(&build());
        let run = |external_at: Time| {
            let mut golden = build();
            let en = golden.signal_id("en").unwrap();
            golden.inject_value(en, LogicVector::filled(Logic::Zero, 1), external_at);
            let mut batch = WordBatchSimulator::new(golden, T_END);
            batch.add_lane(Time::from_ns(300));
            batch.run(
                |_, sim| {
                    sim.flip_state(target.component, 1);
                    Ok(())
                },
                |_, _| {},
            )
        };
        // Before the first injection the scalar kernel applies it itself.
        assert!(run(Time::from_ns(200)).is_ok());
        match run(Time::from_ns(900)) {
            Err(SimError::Unseedable(why)) => assert!(why.contains("\"en\""), "{why}"),
            other => panic!("expected an unseedable error, got {other:?}"),
        }
    }

    #[test]
    fn word_guard_trip_retires_only_that_lane() {
        const T_END: Time = Time::from_us(2);
        let ns = Time::from_ns;
        let target = counter_target(&build());
        let mut batch = WordBatchSimulator::new(build(), T_END);
        let strict = batch.add_lane(ns(100));
        let free = batch.add_lane(ns(100));
        // A cap no lane reaches, one that starts part-used, a floor-only
        // budget (armed, but nothing this kernel does can trip it), and a
        // cancellable lane that a later lane's setup cancels.
        let roomy = batch.add_lane(ns(100));
        let part_used = batch.add_lane(ns(300));
        let floor_only = batch.add_lane(ns(300));
        let cancellable = batch.add_lane(ns(100));
        let canceller = batch.add_lane(ns(500));
        let token = amsfi_waves::CancelToken::new();
        let report = batch
            .run(
                |_, sim| {
                    sim.flip_state(target.component, 7);
                    Ok(())
                },
                |lane, sim| {
                    if lane == strict {
                        sim.set_budget(SimBudget::unlimited().with_max_steps(3));
                    } else if lane == roomy {
                        sim.set_budget(SimBudget::unlimited().with_max_steps(1_000));
                    } else if lane == part_used {
                        let mut budget = SimBudget::unlimited().with_max_steps(5);
                        budget.note_step(Time::ZERO).unwrap();
                        budget.note_step(Time::ZERO).unwrap();
                        sim.set_budget(budget);
                    } else if lane == floor_only {
                        sim.set_budget(SimBudget::unlimited().with_min_dt(ns(1)));
                    } else if lane == cancellable {
                        sim.set_budget(
                            SimBudget::unlimited()
                                .with_max_steps(1_000)
                                .with_cancel(token.clone()),
                        );
                    } else if lane == canceller {
                        token.cancel();
                    }
                },
            )
            .unwrap();
        let error = |lane: usize| match &report.outcomes[lane] {
            LaneOutcome::Failed { error } => error.clone(),
            other => panic!("lane {lane} must fail: {other:?}"),
        };
        // The re-opened 100 ns time point is the strict lane's first step,
        // the clock toggles at 110 and 120 ns use up the cap, 130 ns trips
        // it: the time point and count its own `note_step` reported before
        // the lanes shared one counter.
        assert_eq!(
            error(strict),
            format!("step-budget-exhausted steps=4 t={}", ns(130).as_fs())
        );
        // Two of five steps were gone at 300 ns: 300 (re-opened), 310, 320
        // fit, 330 ns is the sixth.
        assert_eq!(
            error(part_used),
            format!("step-budget-exhausted steps=6 t={}", ns(330).as_fs())
        );
        // Cancelled while the word sat at the 500 ns stop: the lane goes at
        // the very next time point, the one the canceller's flip re-opens.
        assert_eq!(
            error(cancellable),
            format!("deadline t={}", ns(500).as_fs())
        );
        for (lane, at) in [
            (free, 100),
            (roomy, 100),
            (floor_only, 300),
            (canceller, 500),
        ] {
            assert_lane(&report, lane, &scalar_flip(ns(at), 7, T_END));
        }
    }

    #[test]
    fn word_lanes_seal_where_a_scalar_pair_reconverges() {
        // The seal instant against an oracle that is not a word run: per
        // lane, a scalar golden and a scalar faulty simulator walk the
        // group's stop grid, and the lane must seal at the first stop at or
        // after its injection where their complete state agrees — never, if
        // it never does. SET pulses on `en` of mixed fate: washed out
        // within a stop or two, spanning a stride point, sampled by the
        // clock (the count stays behind for good).
        const T_END: Time = Time::from_us(4);
        let ns = Time::from_ns;
        let pulses = [
            (42, 4),
            (57, 9),
            (118, 3),
            (133, 30),
            (260, 1),
            (395, 12),
            (1003, 2),
        ];
        let faults: Vec<DigitalFault> = pulses
            .iter()
            .map(|&(at, width)| {
                DigitalFault::new(DigitalFaultKind::SetPulse { width: ns(width) }, ns(at))
            })
            .collect();

        let mut word = WordBatchSimulator::new(build_sab(None), T_END).with_seal_stride(ns(50));
        for fault in &faults {
            word.add_lane(fault.at);
        }
        let stops = stop_grid(faults.iter().map(|f| f.at), Time::ZERO, ns(50), T_END);
        let report = word
            .run(
                |lane, target| {
                    arm_en(target, &faults[lane]);
                    Ok(())
                },
                |_, _| {},
            )
            .unwrap();

        let mut seals = Vec::new();
        for (lane, fault) in faults.iter().enumerate() {
            let mut golden = build_sab(None);
            let mut faulty = build_sab(None);
            let mut expected = None;
            for &t in &stops {
                golden.run_until(t).unwrap();
                faulty.run_until(t).unwrap();
                if t == fault.at {
                    arm_en(&mut faulty, fault);
                    faulty.run_until(t).unwrap();
                }
                if t >= fault.at && golden.state_digest() == faulty.state_digest() {
                    expected = Some(t);
                    break;
                }
            }
            assert_eq!(
                sealed_at(&report.outcomes[lane]),
                expected,
                "lane {lane} (SET on en @ {}, {:?})",
                fault.at,
                fault.kind
            );
            let mut scalar = build_sab(Some(fault.clone()));
            scalar.run_until(T_END).unwrap();
            assert_lane(&report, lane, scalar.trace());
            seals.push(expected);
        }
        // The oracle is not vacuous: on and off the stride grid (133 ns is
        // another lane's injection stop), and one lane that never seals.
        assert_eq!(
            seals,
            [
                Some(ns(50)),
                Some(ns(100)),
                Some(ns(133)),
                None,
                Some(ns(300)),
                Some(ns(450)),
                Some(ns(1050)),
            ]
        );
    }

    /// The counter with saboteurs on `en` and on `late`, an input that
    /// rises at 1.5 µs and so is first recorded then; `q` and the spliced
    /// `late__sab` are monitored.
    fn build_late() -> Simulator {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let en = net.signal("en", 1);
        let late = net.signal("late", 1);
        let q = net.signal("q", 8);
        net.add("ck", ClockGen::new(Time::from_ns(20)), &[], &[clk]);
        net.add("r", ConstVector::bit(Logic::Zero), &[], &[rst]);
        net.add("e", ConstVector::bit(Logic::One), &[], &[en]);
        let rise = Stimulus::bits([(Time::from_ns(1500), true)]);
        net.add("l", rise, &[], &[late]);
        net.add("ctr", Counter::new(8, Time::ZERO), &[clk, rst, en], &[q]);
        net.insert_saboteur(en, Box::new(DigitalSaboteur::new(1)));
        net.insert_saboteur(late, Box::new(DigitalSaboteur::new(1)));
        let mut sim = Simulator::new(net);
        sim.monitor_name("q");
        sim.monitor_name("late__sab");
        sim
    }

    #[test]
    fn a_watcher_is_shown_the_lane_and_may_retire_it() {
        // Two counter upsets, both watched. What the watch is shown of one
        // is kept: at every stop before the horizon, the toggles so far,
        // and `late__sab` as untouched until golden (and with it the lane)
        // first records it at 1.5 µs. The other is retired once shown 1 µs,
        // and the lane retires at that stop.
        const T_END: Time = Time::from_us(2);
        let ns = Time::from_ns;
        let counter = counter_target(&build_late());
        let mut word = WordBatchSimulator::new(build_late(), T_END).with_seal_stride(ns(250));
        let kept = word.add_lane(ns(305));
        let retired = word.add_lane(ns(305));
        let mut shown: Vec<(Time, MismatchToggles, Vec<DigitalSlot>)> = Vec::new();
        let mut last_asked = Time::ZERO;
        let report = word
            .run_watched(
                |_, target| {
                    target.flip_state(counter.component, 6);
                    Ok(())
                },
                |_, _| {},
                |lane, t, toggles, untouched| {
                    if lane == kept {
                        shown.push((t, toggles.clone(), untouched.to_vec()));
                    } else {
                        last_asked = t;
                    }
                    lane == retired && t >= ns(1000)
                },
            )
            .unwrap();

        let late = report.golden.recorded_digital_slot("late__sab").unwrap();
        let all = report.lane_toggles(kept).expect("the kept lane completes");
        let times: Vec<Time> = shown.iter().map(|(t, ..)| *t).collect();
        let mut stops = vec![ns(305)];
        stops.extend((2..8).map(|i| ns(250 * i)));
        assert_eq!(times, stops);
        for (t, toggles, untouched) in &shown {
            let prefix: Vec<_> = all.iter().filter(|(at, _)| at <= t).collect();
            assert_eq!(toggles.iter().collect::<Vec<_>>(), prefix, "toggles at {t}");
            let expected = if *t < ns(1500) { vec![late] } else { vec![] };
            assert_eq!(*untouched, expected, "untouched at {t}");
        }
        assert!(!all.is_empty());
        assert!(matches!(report.outcomes[retired], LaneOutcome::Retired));
        assert_eq!(last_asked, ns(1000), "the retired lane ends at that stop");
    }

    #[test]
    fn a_case_on_a_reused_lane_ends_as_on_a_fresh_one() {
        // A washed-out pulse on `en` (case 0) seals at 50 ns while 62
        // counter upsets hold every other lane to the horizon. Case 63 can
        // only run on case 0's lane, and case 64, after it, finds no lane
        // and spills to a second machine. Golden first records `late__sab`
        // at 1.5 µs: after case 0 sealed (so, sealed, it records it then
        // too) and after case 63 took the lane (which holds it at 'U': a
        // slot it never records).
        const T_END: Time = Time::from_us(2);
        let ns = Time::from_ns;
        enum Inject {
            Flip(usize),
            Arm(&'static str, DigitalFaultKind),
        }
        let set = |width| Inject::Arm("saboteur(en)", DigitalFaultKind::SetPulse { width });
        let mut cases = vec![(ns(42), set(ns(4)))];
        cases.extend((0..62).map(|i| (ns(45), Inject::Flip(i % 8))));
        let stuck = DigitalFaultKind::StuckAt(Logic::Uninitialized);
        cases.push((ns(305), Inject::Arm("saboteur(late)", stuck)));
        cases.push((ns(322), set(ns(2))));

        let counter = counter_target(&build_late());
        let apply = |target: &mut dyn InjectTarget, (at, inject): &(Time, Inject)| match inject {
            Inject::Flip(bit) => target.flip_state(counter.component, *bit),
            Inject::Arm(saboteur, kind) => {
                arm(target, saboteur, &DigitalFault::new(kind.clone(), *at));
            }
        };
        let batch = |cases: &[&(Time, Inject)]| {
            let mut word = WordBatchSimulator::new(build_late(), T_END).with_seal_stride(ns(50));
            for (at, _) in cases {
                word.add_lane(*at);
            }
            let arm_lane = |lane: usize, target: &mut dyn InjectTarget| {
                apply(target, cases[lane]);
                Ok(())
            };
            // A cap the first pulse lives well within, and the clock edges
            // from its seal to the next free lane's case would not: a lane
            // must drop its case's budget when the case seals.
            let cap_first = |lane: usize, target: &mut dyn InjectTarget| {
                if cases[lane].0 == ns(42) {
                    target.set_budget(SimBudget::unlimited().with_max_steps(10));
                }
            };
            word.run(arm_lane, cap_first).unwrap()
        };

        let report = batch(&cases.iter().collect::<Vec<_>>());
        assert_eq!((report.machines, report.refills), (2, 1));
        for (i, case) in cases.iter().enumerate() {
            let fresh = batch(&[case]);
            assert_eq!(report.golden, fresh.golden);
            assert_eq!(report.lane_toggles(i), fresh.lane_toggles(0), "case {i}");
            assert_eq!(
                sealed_at(&report.outcomes[i]),
                sealed_at(&fresh.outcomes[0]),
                "case {i}"
            );
            let mut scalar = build_late();
            scalar.run_until(case.0).unwrap();
            apply(&mut scalar, case);
            scalar.run_until(T_END).unwrap();
            let expected = MismatchToggles::between(&report.golden, scalar.trace());
            assert_eq!(report.lane_toggles(i), Some(&expected), "case {i}");
        }
        assert!(matches!(
            report.outcomes[0],
            LaneOutcome::Clean { sealed_at: Some(at) } if at == ns(50)
        ));
        let late = report.golden.recorded_digital_slot("late__sab").unwrap();
        assert!(report.lane_toggles(63).unwrap().is_silent(late));
    }

    /// One requested word drive: value, delay in ns, transport, lanes.
    type WordDrive = (LogicPlanes, i64, bool, u64);

    /// A driver of one scalar output playing a script: at each `(at ns,
    /// drives)` step it requests `drives` in order, each on its lanes of
    /// the eval mask, and it wakes itself for the next step. Its scalar
    /// form plays the golden lane's part of the same drives, and its word
    /// form is native, so its drives go through the idle-drive rule.
    #[derive(Debug, Clone)]
    struct WordScript(Vec<(i64, Vec<WordDrive>)>);

    impl WordScript {
        fn drives_at(&self, now: Time) -> impl Iterator<Item = &WordDrive> {
            let steps = self
                .0
                .iter()
                .filter(move |(at, _)| Time::from_ns(*at) == now);
            steps.flat_map(|(_, drives)| drives)
        }

        fn next_step(&self, now: Time) -> Option<Time> {
            let later = self.0.iter().map(|(at, _)| Time::from_ns(*at));
            later.filter(|&at| at > now).min()
        }
    }

    impl WordComponent for WordScript {
        fn eval(&mut self, ctx: &mut WordEvalContext<'_>) {
            let (now, mask) = (ctx.now(), ctx.eval_mask());
            for &(value, delay, transport, lanes) in self.drives_at(now) {
                let delay = Time::from_ns(delay);
                if transport {
                    ctx.drive_transport_masked(0, &[value], delay, lanes & mask);
                } else {
                    ctx.drive_bit_masked(0, value, delay, lanes & mask);
                }
            }
            if let Some(at) = self.next_step(now) {
                ctx.wake(at - now);
            }
        }

        fn lanes_equal_to(&mut self, _reference: usize, candidates: u64) -> u64 {
            candidates
        }
    }

    impl Component for WordScript {
        fn eval(&mut self, ctx: &mut EvalContext<'_>) {
            let now = ctx.now();
            for &(value, delay, transport, lanes) in self.drives_at(now) {
                if lanes >> GOLDEN_LANE & 1 == 0 {
                    continue;
                }
                let (value, delay) = (value.lane(GOLDEN_LANE), Time::from_ns(delay));
                if transport {
                    ctx.drive_transport_bit(0, value, delay);
                } else {
                    ctx.drive_bit(0, value, delay);
                }
            }
            if let Some(at) = self.next_step(now) {
                ctx.wake(at - now);
            }
        }

        fn word_component(&self) -> Option<Box<dyn WordComponent>> {
            Some(Box::new(self.clone()))
        }
    }

    fn scripted(script: WordScript) -> Simulator {
        let mut net = Netlist::new();
        let out = net.signal("out", 1);
        net.add("s", script, &[], &[out]);
        let mut sim = Simulator::new(net);
        sim.monitor(out);
        sim
    }

    /// The word machine taking over `sim`, and its unskipped twin: the
    /// same machine with one more write counted as queued for `out`, one
    /// that never comes due. The idle-drive rule never applies to a
    /// signal with a write queued, so the twin queues every drive. (A
    /// far-future transport drive of the script's own would not do: its
    /// later inertial drives cancel it on their lanes, and the twin's
    /// lanes would then differ from golden in what they have pending.)
    fn word_and_unskipped(sim: Simulator) -> (WordSimulator, WordSimulator) {
        let out = sim.signal_id("out").unwrap().0;
        let word = WordSimulator::from_scalar(sim.clone()).unwrap();
        let mut twin = WordSimulator::from_scalar(sim).unwrap();
        twin.queued[out] += 1;
        (word, twin)
    }

    /// Runs the word machine taking over `sim`, its unskipped twin and
    /// `sim` itself through `stops`; checks at each that the two machines
    /// hold the same planes, trace and lanes equal to golden, and that the
    /// golden trace is the scalar one; returns how many drives the machine
    /// dropped unqueued.
    fn word_dropped_against_unskipped(sim: Simulator, stops: &[Time]) -> u64 {
        let mut scalar = sim.clone();
        let (mut word, mut twin) = word_and_unskipped(sim);
        let mutants = !(1 << GOLDEN_LANE);
        for &t in stops {
            word.run_until(t).unwrap();
            twin.run_until(t).unwrap();
            scalar.run_until(t).unwrap();
            for (signal, other) in word.signals.iter().zip(&twin.signals) {
                assert_eq!(signal.planes, other.planes, "{} at {t}", signal.name);
            }
            assert_eq!(word.trace, twin.trace, "at {t}");
            assert_eq!(&word.trace, scalar.trace(), "at {t}");
            let (eq, twin_eq) = (word.lanes_eq_golden(mutants), twin.lanes_eq_golden(mutants));
            assert_eq!(eq, twin_eq, "lanes equal to golden at {t}");
        }
        twin.events_processed - word.events_processed
    }

    fn stops_to(ns: i64) -> Vec<Time> {
        (0..=ns).map(Time::from_ns).collect()
    }

    /// Whether the golden trace of `out` ever shows a 1, and whether any
    /// lane holds one now.
    fn shows_one(word: &WordSimulator) -> (bool, bool) {
        let wave = word.trace.digital("out").unwrap();
        let traced = wave.transitions().iter().any(|&(_, v)| v == Logic::One);
        let out = &word.signals[0].planes[0];
        (traced, out.is_high_mask() != 0)
    }

    /// `script` on a word machine run to 10 ns.
    fn run_word(script: WordScript) -> WordSimulator {
        let mut word = WordSimulator::from_scalar(scripted(script)).unwrap();
        word.run_until(Time::from_ns(10)).unwrap();
        word
    }

    const ALL: u64 = u64::MAX;
    const WORD_ZERO_NOW: WordDrive = (LogicPlanes::splat(Logic::Zero), 0, false, ALL);
    const WORD_ONE: LogicPlanes = LogicPlanes::splat(Logic::One);

    #[test]
    fn an_idle_word_re_drive_is_dropped() {
        // Power-on drives 0; at 2 ns every lane re-drives the 0 it holds.
        let script = WordScript(vec![(0, vec![WORD_ZERO_NOW]), (2, vec![WORD_ZERO_NOW])]);
        assert_eq!(
            word_dropped_against_unskipped(scripted(script), &stops_to(10)),
            1
        );
    }

    #[test]
    fn a_held_value_word_re_drive_still_cancels_a_delayed_transaction() {
        // 1 is due at 6 ns; the held 0 re-driven at 2 ns cancels it.
        let script = WordScript(vec![
            (0, vec![WORD_ZERO_NOW]),
            (1, vec![(WORD_ONE, 5, false, ALL)]),
            (2, vec![WORD_ZERO_NOW]),
        ]);
        let stops = stops_to(10);
        assert_eq!(
            word_dropped_against_unskipped(scripted(script.clone()), &stops),
            0
        );
        assert_eq!(shows_one(&run_word(script)), (false, false));
    }

    #[test]
    fn a_second_word_drive_on_an_output_in_one_eval_is_judged_on_its_own() {
        // At 1 ns: 1 after 5 ns, then the held 0 now, which is no longer
        // the eval's first drive on `out` and so cancels the 1.
        let script = WordScript(vec![
            (0, vec![WORD_ZERO_NOW]),
            (1, vec![(WORD_ONE, 5, false, ALL), WORD_ZERO_NOW]),
        ]);
        let stops = stops_to(10);
        assert_eq!(
            word_dropped_against_unskipped(scripted(script.clone()), &stops),
            0
        );
        assert_eq!(shows_one(&run_word(script)), (false, false));
        // The other way round the held 0 goes first and is dropped; the
        // 1 after it is queued and shows.
        let script = WordScript(vec![
            (0, vec![WORD_ZERO_NOW]),
            (1, vec![WORD_ZERO_NOW, (WORD_ONE, 5, false, ALL)]),
        ]);
        assert_eq!(
            word_dropped_against_unskipped(scripted(script.clone()), &stops),
            1
        );
        assert_eq!(shows_one(&run_word(script)), (true, true));
    }

    #[test]
    fn word_transport_and_delayed_drives_are_never_dropped() {
        let zero = LogicPlanes::splat(Logic::Zero);
        let script = WordScript(vec![
            (0, vec![WORD_ZERO_NOW]),
            (1, vec![(zero, 0, true, ALL)]),
            (2, vec![(zero, 1, false, ALL)]),
            (4, vec![(zero, 1, true, ALL)]),
        ]);
        let stops = stops_to(10);
        assert_eq!(word_dropped_against_unskipped(scripted(script), &stops), 0);
        // A transport drive counts as the eval's drive on its output too:
        // the held 0 re-driven after a transport 1 is queued and cancels it.
        let script = WordScript(vec![
            (0, vec![WORD_ZERO_NOW]),
            (2, vec![(WORD_ONE, 0, true, ALL), WORD_ZERO_NOW]),
        ]);
        assert_eq!(
            word_dropped_against_unskipped(scripted(script.clone()), &stops),
            0
        );
        assert_eq!(shows_one(&run_word(script)), (false, false));
    }

    #[test]
    fn a_word_drive_idle_on_some_of_its_lanes_only_is_queued() {
        // At 2 ns lane 0 is driven 1, every other lane the 0 it holds.
        let mixed = LogicPlanes::from_bool_mask(1);
        let script = |lanes| {
            WordScript(vec![
                (0, vec![WORD_ZERO_NOW]),
                (2, vec![(mixed, 0, false, lanes)]),
            ])
        };
        let stops = stops_to(10);
        assert_eq!(
            word_dropped_against_unskipped(scripted(script(ALL)), &stops),
            0
        );
        assert_eq!(run_word(script(ALL)).signals[0].planes[0], mixed);
        // Without lane 0 in its mask the drive is idle on all of them.
        assert_eq!(
            word_dropped_against_unskipped(scripted(script(!1)), &stops),
            1
        );
    }

    #[test]
    fn a_word_machine_handed_a_pending_drive_does_not_drop_the_re_drive_that_cancels_it() {
        // Handed over at 3 ns with the 1 of 1 ns pending for 6 ns: the held
        // 0 re-driven at 4 ns must still cancel it.
        let script = WordScript(vec![
            (0, vec![WORD_ZERO_NOW]),
            (1, vec![(WORD_ONE, 5, false, ALL)]),
            (4, vec![WORD_ZERO_NOW]),
        ]);
        let mut sim = scripted(script);
        sim.run_until(Time::from_ns(3)).unwrap();
        let stops = stops_to(10).split_off(4);
        assert_eq!(word_dropped_against_unskipped(sim.clone(), &stops), 0);
        let mut word = WordSimulator::from_scalar(sim).unwrap();
        word.run_until(Time::from_ns(10)).unwrap();
        assert_eq!(shows_one(&word), (false, false));
    }

    #[test]
    fn the_word_delta_limit_counts_the_delta_a_dropped_re_drive_would_take() {
        // Queued, the power-on re-drive of the 'U' that `out` holds would
        // be applied in a second delta: one delta is too few for the word
        // machine, its twin and the scalar kernel alike.
        let drive_u = LogicPlanes::splat(Logic::Uninitialized);
        for limit in [1, 2] {
            let mut sim = scripted(WordScript(vec![(0, vec![(drive_u, 0, false, ALL)])]));
            sim.set_delta_limit(limit);
            let (mut word, mut twin) = word_and_unskipped(sim.clone());
            let horizon = Time::from_ns(1);
            let got = word.run_until(horizon);
            assert_eq!(got, twin.run_until(horizon), "limit {limit}");
            assert_eq!(got, sim.run_until(horizon), "limit {limit}");
            assert_eq!(got.is_err(), limit == 1);
        }
    }

    /// A xorshift64 stream for the random scripts below.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A random script on one output: steps at 0–5 ns of one to three
    /// drives each, a drive's value held or not per lane, its delay 0 or
    /// 1 ns, inertial or transport, on all lanes, golden alone or a random
    /// set.
    fn random_script(next: &mut impl FnMut() -> u64) -> WordScript {
        let values = [Logic::Zero, Logic::One, Logic::Unknown];
        let mut steps = Vec::new();
        for at in 0..6 {
            if at > 0 && next().is_multiple_of(2) {
                continue;
            }
            let drives = (0..=next() % 3)
                .map(|_| {
                    let value = match next() % 4 {
                        3 => LogicPlanes::from_bool_mask(next()),
                        k => LogicPlanes::splat(values[k as usize]),
                    };
                    let lanes = match next() % 4 {
                        0 | 1 => ALL,
                        2 => 1 << GOLDEN_LANE,
                        _ => next(),
                    };
                    (value, (next() % 2) as i64, next().is_multiple_of(4), lanes)
                })
                .collect();
            steps.push((at, drives));
        }
        WordScript(steps)
    }

    #[test]
    fn idle_rule_word_machines_match_their_unskipped_twins() {
        // Random scripts, handed over at 0–3 ns: the machine that drops
        // idle re-drives and its twin that queues them hold the same planes,
        // trace and lanes equal to golden at every stop. AMSFI_FUZZ_SEEDS
        // sets how many (ci.sh widens it).
        let cases = std::env::var("AMSFI_FUZZ_SEEDS").map_or(48, |n| n.parse().expect("a count"));
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        let mut dropped = 0;
        for case in 0..cases {
            let script = random_script(&mut next);
            let handover = (next() % 4) as i64;
            let mut sim = scripted(script.clone());
            if handover > 0 {
                sim.run_until(Time::from_ns(handover)).unwrap();
            }
            let stops = stops_to(10).split_off(handover as usize);
            let run = std::panic::AssertUnwindSafe(|| word_dropped_against_unskipped(sim, &stops));
            let result = std::panic::catch_unwind(run);
            match result {
                Ok(n) => dropped += n,
                Err(_) => panic!("case {case}, handed over at {handover} ns: {script:?}"),
            }
        }
        assert!(dropped > 0, "no script had an idle re-drive to drop");
    }
}
