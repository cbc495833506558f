//! The event-driven simulation kernel.
//!
//! Implements the semantics a VHDL-based injection flow relies on: an event
//! wheel ordered by `(time, sequence)`, delta cycles at each time point,
//! inertial/transport delay, and value-change tracing of monitored signals.
//! Mid-run mutant operations ([`Simulator::flip_state`]) let the campaign
//! engine strike an SEU at an exact simulation instant and have the corrupted
//! state propagate on the next delta.

use crate::component::{Action, Arena, EvalContext};
use crate::netlist::{ComponentDecl, ComponentId, Netlist, SignalDecl, SignalId};
use crate::wheel::Wheel;
use amsfi_waves::{
    Checkpoint, CheckpointMismatch, DigitalSlot, Fnv1a, ForkableSim, GuardViolation, LogicVector,
    SimBudget, SimObserver, Time, Trace,
};
use std::fmt;
use std::sync::Arc;

/// Errors produced while simulating.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A time point did not converge within the delta-cycle limit —
    /// almost always a zero-delay combinational loop.
    DeltaOverflow {
        /// The simulation time that failed to converge.
        time: Time,
        /// The configured delta limit.
        limit: usize,
    },
    /// The installed [`SimBudget`] tripped (step budget, deadline,
    /// cancellation, a numerical guard) or [`SimObserver`] retired the run.
    Guard(GuardViolation),
    /// The word-parallel kernel cannot take this simulator over: it holds
    /// state that has no 64-lane form (see
    /// [`WordBatchSimulator::new`](crate::WordBatchSimulator::new)).
    Unseedable(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DeltaOverflow { time, limit } => write!(
                f,
                "delta cycles exceeded {limit} at {time}: probable zero-delay combinational loop"
            ),
            SimError::Guard(v) => write!(f, "{v}"),
            SimError::Unseedable(why) => write!(f, "cannot seed the word machine: {why}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Guard(v) => Some(v),
            SimError::DeltaOverflow { .. } | SimError::Unseedable(_) => None,
        }
    }
}

impl From<GuardViolation> for SimError {
    fn from(v: GuardViolation) -> Self {
        SimError::Guard(v)
    }
}

/// A pending event. A drive's value lives in the simulator's [`Arena`],
/// named by its slot.
#[derive(Debug, Clone, PartialEq)]
enum EventKind {
    Drive {
        component: usize,
        output: usize,
        value: u32,
        generation: u64,
    },
    Wake {
        component: usize,
    },
    /// A value forced from outside the netlist (e.g. by the mixed-mode
    /// kernel's digitizers). External drives bypass driver generations.
    External {
        signal: usize,
        value: u32,
    },
}

/// A pending event normalised for lock-step state comparison: valid inertial
/// drives lose their absolute generation number (only validity matters for
/// future behaviour — see [`Simulator::state_digest`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NormalEvent {
    Drive {
        component: usize,
        output: usize,
        value: LogicVector,
    },
    Wake {
        component: usize,
    },
    External {
        signal: usize,
        value: LogicVector,
    },
}

#[derive(Debug, Clone)]
struct SignalState {
    name: String,
    width: usize,
    readers: Vec<usize>,
    /// Trace slot of each bit, resolved when the signal was monitored;
    /// empty while it is not.
    slots: Vec<DigitalSlot>,
}

#[derive(Debug, Clone)]
struct ComponentSlot {
    /// Name and port lists never change: clones share them.
    name: Arc<str>,
    comp: Box<dyn crate::Component>,
    inputs: Arc<[SignalId]>,
    outputs: Arc<[SignalId]>,
    /// Per-output driver generation for inertial cancellation.
    out_generation: Vec<u64>,
}

/// Reusable hot-loop buffers, sized once with the simulator: keeping them
/// on it turns the per-delta cost into a handful of clears. Between time
/// points the bitsets are clear and the action list is empty, so a clone
/// — a checkpoint, a fork of one — copies two or three words.
#[derive(Debug, Clone)]
struct SimScratch {
    /// One bit per component: the eval set of the current delta cycle.
    eval: Vec<u64>,
    /// One bit per signal: signals that changed at the current time point.
    changed: Vec<u64>,
    /// Recycled action list handed to each [`EvalContext`].
    actions: Vec<Action>,
}

impl SimScratch {
    fn new(signals: usize, components: usize) -> Self {
        SimScratch {
            eval: vec![0; components.div_ceil(64)],
            changed: vec![0; signals.div_ceil(64)],
            actions: Vec::new(),
        }
    }
}

fn bitset_insert(words: &mut [u64], idx: usize) {
    words[idx / 64] |= 1 << (idx % 64);
}

/// Visits set bits in ascending index order.
fn bitset_drain(words: &mut [u64], mut visit: impl FnMut(usize)) {
    for (w, word) in words.iter_mut().enumerate() {
        let mut bits = *word;
        *word = 0;
        while bits != 0 {
            visit(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// A sink that checks what is written against an expected text instead of
/// storing it; the first mismatch aborts the formatting.
struct Expect<'a> {
    rest: &'a str,
}

impl fmt::Write for Expect<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.rest = self.rest.strip_prefix(s).ok_or(fmt::Error)?;
        Ok(())
    }
}

/// True when `value`'s `Debug` rendering is exactly `expected` — the seal
/// comparison's `format!("{a:?}") == format!("{b:?}")` with one side
/// rendered beforehand and the other never materialised.
pub(crate) fn debug_renders_as(value: &dyn fmt::Debug, expected: &str) -> bool {
    use fmt::Write as _;
    let mut sink = Expect { rest: expected };
    write!(sink, "{value:?}").is_ok() && sink.rest.is_empty()
}

/// One signal of a simulator torn down into [`WordSeed`] form.
pub(crate) struct WordSeedSignal {
    pub(crate) name: String,
    pub(crate) width: usize,
    pub(crate) value: LogicVector,
    pub(crate) readers: Vec<usize>,
    pub(crate) slots: Vec<DigitalSlot>,
}

/// One component of a simulator torn down into [`WordSeed`] form.
pub(crate) struct WordSeedComponent {
    pub(crate) name: String,
    pub(crate) comp: Box<dyn crate::Component>,
    pub(crate) inputs: Vec<SignalId>,
    pub(crate) outputs: Vec<SignalId>,
}

/// The raw pieces of a [`Simulator`] settled at `now`, handed to the
/// word-parallel kernel so it can build its plane-valued store without
/// reaching into the scalar simulator's private fields.
pub(crate) struct WordSeed {
    pub(crate) now: Time,
    pub(crate) delta_limit: usize,
    pub(crate) budget: SimBudget,
    /// The trace recorded up to `now`, which the signals' slots index into.
    pub(crate) trace: Trace,
    pub(crate) signals: Vec<WordSeedSignal>,
    pub(crate) components: Vec<WordSeedComponent>,
    /// The still-valid pending events in firing order — `(time, seq)`,
    /// which is also the order inertial cancellation depends on.
    pub(crate) pending: Vec<(Time, NormalEvent)>,
}

/// An event-driven simulator executing one [`Netlist`].
///
/// # Examples
///
/// ```
/// use amsfi_digital::{cells, Netlist, Simulator};
/// use amsfi_waves::{Logic, Time};
///
/// let mut net = Netlist::new();
/// let clk = net.signal("clk", 1);
/// net.add("clkgen", cells::ClockGen::new(Time::from_ns(20)), &[], &[clk]);
/// let mut sim = Simulator::new(net);
/// sim.monitor_name("clk");
/// sim.run_until(Time::from_ns(100))?;
/// let wave = sim.trace().digital("clk").expect("monitored");
/// assert_eq!(wave.rising_edges().len(), 5);
/// # Ok::<(), amsfi_digital::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    /// Shared by clones: fixed once monitoring is attached, and a lane, a
    /// checkpoint or a fork is taken long after.
    signals: Arc<Vec<SignalState>>,
    /// The current value of each signal: the store evaluations read their
    /// inputs from, kept apart from `signals` so it can be lent as a slice.
    values: Vec<LogicVector>,
    components: Vec<ComponentSlot>,
    /// Pending events and the simulation clock.
    wheel: Wheel<EventKind>,
    /// The values of the pending drive and external events.
    arena: Arena,
    /// Per signal, the drive and external events for it in the wheel,
    /// cancelled drives included: an eval drops an idle zero-delay
    /// re-drive only onto a signal with none (see [`EvalContext`]).
    queued: Vec<u32>,
    trace: Trace,
    delta_limit: usize,
    events_processed: u64,
    netlist_names: Arc<std::collections::HashMap<String, SignalId>>,
    budget: SimBudget,
    observer: SimObserver,
    scratch: SimScratch,
    /// Components written from outside the netlist since construction:
    /// the fault sites [`Simulator::outside_writes_reach`] starts from.
    /// Empty on every simulator nothing was injected into, so a clone of
    /// one allocates nothing for it.
    touched_components: Vec<usize>,
    /// Signals forced from outside through [`Simulator::inject_value`].
    touched_signals: Vec<usize>,
}

/// Adds `idx` to a (tiny, duplicate-free) list of fault sites.
fn note(sites: &mut Vec<usize>, idx: usize) {
    if !sites.contains(&idx) {
        sites.push(idx);
    }
}

impl Simulator {
    /// Builds a simulator for `netlist`. Every component is scheduled for a
    /// power-on evaluation at time zero.
    pub fn new(netlist: Netlist) -> Self {
        let mut names = std::collections::HashMap::new();
        let values: Vec<LogicVector> = netlist
            .signals
            .iter()
            .map(|decl| LogicVector::new(decl.width))
            .collect();
        let signals = netlist
            .signals
            .iter()
            .enumerate()
            .map(|(i, decl)| {
                let SignalDecl {
                    name,
                    width,
                    readers,
                    ..
                } = decl;
                names.insert(name.clone(), SignalId(i));
                SignalState {
                    name: name.clone(),
                    width: *width,
                    readers: readers.iter().map(|r| r.0).collect(),
                    slots: Vec::new(),
                }
            })
            .collect();
        let scratch = SimScratch::new(netlist.signals.len(), netlist.components.len());
        let components: Vec<ComponentSlot> = netlist
            .components
            .into_iter()
            .map(|decl| {
                let ComponentDecl {
                    name,
                    comp,
                    inputs,
                    outputs,
                } = decl;
                let out_generation = vec![0; outputs.len()];
                ComponentSlot {
                    name: name.into(),
                    comp,
                    inputs: inputs.into(),
                    outputs: outputs.into(),
                    out_generation,
                }
            })
            .collect();
        let mut sim = Simulator {
            queued: vec![0; values.len()],
            signals: Arc::new(signals),
            values,
            components,
            wheel: Wheel::new(Time::ZERO),
            arena: Arena::default(),
            trace: Trace::new(),
            delta_limit: 10_000,
            events_processed: 0,
            netlist_names: Arc::new(names),
            budget: SimBudget::unlimited(),
            observer: SimObserver::default(),
            scratch,
            touched_components: Vec::new(),
            touched_signals: Vec::new(),
        };
        for c in 0..sim.components.len() {
            sim.wheel.push(Time::ZERO, EventKind::Wake { component: c });
        }
        sim
    }

    /// Sets the delta-cycle limit per time point (default 10 000).
    pub fn set_delta_limit(&mut self, limit: usize) {
        self.delta_limit = limit.max(1);
    }

    /// Installs a [`SimBudget`]. Every simulated time point counts as one
    /// budget step; the cancellation token and deadline are probed at the
    /// same cadence. The default budget is unlimited.
    pub fn set_budget(&mut self, budget: SimBudget) {
        self.budget = budget;
    }

    /// The installed budget.
    pub fn budget(&self) -> &SimBudget {
        &self.budget
    }

    /// Marks a signal for tracing. Must be called before the first
    /// [`Simulator::run_until`] to capture the waveform from time zero.
    /// Scalars are recorded under the signal name; each bit of a bus is
    /// recorded as `"name[i]"`.
    pub fn monitor(&mut self, signal: SignalId) {
        let state = &mut Arc::make_mut(&mut self.signals)[signal.0];
        if !state.slots.is_empty() {
            return;
        }
        state.slots = if state.width == 1 {
            vec![self.trace.digital_slot(&state.name)]
        } else {
            (0..state.width)
                .map(|bit| self.trace.digital_slot(&format!("{}[{bit}]", state.name)))
                .collect()
        };
    }

    /// Like [`Simulator::monitor`], resolving the signal by name.
    ///
    /// # Panics
    ///
    /// Panics if no signal has that name.
    pub fn monitor_name(&mut self, name: &str) {
        let id = self
            .signal_id(name)
            .unwrap_or_else(|| panic!("no signal named {name:?}"));
        self.monitor(id);
    }

    /// Looks up a signal by name.
    pub fn signal_id(&self, name: &str) -> Option<SignalId> {
        self.netlist_names.get(name).copied()
    }

    /// The name of a signal.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn signal_name(&self, signal: SignalId) -> &str {
        &self.signals[signal.0].name
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.wheel.now()
    }

    /// The current value of a signal.
    pub fn value(&self, signal: SignalId) -> &LogicVector {
        &self.values[signal.0]
    }

    /// The trace of monitored signals recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the simulator and returns its trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Events taken off the wheel so far, cancelled inertial drives
    /// included (a throughput statistic). An idle zero-delay re-drive
    /// dropped before it was queued (see [`EvalContext`]) is not one.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Inverts one memorised bit of `component` (an SEU) and schedules a
    /// re-evaluation so the corrupted state propagates immediately.
    pub fn flip_state(&mut self, component: ComponentId, bit: usize) {
        self.components[component.0].comp.flip_state_bit(bit);
        self.wake_component(component, self.now());
    }

    /// Forces the encoded state of `component` (an erroneous FSM transition)
    /// and schedules a re-evaluation.
    pub fn force_state(&mut self, component: ComponentId, value: u64) {
        self.components[component.0].comp.force_state(value);
        self.wake_component(component, self.now());
    }

    /// Forces `signal` to `value` at time `at` (which must not precede the
    /// current time). This is the entry point for values crossing the
    /// analog-to-digital boundary: the mixed-mode kernel's digitizers call it
    /// with the interpolated threshold-crossing instant.
    ///
    /// The target signal should have no component driver; an external drive
    /// on a driven signal is overwritten by the driver's next transaction.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`Simulator::now`].
    pub fn inject_value(&mut self, signal: SignalId, value: LogicVector, at: Time) {
        note(&mut self.touched_signals, signal.0);
        self.inject_boundary(signal, value, at);
    }

    /// [`Simulator::inject_value`] for a co-simulation kernel's own traffic
    /// across its analog-to-digital boundary: the value is part of the
    /// circuit's fault-free behaviour, so it is not noted as an outside
    /// write (see [`Simulator::outside_writes_reach`]).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`Simulator::now`].
    pub fn inject_boundary(&mut self, signal: SignalId, value: LogicVector, at: Time) {
        assert!(
            at >= self.now(),
            "cannot inject at {at}: simulator already at {}",
            self.now()
        );
        let value = self.arena.put(value);
        self.queued[signal.0] += 1;
        self.wheel.push(
            at,
            EventKind::External {
                signal: signal.0,
                value,
            },
        );
    }

    /// The time of the earliest pending event, if any. The mixed-mode kernel
    /// uses this to clamp analog integration steps so that digital activity
    /// lands exactly on analog step boundaries.
    pub fn next_event_time(&self) -> Option<Time> {
        self.wheel.next_time()
    }

    /// The encoded state of `component`, if it exposes one.
    pub fn state_value(&self, component: ComponentId) -> Option<u64> {
        self.components[component.0].comp.state_value()
    }

    /// Enumerates every SEU-targetable memorised bit, like
    /// [`Netlist::mutant_targets`] but after the netlist has been lowered
    /// into the simulator.
    ///
    /// [`Netlist::mutant_targets`]: crate::Netlist::mutant_targets
    pub fn mutant_targets(&self) -> Vec<crate::MutantTarget> {
        let mut out = Vec::new();
        for (idx, slot) in self.components.iter().enumerate() {
            for bit in 0..slot.comp.state_bits() {
                out.push(crate::MutantTarget {
                    component: ComponentId(idx),
                    component_name: slot.name.to_string(),
                    bit,
                    label: slot.comp.state_label(bit),
                });
            }
        }
        out
    }

    /// Mutable access to a component instance, for configuring saboteurs
    /// after the netlist has been lowered into the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn component_mut(&mut self, component: ComponentId) -> &mut dyn crate::Component {
        note(&mut self.touched_components, component.0);
        &mut *self.components[component.0].comp
    }

    /// Looks up a component instance by name.
    pub fn component_id(&self, name: &str) -> Option<ComponentId> {
        self.components
            .iter()
            .position(|slot| &*slot.name == name)
            .map(ComponentId)
    }

    /// Schedules a re-evaluation of `component` at absolute time `at`
    /// (clamped to the present), as if the component had requested the
    /// wake itself. Pairs with
    /// [`DigitalSaboteur::arm`](crate::DigitalSaboteur::arm) to inject a
    /// wire fault into an already-running simulator.
    pub fn wake_component(&mut self, component: ComponentId, at: Time) {
        note(&mut self.touched_components, component.0);
        let at = at.max(self.now());
        self.wheel.push(
            at,
            EventKind::Wake {
                component: component.0,
            },
        );
    }

    /// Whether anything written into this simulator from outside its
    /// netlist since it was built — [`flip_state`](Simulator::flip_state),
    /// [`force_state`](Simulator::force_state), a component handed out by
    /// [`component_mut`](Simulator::component_mut), a
    /// [`wake_component`](Simulator::wake_component) or an
    /// [`inject_value`](Simulator::inject_value) — can propagate to one of
    /// `signals`: structural fan-out over each component's outputs and each
    /// signal's readers, whatever the cells compute. `false` is a proof
    /// that those signals carry their fault-free values for good, given
    /// fault-free values on every signal driven from outside by
    /// [`inject_boundary`](Simulator::inject_boundary).
    pub fn outside_writes_reach(&self, signals: &[SignalId]) -> bool {
        if self.touched_components.is_empty() && self.touched_signals.is_empty() {
            return false;
        }
        if (self.touched_signals.iter()).any(|&s| signals.contains(&SignalId(s))) {
            return true;
        }
        let mut reached = vec![false; self.components.len()];
        let mut frontier: Vec<usize> = Vec::new();
        let mut visit = |c: usize, frontier: &mut Vec<usize>| {
            if !std::mem::replace(&mut reached[c], true) {
                frontier.push(c);
            }
        };
        for &c in &self.touched_components {
            visit(c, &mut frontier);
        }
        for &s in &self.touched_signals {
            for &r in &self.signals[s].readers {
                visit(r, &mut frontier);
            }
        }
        while let Some(c) = frontier.pop() {
            for out in self.components[c].outputs.iter() {
                if signals.contains(out) {
                    return true;
                }
                for &r in &self.signals[out.0].readers {
                    visit(r, &mut frontier);
                }
            }
        }
        false
    }

    /// A hash of the simulator's structure — signal names and widths,
    /// component names and port arities — but none of its mutable run
    /// state. Two simulators lowered from the same netlist agree; a
    /// [`Checkpoint`] refuses to restore across differing fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str("amsfi-digital");
        h.eat();
        h.write_u64(self.signals.len() as u64);
        h.eat();
        for s in self.signals.iter() {
            h.write_str(&s.name);
            h.eat();
            h.write_u64(s.width as u64);
            h.eat();
        }
        h.write_u64(self.components.len() as u64);
        h.eat();
        for c in &self.components {
            h.write_str(&c.name);
            h.eat();
            h.write_u64(c.inputs.len() as u64);
            h.write_u64(c.outputs.len() as u64);
            h.eat();
        }
        h.finish()
    }

    /// The pending events of both wheel levels normalised to
    /// future-relevant form: stale
    /// inertial drives (whose generation no longer matches the output's
    /// counter) are dropped, events are ordered by `(time, seq)`, and
    /// surviving drives keep only their target/value (the absolute
    /// generation number never matters once a drive is known valid).
    fn pending_events(&self) -> Vec<(Time, u64, NormalEvent)> {
        let mut out: Vec<(Time, u64, NormalEvent)> = self
            .wheel
            .iter()
            .filter_map(|(time, seq, kind)| {
                let kind = match kind {
                    EventKind::Drive {
                        component,
                        output,
                        value,
                        generation,
                    } => {
                        if self.components[*component].out_generation[*output] != *generation {
                            return None; // already cancelled; will be skipped when popped
                        }
                        NormalEvent::Drive {
                            component: *component,
                            output: *output,
                            value: self.arena[*value].clone(),
                        }
                    }
                    EventKind::Wake { component } => NormalEvent::Wake {
                        component: *component,
                    },
                    EventKind::External { signal, value } => NormalEvent::External {
                        signal: *signal,
                        value: self.arena[*value].clone(),
                    },
                };
                Some((time, seq, kind))
            })
            .collect();
        out.sort_by_key(|(t, seq, _)| (*t, *seq));
        out
    }

    /// A digest of all future-relevant run state: current time, signal
    /// values, component state (via `Debug`) and the normalised pending
    /// event queue. Two simulators equal in all of these produce identical
    /// behaviour from here on (given equally non-constraining budgets):
    /// the batch kernel's reconvergence-seal criterion, which it decides
    /// lane-wise on planes and which tests check against this digest.
    ///
    /// Trace history, throughput counters, budgets and observers are
    /// deliberately excluded: they do not influence future transitions.
    pub fn state_digest(&self) -> u64 {
        use std::fmt::Write as _;
        let mut h = Fnv1a::new();
        h.write_u64(self.now().as_fs() as u64);
        h.eat();
        let mut buf = String::new();
        for value in &self.values {
            buf.clear();
            for bit in value.iter() {
                buf.push(bit.to_char());
            }
            h.write_str(&buf);
            h.eat();
        }
        for c in &self.components {
            buf.clear();
            let _ = write!(buf, "{:?}", c.comp);
            h.write_str(&buf);
            h.eat();
        }
        for (t, _, kind) in self.pending_events() {
            h.write_u64(t.as_fs() as u64);
            buf.clear();
            let _ = write!(buf, "{kind:?}");
            h.write_str(&buf);
            h.eat();
        }
        h.finish()
    }

    /// Snapshots the complete simulator — pending event queue, component
    /// state, signal values and the trace recorded so far — for
    /// golden-prefix forking.
    pub fn checkpoint(&self) -> Checkpoint<Simulator> {
        Checkpoint::capture(self)
    }

    /// Replaces this simulator's state with `checkpoint`'s, validating the
    /// structural fingerprint first.
    ///
    /// # Errors
    ///
    /// [`CheckpointMismatch`] when the checkpoint was captured from a
    /// structurally different netlist.
    pub fn restore(
        &mut self,
        checkpoint: &Checkpoint<Simulator>,
    ) -> Result<(), CheckpointMismatch> {
        *self = checkpoint.restore_into(self)?;
        Ok(())
    }

    /// Tears the simulator down into the pieces the word-parallel kernel
    /// is built from (crate-internal; see [`crate::WordBatchSimulator`]),
    /// unless an observer is installed: no word machine shows one the trace.
    pub(crate) fn into_word_seed(self) -> Result<WordSeed, SimError> {
        if self.observer.is_watching() {
            let why = "an observer is installed, which the word machine would not show";
            return Err(SimError::Unseedable(why.to_owned()));
        }
        let pending = self
            .pending_events()
            .into_iter()
            .map(|(time, _, kind)| (time, kind))
            .collect();
        Ok(WordSeed {
            now: self.wheel.now(),
            delta_limit: self.delta_limit,
            budget: self.budget,
            trace: self.trace,
            signals: Arc::unwrap_or_clone(self.signals)
                .into_iter()
                .zip(self.values)
                .map(|(s, value)| WordSeedSignal {
                    name: s.name,
                    width: s.width,
                    value,
                    readers: s.readers,
                    slots: s.slots,
                })
                .collect(),
            components: self
                .components
                .into_iter()
                .map(|c| WordSeedComponent {
                    name: c.name.to_string(),
                    comp: c.comp,
                    inputs: c.inputs.to_vec(),
                    outputs: c.outputs.to_vec(),
                })
                .collect(),
            pending,
        })
    }

    /// Runs until simulation time `t_end`, processing every event scheduled
    /// at or before it. Idempotent if no events remain.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DeltaOverflow`] if a time point does not converge
    /// (zero-delay combinational loop), or [`SimError::Guard`] if the
    /// installed [`SimBudget`] trips or [`SimObserver`] retires the run.
    pub fn run_until(&mut self, t_end: Time) -> Result<(), SimError> {
        let before = self.events_processed;
        let result = self.drain_until(t_end);
        // The mixed kernel calls once per sync step, mostly to find nothing
        // due: no shared-counter traffic for those.
        let processed = self.events_processed - before;
        if processed != 0 {
            if let Some(metrics) = self.budget.metrics() {
                metrics.digital_events.add(processed);
            }
        }
        result
    }

    fn drain_until(&mut self, t_end: Time) -> Result<(), SimError> {
        while let Some(t) = self.wheel.next_time() {
            if t > t_end {
                break;
            }
            self.budget.note_step(t)?;
            self.advance_time_point(t)?;
            self.observer.poll(t, &[&self.trace])?;
        }
        if t_end > self.now() {
            self.wheel.advance(t_end);
        }
        self.observer.flush(self.wheel.now(), &[&self.trace])?;
        Ok(())
    }

    /// Applies the value in arena slot `value` to signal `sig`, marking it
    /// and its readers when the signal changes (the slot then keeps the
    /// displaced old value's storage), and frees the slot.
    fn apply_value(&mut self, sig: usize, value: u32) {
        let current = &mut self.values[sig];
        let new = &mut self.arena[value];
        if *current != *new {
            std::mem::swap(current, new);
            bitset_insert(&mut self.scratch.changed, sig);
            for &r in &self.signals[sig].readers {
                bitset_insert(&mut self.scratch.eval, r);
            }
        }
        self.arena.free(value);
    }

    /// Processes every event and delta cycle at time `t`.
    fn advance_time_point(&mut self, t: Time) -> Result<(), SimError> {
        self.wheel.advance(t);
        // Clear after a time point an error cut short.
        self.scratch.changed.fill(0);
        let mut delta = 0usize;
        loop {
            // Apply the current batch of events at time t.
            let mut any_event = false;
            while let Some((_, kind)) = self.wheel.pop_current() {
                any_event = true;
                self.events_processed += 1;
                match kind {
                    EventKind::Drive {
                        component,
                        output,
                        value,
                        generation,
                    } => {
                        let slot = &self.components[component];
                        let sig = slot.outputs[output].0;
                        self.queued[sig] -= 1;
                        if slot.out_generation[output] != generation {
                            // Cancelled by a later inertial drive.
                            self.arena.free(value);
                            continue;
                        }
                        debug_assert_eq!(
                            self.signals[sig].width,
                            self.arena[value].width(),
                            "component {:?} drove width {} onto signal {:?} of width {}",
                            slot.name,
                            self.arena[value].width(),
                            self.signals[sig].name,
                            self.signals[sig].width
                        );
                        self.apply_value(sig, value);
                    }
                    EventKind::Wake { component } => {
                        bitset_insert(&mut self.scratch.eval, component);
                    }
                    EventKind::External { signal, value } => {
                        self.queued[signal] -= 1;
                        self.apply_value(signal, value);
                    }
                }
            }
            if !any_event && self.scratch.eval.iter().all(|w| *w == 0) {
                break;
            }
            // Evaluate sensitive components in deterministic id order. The
            // eval bitset is detached while draining so the loop body can
            // borrow the simulator mutably; draining zeroes it for reuse.
            let mut eval_words = std::mem::take(&mut self.scratch.eval);
            let mut dropped = false;
            bitset_drain(&mut eval_words, |c| dropped |= self.eval_component(c, t));
            self.scratch.eval = eval_words;
            delta += 1;
            // A dropped idle re-drive, had it been queued, would have
            // been applied in one more delta of its own when nothing else
            // is due: the delta limit counts that delta too.
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
        // Record monitored signals that settled to a new value at t.
        let mut changed_words = std::mem::take(&mut self.scratch.changed);
        bitset_drain(&mut changed_words, |sig| {
            let value = &self.values[sig];
            for (bit, &slot) in self.signals[sig].slots.iter().enumerate() {
                self.trace
                    .push_digital(slot, t, value[bit])
                    .expect("time is monotonic");
            }
        });
        self.scratch.changed = changed_words;
        Ok(())
    }

    /// Evaluates component `c` at time `t`, its inputs lent from the signal
    /// store, and schedules its actions; returns whether the eval dropped
    /// an idle re-drive.
    fn eval_component(&mut self, c: usize, t: Time) -> bool {
        let slot = &mut self.components[c];
        let mut ctx = EvalContext::new(
            t,
            &self.values,
            &slot.inputs,
            std::mem::take(&mut self.scratch.actions),
            &mut self.arena,
        )
        .with_outputs(&slot.outputs, &self.queued);
        slot.comp.eval(&mut ctx);
        let dropped = ctx.rule.dropped;
        let mut actions = ctx.actions;
        for action in actions.drain(..) {
            match action {
                Action::Drive {
                    transport,
                    output,
                    value,
                    delay,
                } => {
                    if !transport {
                        slot.out_generation[output] += 1;
                    }
                    self.queued[slot.outputs[output].0] += 1;
                    self.wheel.push(
                        t + delay,
                        EventKind::Drive {
                            component: c,
                            output,
                            value,
                            generation: slot.out_generation[output],
                        },
                    );
                }
                Action::Wake { delay } => {
                    self.wheel.push(t + delay, EventKind::Wake { component: c });
                }
            }
        }
        self.scratch.actions = actions;
        dropped
    }
}

impl ForkableSim for Simulator {
    type Error = SimError;

    fn advance_to(&mut self, t: Time) -> Result<(), SimError> {
        self.run_until(t)
    }

    fn current_time(&self) -> Time {
        self.now()
    }

    fn snapshot_trace(&self) -> Trace {
        self.trace.clone()
    }

    fn structural_fingerprint(&self) -> u64 {
        self.fingerprint()
    }

    fn install_budget(&mut self, budget: SimBudget) {
        self.set_budget(budget);
    }

    /// Installs a [`SimObserver`] polled (at its stride) after each fully
    /// drained time point, with that instant as the finality watermark:
    /// every trace record strictly below it is frozen; a hook that returns
    /// `true` retires the run there. Replaces any previous observer.
    fn install_observer(&mut self, observer: SimObserver) {
        self.observer = observer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Component;
    use amsfi_waves::Logic;

    /// Inverter with a configurable delay.
    #[derive(Debug, Clone)]
    struct Inv(Time);

    impl Component for Inv {
        fn eval(&mut self, ctx: &mut EvalContext<'_>) {
            let v = !ctx.input_bit(0);
            ctx.drive_bit(0, v, self.0);
        }
    }

    /// Drives a constant after an initial delay.
    #[derive(Debug, Clone)]
    struct Step {
        at: Time,
        value: Logic,
        fired: bool,
    }

    impl Component for Step {
        fn eval(&mut self, ctx: &mut EvalContext<'_>) {
            if !self.fired {
                self.fired = true;
                ctx.drive_bit(0, !self.value, Time::ZERO);
                ctx.drive_transport_bit(0, self.value, self.at);
            }
        }
    }

    fn step(at: Time, value: Logic) -> Step {
        Step {
            at,
            value,
            fired: false,
        }
    }

    #[test]
    fn inverter_chain_propagates_with_delay() {
        let mut net = Netlist::new();
        let a = net.signal("a", 1);
        let b = net.signal("b", 1);
        let c = net.signal("c", 1);
        net.add("src", step(Time::from_ns(10), Logic::One), &[], &[a]);
        net.add("inv1", Inv(Time::from_ns(1)), &[a], &[b]);
        net.add("inv2", Inv(Time::from_ns(1)), &[b], &[c]);
        let mut sim = Simulator::new(net);
        sim.monitor_name("c");
        sim.run_until(Time::from_us(1)).unwrap();
        let wave = sim.trace().digital("c").unwrap();
        // a: 0 at t0, 1 at 10ns -> b: 1 at 1ns, 0 at 11ns -> c: 0 at 2ns, 1 at 12ns.
        assert_eq!(wave.value_at(Time::from_ns(5)), Logic::Zero);
        assert_eq!(wave.value_at(Time::from_ns(12)), Logic::One);
        assert_eq!(sim.value(sim.signal_id("c").unwrap())[0], Logic::One);
    }

    #[test]
    fn zero_delay_loop_reports_delta_overflow() {
        // A zero-delay inverter that maps 'U' to '1' so the loop escapes the
        // stable uninitialised fixed point and oscillates within one instant.
        #[derive(Debug, Clone)]
        struct HotInv;
        impl Component for HotInv {
            fn eval(&mut self, ctx: &mut EvalContext<'_>) {
                let out = match ctx.input_bit(0) {
                    Logic::One => Logic::Zero,
                    _ => Logic::One,
                };
                ctx.drive_bit(0, out, Time::ZERO);
            }
        }
        let mut net = Netlist::new();
        let a = net.signal("a", 1);
        let b = net.signal("b", 1);
        net.add("i1", HotInv, &[a], &[b]);
        net.add("i2", HotInv, &[b], &[a]);
        let mut sim = Simulator::new(net);
        sim.set_delta_limit(100);
        let err = sim.run_until(Time::from_ns(1)).unwrap_err();
        assert!(matches!(err, SimError::DeltaOverflow { .. }));
        assert!(err.to_string().contains("combinational loop"));
    }

    #[test]
    fn inertial_drive_cancels_pending() {
        // A component that schedules 1 after 5 ns, then (in the same eval)
        // re-drives 0 after 2 ns: the 5 ns transaction must be cancelled.
        #[derive(Debug, Clone)]
        struct Glitcher {
            fired: bool,
        }
        impl Component for Glitcher {
            fn eval(&mut self, ctx: &mut EvalContext<'_>) {
                if !self.fired {
                    self.fired = true;
                    ctx.drive_bit(0, Logic::One, Time::from_ns(5));
                    ctx.drive_bit(0, Logic::Zero, Time::from_ns(2));
                }
            }
        }
        let mut net = Netlist::new();
        let out = net.signal("out", 1);
        net.add("g", Glitcher { fired: false }, &[], &[out]);
        let mut sim = Simulator::new(net);
        sim.monitor(out);
        sim.run_until(Time::from_ns(10)).unwrap();
        let wave = sim.trace().digital("out").unwrap();
        assert_eq!(wave.value_at(Time::from_ns(6)), Logic::Zero);
        // The cancelled 1-transaction never appears.
        assert!(wave.transitions().iter().all(|&(_, v)| v != Logic::One));
    }

    #[test]
    fn transport_drives_coexist() {
        #[derive(Debug, Clone)]
        struct Burst {
            fired: bool,
        }
        impl Component for Burst {
            fn eval(&mut self, ctx: &mut EvalContext<'_>) {
                if !self.fired {
                    self.fired = true;
                    ctx.drive_transport_bit(0, Logic::Zero, Time::ZERO);
                    ctx.drive_transport_bit(0, Logic::One, Time::from_ns(2));
                    ctx.drive_transport_bit(0, Logic::Zero, Time::from_ns(4));
                }
            }
        }
        let mut net = Netlist::new();
        let out = net.signal("out", 1);
        net.add("b", Burst { fired: false }, &[], &[out]);
        let mut sim = Simulator::new(net);
        sim.monitor(out);
        sim.run_until(Time::from_ns(10)).unwrap();
        let wave = sim.trace().digital("out").unwrap();
        assert_eq!(wave.value_at(Time::from_ns(1)), Logic::Zero);
        assert_eq!(wave.value_at(Time::from_ns(3)), Logic::One);
        assert_eq!(wave.value_at(Time::from_ns(5)), Logic::Zero);
    }

    #[test]
    fn run_until_is_resumable_and_monotonic() {
        let mut net = Netlist::new();
        let a = net.signal("a", 1);
        net.add("src", step(Time::from_ns(10), Logic::One), &[], &[a]);
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_ns(5)).unwrap();
        assert_eq!(sim.now(), Time::from_ns(5));
        let a_id = sim.signal_id("a").unwrap();
        assert_eq!(sim.value(a_id)[0], Logic::Zero);
        sim.run_until(Time::from_ns(20)).unwrap();
        assert_eq!(sim.value(a_id)[0], Logic::One);
        assert_eq!(sim.now(), Time::from_ns(20));
        // Running backwards is a no-op, not a panic.
        sim.run_until(Time::from_ns(1)).unwrap();
        assert_eq!(sim.now(), Time::from_ns(20));
    }

    #[test]
    fn events_processed_counts() {
        let mut net = Netlist::new();
        let a = net.signal("a", 1);
        net.add("src", step(Time::from_ns(10), Logic::One), &[], &[a]);
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_ns(20)).unwrap();
        assert!(sim.events_processed() >= 2);
    }

    #[test]
    fn external_injection_drives_undriven_signal() {
        let mut net = Netlist::new();
        let ext = net.signal("ext", 1);
        let out = net.signal("out", 1);
        net.add("inv", Inv(Time::from_ns(1)), &[ext], &[out]);
        let mut sim = Simulator::new(net);
        sim.monitor(out);
        sim.inject_value(
            ext,
            amsfi_waves::LogicVector::filled(Logic::One, 1),
            Time::from_ns(10),
        );
        sim.run_until(Time::from_ns(20)).unwrap();
        let w = sim.trace().digital("out").unwrap();
        assert_eq!(w.value_at(Time::from_ns(12)), Logic::Zero);
        assert_eq!(sim.value(ext)[0], Logic::One);
    }

    #[test]
    fn next_event_time_peeks_queue() {
        let mut net = Netlist::new();
        let a = net.signal("a", 1);
        net.add("src", step(Time::from_ns(10), Logic::One), &[], &[a]);
        let mut sim = Simulator::new(net);
        // Power-on wakes are queued at time zero.
        assert_eq!(sim.next_event_time(), Some(Time::ZERO));
        sim.run_until(Time::from_ns(5)).unwrap();
        assert_eq!(sim.next_event_time(), Some(Time::from_ns(10)));
        sim.run_until(Time::from_ns(20)).unwrap();
        assert_eq!(sim.next_event_time(), None);
    }

    fn clocked_counter() -> Simulator {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let en = net.signal("en", 1);
        let q = net.signal("q", 8);
        net.add(
            "ck",
            crate::cells::ClockGen::new(Time::from_ns(20)),
            &[],
            &[clk],
        );
        net.add(
            "r",
            crate::cells::ConstVector::bit(Logic::Zero),
            &[],
            &[rst],
        );
        net.add("e", crate::cells::ConstVector::bit(Logic::One), &[], &[en]);
        net.add(
            "ctr",
            crate::cells::Counter::new(8, Time::ZERO),
            &[clk, rst, en],
            &[q],
        );
        let mut sim = Simulator::new(net);
        sim.monitor_name("q");
        sim
    }

    #[test]
    fn checkpoint_fork_equals_from_scratch_run() {
        // Scratch run, paused at the same instant the checkpoint is taken
        // (the stop sequence is part of the equivalence contract).
        let mut scratch = clocked_counter();
        scratch.run_until(Time::from_ns(205)).unwrap();
        scratch.run_until(Time::from_us(1)).unwrap();

        let mut golden = clocked_counter();
        golden.run_until(Time::from_ns(205)).unwrap();
        let cp = golden.checkpoint();
        assert_eq!(cp.at(), Time::from_ns(205));
        golden.run_until(Time::from_us(1)).unwrap();

        let mut fork = cp.fork();
        assert_eq!(fork.now(), Time::from_ns(205));
        fork.run_until(Time::from_us(1)).unwrap();
        assert_eq!(fork.trace(), scratch.trace());
        assert_eq!(fork.trace(), golden.trace());
        let q = fork.signal_id("q").unwrap();
        assert_eq!(fork.value(q), scratch.value(q));
    }

    /// Simulators stopped at 205 ns with a delta event pending in the
    /// wheel's FIFO: an SEU wake, an external drive at the current instant.
    fn with_fifo_pending() -> Vec<Simulator> {
        let mut flipped = clocked_counter();
        flipped.run_until(Time::from_ns(205)).unwrap();
        let ctr = flipped.component_id("ctr").unwrap();
        flipped.flip_state(ctr, 6);

        let mut injected = clocked_counter();
        injected.run_until(Time::from_ns(205)).unwrap();
        let en = injected.signal_id("en").unwrap();
        injected.inject_value(en, LogicVector::filled(Logic::Zero, 1), Time::from_ns(205));
        vec![flipped, injected]
    }

    #[test]
    fn pending_delta_events_are_visible_to_every_reader() {
        for sim in with_fifo_pending() {
            let at = Time::from_ns(205);
            assert_eq!(sim.now(), at);
            // The event sits in the FIFO, ahead of the clock's wake in the
            // heap: both levels are read.
            assert_eq!(sim.next_event_time(), Some(at));
            let pending = sim.pending_events();
            assert_eq!(pending.len(), 2, "{pending:?}");
            assert_eq!(pending[0].0, at);
            assert!(pending[1].0 > at);

            // A clone carries it: equal digest — and it differs from a
            // simulator without the event.
            let twin = sim.clone();
            assert_eq!(sim.state_digest(), twin.state_digest());
            let mut drained = sim.clone();
            drained.run_until(at).unwrap();
            assert_eq!(drained.next_event_time(), Some(Time::from_ns(210)));
            assert_ne!(sim.state_digest(), drained.state_digest());
        }
    }

    #[test]
    fn checkpoint_with_pending_delta_events_forks_to_an_identical_trace() {
        for mut sim in with_fifo_pending() {
            let cp = sim.checkpoint();
            let mut fork = cp.fork();
            let mut restored = clocked_counter();
            restored.restore(&cp).unwrap();
            sim.run_until(Time::from_us(1)).unwrap();
            fork.run_until(Time::from_us(1)).unwrap();
            restored.run_until(Time::from_us(1)).unwrap();
            assert_eq!(fork.trace(), sim.trace());
            assert_eq!(restored.trace(), sim.trace());
            assert_eq!(fork.events_processed(), sim.events_processed());
            assert_eq!(fork.state_digest(), sim.state_digest());
            // The fault took effect: the run differs from the golden one.
            let mut golden = clocked_counter();
            golden.run_until(Time::from_us(1)).unwrap();
            assert_ne!(golden.trace(), sim.trace());
        }
    }

    #[test]
    fn restore_rejects_a_foreign_netlist() {
        let mut sim = clocked_counter();
        sim.run_until(Time::from_ns(100)).unwrap();
        let cp = sim.checkpoint();

        let mut net = Netlist::new();
        let a = net.signal("a", 1);
        net.add("src", step(Time::from_ns(10), Logic::One), &[], &[a]);
        let mut other = Simulator::new(net);
        assert!(other.restore(&cp).is_err());
        // Restoring into a same-structure simulator rewinds it.
        let mut twin = clocked_counter();
        twin.run_until(Time::from_us(2)).unwrap();
        twin.restore(&cp).unwrap();
        assert_eq!(twin.now(), Time::from_ns(100));
    }

    #[test]
    fn fingerprint_is_structural_not_stateful() {
        let a = clocked_counter();
        let mut b = clocked_counter();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.run_until(Time::from_us(1)).unwrap();
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "run state must not matter"
        );
    }

    #[test]
    fn step_budget_stops_a_free_running_clock() {
        let mut sim = clocked_counter();
        sim.set_budget(SimBudget::unlimited().with_max_steps(10));
        let err = sim.run_until(Time::from_ms(1)).unwrap_err();
        match err {
            SimError::Guard(GuardViolation::StepBudgetExhausted { steps, .. }) => {
                assert_eq!(steps, 11);
            }
            other => panic!("expected step-budget guard, got {other:?}"),
        }
        // The failure is sticky: a retry with the same budget trips again.
        assert!(matches!(
            sim.run_until(Time::from_ms(1)),
            Err(SimError::Guard(_))
        ));
        // Replacing the budget lets the simulation proceed.
        sim.set_budget(SimBudget::unlimited());
        sim.run_until(Time::from_us(1)).unwrap();
        assert_eq!(sim.now(), Time::from_us(1));
    }

    #[test]
    fn cancellation_interrupts_run_until() {
        let mut sim = clocked_counter();
        let token = amsfi_waves::CancelToken::new();
        token.cancel();
        sim.set_budget(SimBudget::unlimited().with_cancel(token));
        let err = sim.run_until(Time::from_us(1)).unwrap_err();
        assert!(matches!(
            err,
            SimError::Guard(GuardViolation::Cancelled { .. })
        ));
    }

    #[test]
    fn install_budget_via_forkable_sim() {
        let mut sim = clocked_counter();
        ForkableSim::install_budget(&mut sim, SimBudget::unlimited().with_max_steps(3));
        assert!(ForkableSim::advance_to(&mut sim, Time::from_us(1)).is_err());
    }

    #[test]
    fn outside_writes_reach_their_fan_out_and_nothing_else() {
        // a -> inv1 -> b -> inv2 -> c, and a side branch a -> inv3 -> d.
        let mut net = Netlist::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| net.signal(n, 1));
        net.add("src", step(Time::from_ns(10), Logic::One), &[], &[a]);
        let inv1 = net.add("inv1", Inv(Time::from_ns(1)), &[a], &[b]);
        let inv2 = net.add("inv2", Inv(Time::from_ns(1)), &[b], &[c]);
        net.add("inv3", Inv(Time::from_ns(1)), &[a], &[d]);
        let golden = Simulator::new(net);
        assert!(!golden.outside_writes_reach(&[a, b, c, d]));

        // Every way in from outside is a fault site...
        type Write = fn(&mut Simulator, ComponentId);
        let writes: [Write; 4] = [
            |sim, c| sim.flip_state(c, 0),
            |sim, c| sim.force_state(c, 1),
            |sim, c| {
                let _ = sim.component_mut(c);
            },
            |sim, c| sim.wake_component(c, Time::ZERO),
        ];
        for write in writes {
            let mut sim = golden.clone();
            write(&mut sim, inv1);
            // ...reaching its own outputs and what reads them, not its
            // inputs and not a sibling branch.
            assert!(sim.outside_writes_reach(&[b]));
            assert!(sim.outside_writes_reach(&[d, c]));
            assert!(!sim.outside_writes_reach(&[a, d]));
            write(&mut sim, inv2);
            assert!(!sim.outside_writes_reach(&[a, d]));
        }

        // A forced signal reaches itself and its readers' outputs; the
        // co-simulation kernel's own boundary traffic is no fault site.
        let one = || LogicVector::filled(Logic::One, 1);
        let mut sim = golden.clone();
        sim.inject_boundary(a, one(), Time::ZERO);
        assert!(!sim.outside_writes_reach(&[a, b, c, d]));
        sim.inject_value(b, one(), Time::ZERO);
        assert!(sim.outside_writes_reach(&[b]));
        assert!(sim.outside_writes_reach(&[c]));
        assert!(!sim.outside_writes_reach(&[a, d]));
    }

    #[test]
    #[should_panic(expected = "cannot inject")]
    fn injection_in_the_past_panics() {
        let mut net = Netlist::new();
        let a = net.signal("a", 1);
        let _ = a;
        let mut sim = Simulator::new(net);
        sim.run_until(Time::from_ns(10)).unwrap();
        sim.inject_value(
            crate::SignalId(0),
            amsfi_waves::LogicVector::filled(Logic::One, 1),
            Time::from_ns(5),
        );
    }

    #[test]
    fn a_word_machine_refuses_an_observed_simulator() {
        // A word machine shows no observer the golden trace: handed an
        // observed simulator, the batch is refused, not run unobserved.
        let mut net = Netlist::new();
        let a = net.signal("a", 1);
        let b = net.signal("b", 1);
        net.add("src", step(Time::from_ns(10), Logic::One), &[], &[a]);
        net.add("inv", Inv(Time::from_ns(1)), &[a], &[b]);
        let mut sim = Simulator::new(net);
        sim.monitor_name("b");
        sim.install_observer(SimObserver::new(|_, _| false));
        let mut batch = crate::WordBatchSimulator::new(sim, Time::from_us(1));
        batch.add_lane(Time::from_ns(20));
        match batch.run(|_, _| Ok(()), |_, _| {}) {
            Err(SimError::Unseedable(why)) => assert!(why.contains("observer"), "{why}"),
            other => panic!("expected an unseedable error, got {other:?}"),
        }
    }

    /// One requested drive: value, delay in ns, transport.
    type ScriptDrive = (Logic, i64, bool);

    /// A driver of one scalar output playing a script: at each `(at ns,
    /// drives)` step it requests `drives` in order, and it wakes itself
    /// for the next step.
    #[derive(Debug, Clone)]
    struct Script(Vec<(i64, Vec<ScriptDrive>)>);

    impl Component for Script {
        fn eval(&mut self, ctx: &mut EvalContext<'_>) {
            let now = ctx.now();
            for (at, drives) in &self.0 {
                if Time::from_ns(*at) == now {
                    for &(value, delay, transport) in drives {
                        let delay = Time::from_ns(delay);
                        if transport {
                            ctx.drive_transport_bit(0, value, delay);
                        } else {
                            ctx.drive_bit(0, value, delay);
                        }
                    }
                }
            }
            if let Some((at, _)) = self.0.iter().find(|(at, _)| Time::from_ns(*at) > now) {
                ctx.wake(Time::from_ns(*at) - now);
            }
        }
    }

    fn scripted(script: Script) -> Simulator {
        let mut net = Netlist::new();
        let out = net.signal("out", 1);
        net.add("s", script, &[], &[out]);
        let mut sim = Simulator::new(net);
        sim.monitor(out);
        sim
    }

    /// `sim` with a write on `out` queued far beyond the horizon of these
    /// tests: the idle-drive rule never applies to a signal with a write
    /// queued, so up to the horizon this is the unskipped meaning of the
    /// same drives.
    fn unskipped(mut sim: Simulator) -> Simulator {
        let out = sim.signal_id("out").unwrap();
        let far = Time::from_ms(1);
        sim.inject_boundary(out, LogicVector::filled(Logic::Unknown, 1), far);
        sim
    }

    /// Runs `sim` and its unskipped twin to `horizon`, checks that both
    /// traced and hold the same, and returns how many drives `sim`
    /// dropped unqueued.
    fn dropped_against_unskipped(sim: &mut Simulator, horizon: Time) -> u64 {
        let mut reference = unskipped(sim.clone());
        let (before, reference_before) = (sim.events_processed(), reference.events_processed());
        sim.run_until(horizon).unwrap();
        reference.run_until(horizon).unwrap();
        assert_eq!(sim.trace(), reference.trace());
        assert_eq!(sim.values, reference.values);
        let ran = sim.events_processed() - before;
        (reference.events_processed() - reference_before) - ran
    }

    fn one_transition_to_one(sim: &Simulator) -> bool {
        let wave = sim.trace().digital("out").unwrap();
        wave.transitions().iter().any(|&(_, v)| v == Logic::One)
    }

    const ZERO_NOW: ScriptDrive = (Logic::Zero, 0, false);

    #[test]
    fn an_idle_zero_delay_re_drive_is_dropped() {
        // Power-on drives 0; at 2 ns the driver re-drives the 0 it holds.
        let mut sim = scripted(Script(vec![(0, vec![ZERO_NOW]), (2, vec![ZERO_NOW])]));
        assert_eq!(dropped_against_unskipped(&mut sim, Time::from_ns(10)), 1);
    }

    #[test]
    fn a_held_value_re_drive_still_cancels_a_delayed_transaction() {
        // 1 is due at 6 ns; the held 0 re-driven at 2 ns cancels it.
        let mut sim = scripted(Script(vec![
            (0, vec![ZERO_NOW]),
            (1, vec![(Logic::One, 5, false)]),
            (2, vec![ZERO_NOW]),
        ]));
        assert_eq!(dropped_against_unskipped(&mut sim, Time::from_ns(10)), 0);
        assert!(!one_transition_to_one(&sim), "the cancelled 1 never shows");
    }

    #[test]
    fn an_inject_at_the_current_instant_is_overwritten_by_the_held_re_drive() {
        // The driver holds 0 and re-drives it at 4 ns; a 1 forced onto
        // its output at 4 ns is applied first and then overwritten.
        let mut sim = scripted(Script(vec![(0, vec![ZERO_NOW]), (4, vec![ZERO_NOW])]));
        sim.run_until(Time::from_ns(3)).unwrap();
        let out = sim.signal_id("out").unwrap();
        sim.inject_value(out, LogicVector::filled(Logic::One, 1), Time::from_ns(4));
        assert_eq!(dropped_against_unskipped(&mut sim, Time::from_ns(10)), 0);
        assert_eq!(sim.value(out)[0], Logic::Zero);
    }

    #[test]
    fn a_second_drive_on_an_output_in_one_eval_is_judged_on_its_own() {
        // At 1 ns: 1 after 5 ns, then the held 0 now, which is no longer
        // the eval's first drive on `out` and so cancels the 1.
        let mut sim = scripted(Script(vec![
            (0, vec![ZERO_NOW]),
            (1, vec![(Logic::One, 5, false), ZERO_NOW]),
        ]));
        assert_eq!(dropped_against_unskipped(&mut sim, Time::from_ns(10)), 0);
        assert!(!one_transition_to_one(&sim));
        // The other way round the held 0 goes first and is dropped; the
        // 1 after it is queued and shows.
        let mut sim = scripted(Script(vec![
            (0, vec![ZERO_NOW]),
            (1, vec![ZERO_NOW, (Logic::One, 5, false)]),
        ]));
        assert_eq!(dropped_against_unskipped(&mut sim, Time::from_ns(10)), 1);
        assert!(one_transition_to_one(&sim));
    }

    #[test]
    fn transport_and_delayed_drives_are_never_dropped() {
        let mut sim = scripted(Script(vec![
            (0, vec![ZERO_NOW]),
            (1, vec![(Logic::Zero, 0, true)]),
            (2, vec![(Logic::Zero, 1, false)]),
            (4, vec![(Logic::Zero, 1, true)]),
        ]));
        assert_eq!(dropped_against_unskipped(&mut sim, Time::from_ns(10)), 0);
    }

    #[test]
    fn a_checkpoint_carries_the_queued_writes_so_a_fork_drops_nothing_pending() {
        // Stopped at 3 ns with the 1 of 1 ns pending for 6 ns: the fork's
        // held 0 at 4 ns must still cancel it.
        let mut sim = scripted(Script(vec![
            (0, vec![ZERO_NOW]),
            (1, vec![(Logic::One, 5, false)]),
            (4, vec![ZERO_NOW]),
        ]));
        sim.run_until(Time::from_ns(3)).unwrap();
        let cp = sim.checkpoint();
        let mut fork = cp.fork();
        let mut restored = scripted(Script(Vec::new()));
        restored.restore(&cp).unwrap();
        for mut twin in [fork.clone(), restored] {
            assert_eq!(dropped_against_unskipped(&mut twin, Time::from_ns(10)), 0);
            assert!(!one_transition_to_one(&twin));
        }
        fork.run_until(Time::from_ns(10)).unwrap();
        sim.run_until(Time::from_ns(10)).unwrap();
        assert_eq!(fork.trace(), sim.trace());
        assert_eq!(fork.state_digest(), sim.state_digest());
    }

    #[test]
    fn the_delta_limit_counts_the_delta_a_dropped_re_drive_would_take() {
        // Queued, the power-on re-drive of the 'U' that `out` holds would
        // be applied in a second delta: one delta is too few either way.
        let drive_u = || scripted(Script(vec![(0, vec![(Logic::Uninitialized, 0, false)])]));
        for limit in [1, 2] {
            let mut sim = drive_u();
            sim.set_delta_limit(limit);
            let mut reference = unskipped(drive_u());
            reference.set_delta_limit(limit);
            let (got, want) = (
                sim.run_until(Time::from_ns(1)),
                reference.run_until(Time::from_ns(1)),
            );
            assert_eq!(got, want, "limit {limit}");
            assert_eq!(got.is_err(), limit == 1);
        }
    }

    /// A free-running clock into an inverter: a time point every 5 ns.
    fn clocked() -> Simulator {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let out = net.signal("out", 1);
        net.add(
            "clk",
            crate::cells::ClockGen::new(Time::from_ns(10)),
            &[],
            &[clk],
        );
        net.add("inv", Inv(Time::from_ns(1)), &[clk], &[out]);
        let mut sim = Simulator::new(net);
        sim.monitor_name("out");
        sim
    }

    /// A hook that retires the run on its `n`-th call, sending each
    /// watermark it is shown down `tx`.
    fn retiring_on(n: u32, tx: std::sync::mpsc::Sender<Time>) -> SimObserver {
        let mut calls = 0;
        SimObserver::new(move |t, _| {
            calls += 1;
            tx.send(t).unwrap();
            calls == n
        })
    }

    #[test]
    fn a_hook_that_returns_true_retires_the_run_at_that_poll() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut sim = clocked();
        sim.install_observer(retiring_on(3, tx));
        let err = sim.run_until(Time::from_us(10)).unwrap_err();
        let shown: Vec<Time> = rx.try_iter().collect();
        assert_eq!(shown.len(), 3, "the hook is not asked again");
        let t = shown[2];
        assert_eq!(err, SimError::Guard(GuardViolation::Retired { t }));
        assert_eq!(sim.now(), t, "the run stops at the poll's instant");
    }

    #[test]
    fn a_hook_that_never_retires_leaves_the_trace_as_an_unobserved_run() {
        let mut plain = clocked();
        plain.run_until(Time::from_us(10)).unwrap();
        let mut watched = clocked();
        let polls = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let seen = Arc::clone(&polls);
        watched.install_observer(SimObserver::new(move |_, _| {
            seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            false
        }));
        watched.run_until(Time::from_us(10)).unwrap();
        assert!(polls.load(std::sync::atomic::Ordering::Relaxed) > 1);
        assert_eq!(watched.trace(), plain.trace());
        assert_eq!(watched.state_digest(), plain.state_digest());
    }

    #[test]
    fn a_clone_of_an_observed_simulator_carries_no_observer() {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut sim = clocked();
        sim.install_observer(retiring_on(1, tx));
        let mut copy = sim.clone();
        copy.run_until(Time::from_us(1)).unwrap();
        assert_eq!(rx.try_iter().count(), 0, "the copy is not watched");
        assert!(sim.run_until(Time::from_us(1)).is_err(), "the original is");
    }
}
