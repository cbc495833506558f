//! The component model of the digital simulator.
//!
//! A [`Component`] is the Rust equivalent of a VHDL entity/architecture pair:
//! it is evaluated whenever one of its input signals changes (its sensitivity
//! list is all of its inputs) or a self-scheduled wake-up fires, and it reacts
//! by driving its output ports after a delay.
//!
//! Components with memorised state additionally expose *mutant* hooks
//! ([`Component::state_bits`], [`Component::flip_state_bit`], …): the paper's
//! Section 3.2 instrumentation that lets the fault-injection flow flip the
//! value of "memorised signals or variables" inside a block.

use crate::netlist::SignalId;
use amsfi_waves::{Logic, LogicVector, Time};

/// One action requested by a component evaluation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Action {
    /// Drive output port `output` with `value` after `delay`.
    Drive {
        /// Transport semantics (pending transactions survive) instead of
        /// inertial ones (this driver's pending transactions are
        /// cancelled).
        transport: bool,
        /// Output port index.
        output: usize,
        /// The [`Arena`] slot holding the new value.
        value: u32,
        /// Delay from now.
        delay: Time,
    },
    /// Re-evaluate this component after `delay`.
    Wake {
        /// Delay from now.
        delay: Time,
    },
}

/// The drive values of a scalar kernel's pending actions and events, each
/// named by a `u32` slot, so an action or an event is a few words to move
/// instead of a vector. A slot is taken when a drive is requested and
/// freed when its event is applied or cancelled; its storage stays for the
/// next drive, so a kernel's steady state never asks the allocator for a
/// drive value.
#[derive(Debug, Clone, Default)]
pub(crate) struct Arena {
    slots: Vec<LogicVector>,
    free: Vec<u32>,
}

impl Arena {
    /// A slot to write a value into: a freed one (contents unspecified)
    /// when there is one, otherwise a new, empty one.
    pub(crate) fn take(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 pending drives");
            self.slots.push(LogicVector::default());
            slot
        })
    }

    /// A slot holding `value`.
    pub(crate) fn put(&mut self, value: LogicVector) -> u32 {
        let slot = self.take();
        self.slots[slot as usize] = value;
        slot
    }

    /// Hands `slot` back for the next [`Arena::take`].
    pub(crate) fn free(&mut self, slot: u32) {
        debug_assert!(!self.free.contains(&slot), "slot {slot} freed twice");
        self.free.push(slot);
    }
}

impl std::ops::Index<u32> for Arena {
    type Output = LogicVector;

    fn index(&self, slot: u32) -> &LogicVector {
        &self.slots[slot as usize]
    }
}

impl std::ops::IndexMut<u32> for Arena {
    fn index_mut(&mut self, slot: u32) -> &mut LogicVector {
        &mut self.slots[slot as usize]
    }
}

/// The idle-drive rule of one evaluation, which the scalar
/// [`EvalContext`] and the word kernel's evaluation context both apply, so
/// that the two kernels drop the same drives: an inertial zero-delay drive
/// that is the eval's first on its output (below 64), onto a signal with
/// no write queued, of the value the signal already holds, is dropped
/// before it takes any storage. Queued, it would be applied in the next
/// delta and change nothing, and its cancellation would find nothing to
/// cancel. A transport drive is never dropped but marks its output as
/// driven.
#[derive(Debug, Default)]
pub(crate) struct IdleRule<'a> {
    /// The component's output ports, or none at all when the caller keeps
    /// no per-signal count of queued writes (then no drive is dropped).
    outputs: &'a [SignalId],
    /// Per signal, the writes queued for it in the caller's wheel.
    queued: &'a [u32],
    /// The outputs below 64 this eval has driven so far.
    driven: u64,
    /// Whether this eval dropped an idle re-drive.
    pub(crate) dropped: bool,
}

impl<'a> IdleRule<'a> {
    /// The rule over a component's `outputs` and, per signal, the number
    /// of writes `queued` for it.
    pub(crate) fn new(outputs: &'a [SignalId], queued: &'a [u32]) -> Self {
        IdleRule {
            outputs,
            queued,
            driven: 0,
            dropped: false,
        }
    }

    /// Notes a drive on `output` and returns whether it was the eval's
    /// first.
    pub(crate) fn note_driven(&mut self, output: usize) -> bool {
        let Some(bit) = 1u64.checked_shl(output as u32) else {
            return false;
        };
        let first = self.driven & bit == 0;
        self.driven |= bit;
        first
    }

    /// Whether an inertial drive of `output` after `delay` is idle and so
    /// dropped; `holds(signal)` tells whether the output's signal already
    /// holds the drive's value.
    pub(crate) fn idle(
        &mut self,
        output: usize,
        delay: Time,
        holds: impl FnOnce(usize) -> bool,
    ) -> bool {
        let first = self.note_driven(output);
        let idle = first
            && delay == Time::ZERO
            && self
                .outputs
                .get(output)
                .is_some_and(|sig| self.queued[sig.0] == 0 && holds(sig.0));
        self.dropped |= idle;
        idle
    }
}

/// The evaluation context handed to [`Component::eval`]: the signal store
/// seen through the component's input ports, and a queue of requested
/// actions whose drive values live in the simulator's arena.
///
/// A scalar simulator also shows the context its component's outputs, so
/// that it drops idle zero-delay re-drives (the `IdleRule`).
#[derive(Debug)]
pub struct EvalContext<'a> {
    now: Time,
    /// The signal values `ports` and the idle rule's outputs index into.
    values: &'a [LogicVector],
    /// The component's input ports, in port order.
    ports: &'a [SignalId],
    pub(crate) actions: Vec<Action>,
    arena: &'a mut Arena,
    pub(crate) rule: IdleRule<'a>,
}

impl<'a> EvalContext<'a> {
    /// Builds a context over `values` seen through `ports`, recycling a
    /// previously drained action list so the simulators' hot loops do not
    /// allocate one per eval. Every drive is queued until
    /// [`EvalContext::with_outputs`] shows the context its outputs.
    pub(crate) fn new(
        now: Time,
        values: &'a [LogicVector],
        ports: &'a [SignalId],
        actions: Vec<Action>,
        arena: &'a mut Arena,
    ) -> Self {
        debug_assert!(actions.is_empty(), "recycled action list must be drained");
        EvalContext {
            now,
            values,
            ports,
            actions,
            arena,
            rule: IdleRule::default(),
        }
    }

    /// Shows the context the component's `outputs` and, per signal, the
    /// number of writes `queued` for it, which lets it drop idle
    /// zero-delay re-drives.
    pub(crate) fn with_outputs(mut self, outputs: &'a [SignalId], queued: &'a [u32]) -> Self {
        self.rule = IdleRule::new(outputs, queued);
        self
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The value of input port `index`, lent straight from the signal
    /// store.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for this component's inputs.
    pub fn input(&self, index: usize) -> &'a LogicVector {
        &self.values[self.ports[index].0]
    }

    /// The first (and for scalars, only) bit of input port `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the input has zero width.
    pub fn input_bit(&self, index: usize) -> Logic {
        self.input(index)[0]
    }

    /// Drives output port `output` with a copy of `value` after `delay`,
    /// cancelling any pending transaction from this driver (inertial delay,
    /// the VHDL default).
    pub fn drive(&mut self, output: usize, value: &LogicVector, delay: Time) {
        if self.idle(output, delay, |held| held == value) {
            return;
        }
        self.push_drive(false, output, delay, |v| v.clone_from(value));
    }

    /// Scalar convenience for [`EvalContext::drive`].
    pub fn drive_bit(&mut self, output: usize, value: Logic, delay: Time) {
        self.drive_filled(output, value, 1, delay);
    }

    /// [`EvalContext::drive`] with `width` bits of `value`.
    pub fn drive_filled(&mut self, output: usize, value: Logic, width: usize, delay: Time) {
        let same = |held: &LogicVector| held.width() == width && held.iter().all(|b| b == value);
        if self.idle(output, delay, same) {
            return;
        }
        self.push_drive(false, output, delay, |v| v.assign_filled(value, width));
    }

    /// [`EvalContext::drive`] with the low `width` bits of `value`, LSB at
    /// index 0.
    pub fn drive_u64(&mut self, output: usize, value: u64, width: usize, delay: Time) {
        let same = |held: &LogicVector| {
            let mut rest = value;
            held.width() == width
                && held.iter().all(|b| {
                    let bit = Logic::from_bool(rest & 1 == 1);
                    rest >>= 1;
                    b == bit
                })
        };
        if self.idle(output, delay, same) {
            return;
        }
        self.push_drive(false, output, delay, |v| v.assign_u64(value, width));
    }

    /// [`EvalContext::drive`] with every bit of `value` flipped
    /// ([`Logic::flipped`]).
    pub fn drive_flipped(&mut self, output: usize, value: &LogicVector, delay: Time) {
        let same = |held: &LogicVector| {
            held.width() == value.width()
                && held.iter().zip(value.iter()).all(|(h, v)| h == v.flipped())
        };
        if self.idle(output, delay, same) {
            return;
        }
        self.push_drive(false, output, delay, |v| {
            v.clone_from(value);
            for bit in 0..v.width() {
                v.flip_bit(bit);
            }
        });
    }

    /// Drives with transport semantics: earlier pending transactions from
    /// this driver are preserved (used by stimulus sources that pre-schedule
    /// a whole waveform).
    pub fn drive_transport(&mut self, output: usize, value: &LogicVector, delay: Time) {
        self.rule.note_driven(output);
        self.push_drive(true, output, delay, |v| v.clone_from(value));
    }

    /// Scalar convenience for [`EvalContext::drive_transport`].
    pub fn drive_transport_bit(&mut self, output: usize, value: Logic, delay: Time) {
        self.rule.note_driven(output);
        self.push_drive(true, output, delay, |v| v.assign_filled(value, 1));
    }

    /// Whether an inertial drive of `output` after `delay`, whose value
    /// `same` tells equal to a held one or not, is idle and so dropped.
    fn idle(
        &mut self,
        output: usize,
        delay: Time,
        same: impl FnOnce(&LogicVector) -> bool,
    ) -> bool {
        self.rule.idle(output, delay, |sig| same(&self.values[sig]))
    }

    /// Queues a drive whose value `write` puts into an arena slot.
    fn push_drive(
        &mut self,
        transport: bool,
        output: usize,
        delay: Time,
        write: impl FnOnce(&mut LogicVector),
    ) {
        let value = self.arena.take();
        write(&mut self.arena[value]);
        self.actions.push(Action::Drive {
            transport,
            output,
            value,
            delay,
        });
    }

    /// Requests a re-evaluation of this component after `delay` even if no
    /// input changes (like a VHDL `wait for`).
    pub fn wake(&mut self, delay: Time) {
        self.actions.push(Action::Wake { delay });
    }
}

/// Object-safe clone and downcast support for boxed components.
pub trait ComponentClone {
    /// Clones this component into a new box.
    fn clone_box(&self) -> Box<dyn Component>;

    /// The component as `Any`, so callers holding a `ComponentId` can
    /// downcast to the concrete type — e.g. to arm a
    /// [`DigitalSaboteur`](crate::DigitalSaboteur) in place mid-run.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// The component as `Any`, read-only — e.g. for
    /// [`Component::eq_state`] to compare with another of its type.
    fn as_any(&self) -> &dyn std::any::Any;
}

impl<T: Component + Clone + 'static> ComponentClone for T {
    fn clone_box(&self) -> Box<dyn Component> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

impl Clone for Box<dyn Component> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A behavioural digital block: the unit of structure in a [`Netlist`].
///
/// Implementors must be `Clone` (so the fault-injection campaign can re-run a
/// pristine copy of the circuit) and `Send` (so campaigns can run runs on
/// worker threads).
///
/// [`Netlist`]: crate::Netlist
pub trait Component: ComponentClone + Send + std::fmt::Debug {
    /// Evaluates the component. Called once at time zero (power-on), then
    /// whenever any input signal changes value or a requested wake fires.
    fn eval(&mut self, ctx: &mut EvalContext<'_>);

    /// The declared port interface, used by [`Netlist::add`] to validate
    /// connections. The default (an empty spec) skips validation.
    ///
    /// [`Netlist::add`]: crate::Netlist::add
    fn port_spec(&self) -> crate::PortSpec {
        crate::PortSpec::default()
    }

    /// Number of SEU-targetable memorised bits in this component.
    ///
    /// Zero (the default) means the component is purely combinational and
    /// cannot host an SEU, only SETs on its interconnects.
    fn state_bits(&self) -> usize {
        0
    }

    /// Inverts one memorised bit, modelling an SEU strike. After the flip the
    /// simulator re-evaluates the component so the corrupted state propagates.
    ///
    /// The default does nothing (no state).
    fn flip_state_bit(&mut self, bit: usize) {
        let _ = bit;
    }

    /// A human-readable label for a memorised bit (used in campaign reports).
    fn state_label(&self, bit: usize) -> String {
        format!("bit{bit}")
    }

    /// Replaces the encoded state with `value`, modelling the erroneous FSM
    /// transition fault of the paper's reference \[11\]. The default does
    /// nothing.
    fn force_state(&mut self, value: u64) {
        let _ = value;
    }

    /// The current encoded state, if this component has one and it fits in
    /// 64 bits. Used by latent-fault detection at the end of a run.
    fn state_value(&self) -> Option<u64> {
        None
    }

    /// Whether this component's state equals `other`'s, compared by value;
    /// `None` (the default) when the component offers no typed compare, and
    /// the word kernel then compares the `Debug` renderings — the criterion
    /// of [`Simulator::state_digest`](crate::Simulator::state_digest), which
    /// an implementation must agree with.
    fn eq_state(&self, other: &dyn Component) -> Option<bool> {
        let _ = other;
        None
    }

    /// The word-parallel (64-lane) form of this component, holding one copy
    /// of the current state per lane, if it has a native plane-arithmetic
    /// implementation. `None` (the default) makes the word kernel fall back
    /// to a [`LaneFarm`](crate::word::WordComponent) of 64 scalar clones —
    /// always correct, but it pays 64 scalar evaluations per word
    /// evaluation, so hot cells should implement this.
    fn word_component(&self) -> Option<Box<dyn crate::word::WordComponent>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Probe;

    impl Component for Probe {
        fn eval(&mut self, ctx: &mut EvalContext<'_>) {
            let v = ctx.input_bit(0);
            ctx.drive_bit(0, !v, Time::from_ns(1));
        }
    }

    #[test]
    fn context_collects_actions() {
        // The port list picks the component's input out of the store.
        let store = vec![LogicVector::new(4), LogicVector::filled(Logic::One, 1)];
        let mut arena = Arena::default();
        let mut ctx = EvalContext::new(
            Time::from_ns(5),
            &store,
            &[SignalId(1)],
            Vec::new(),
            &mut arena,
        );
        let mut p = Probe;
        p.eval(&mut ctx);
        assert_eq!(ctx.actions.len(), 1);
        assert_eq!(ctx.now(), Time::from_ns(5));
        match &ctx.actions[0] {
            Action::Drive {
                transport,
                output,
                value,
                delay,
            } => {
                assert!(!transport);
                assert_eq!(*output, 0);
                assert_eq!(ctx.arena[*value][0], Logic::Zero);
                assert_eq!(*delay, Time::from_ns(1));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn boxed_component_clones() {
        let boxed: Box<dyn Component> = Box::new(Probe);
        let cloned = boxed.clone();
        assert_eq!(cloned.state_bits(), 0);
        assert_eq!(cloned.state_value(), None);
        assert_eq!(cloned.state_label(3), "bit3");
    }

    #[test]
    fn default_mutant_hooks_are_inert() {
        let mut p = Probe;
        p.flip_state_bit(0);
        p.force_state(42);
        assert_eq!(p.state_bits(), 0);
    }
}
