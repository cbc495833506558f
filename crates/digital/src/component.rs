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
        /// New value, in a pooled vector.
        value: LogicVector,
        /// Delay from now.
        delay: Time,
    },
    /// Re-evaluate this component after `delay`.
    Wake {
        /// Delay from now.
        delay: Time,
    },
}

/// Recycled heap-backed values: a consumer hands back the vector it is
/// done with and the next producer refills it, so a kernel's steady state
/// never asks the allocator for a drive value. Bounded, because values can
/// also arrive from outside a pool (externally injected drives).
#[derive(Debug)]
pub(crate) struct Pool<V>(Vec<V>);

impl<V> Default for Pool<V> {
    fn default() -> Self {
        Pool(Vec::new())
    }
}

impl<V: Default> Pool<V> {
    /// More values than this are never outstanding in one time point of
    /// the circuits at hand; anything beyond is simply dropped.
    const CAPACITY: usize = 64;

    /// A value to overwrite: recycled (contents unspecified) when there is
    /// one, otherwise fresh and empty.
    pub(crate) fn take(&mut self) -> V {
        self.0.pop().unwrap_or_default()
    }

    /// Hands `value`'s storage back for the next [`Pool::take`].
    pub(crate) fn give(&mut self, value: V) {
        if self.0.len() < Self::CAPACITY {
            self.0.push(value);
        }
    }
}

/// The evaluation context handed to [`Component::eval`]: the signal store
/// seen through the component's input ports, and a queue of requested
/// actions whose drive values live in pooled vectors.
#[derive(Debug)]
pub struct EvalContext<'a> {
    now: Time,
    /// The signal values `ports` index into.
    values: &'a [LogicVector],
    /// The component's input ports, in port order.
    ports: &'a [SignalId],
    pub(crate) actions: Vec<Action>,
    pool: &'a mut Pool<LogicVector>,
}

impl<'a> EvalContext<'a> {
    /// Builds a context over `values` seen through `ports`, recycling a
    /// previously drained action list so the simulators' hot loops do not
    /// allocate one per eval.
    pub(crate) fn new(
        now: Time,
        values: &'a [LogicVector],
        ports: &'a [SignalId],
        actions: Vec<Action>,
        pool: &'a mut Pool<LogicVector>,
    ) -> Self {
        debug_assert!(actions.is_empty(), "recycled action list must be drained");
        EvalContext {
            now,
            values,
            ports,
            actions,
            pool,
        }
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
        self.push_drive(false, output, delay, |v| v.clone_from(value));
    }

    /// Scalar convenience for [`EvalContext::drive`].
    pub fn drive_bit(&mut self, output: usize, value: Logic, delay: Time) {
        self.drive_filled(output, value, 1, delay);
    }

    /// [`EvalContext::drive`] with `width` bits of `value`.
    pub fn drive_filled(&mut self, output: usize, value: Logic, width: usize, delay: Time) {
        self.push_drive(false, output, delay, |v| v.assign_filled(value, width));
    }

    /// [`EvalContext::drive`] with the low `width` bits of `value`, LSB at
    /// index 0.
    pub fn drive_u64(&mut self, output: usize, value: u64, width: usize, delay: Time) {
        self.push_drive(false, output, delay, |v| v.assign_u64(value, width));
    }

    /// [`EvalContext::drive`] with every bit of `value` flipped
    /// ([`Logic::flipped`]).
    pub fn drive_flipped(&mut self, output: usize, value: &LogicVector, delay: Time) {
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
        self.push_drive(true, output, delay, |v| v.clone_from(value));
    }

    /// Scalar convenience for [`EvalContext::drive_transport`].
    pub fn drive_transport_bit(&mut self, output: usize, value: Logic, delay: Time) {
        self.push_drive(true, output, delay, |v| v.assign_filled(value, 1));
    }

    /// Queues a drive whose value `write` puts into a pooled vector.
    fn push_drive(
        &mut self,
        transport: bool,
        output: usize,
        delay: Time,
        write: impl FnOnce(&mut LogicVector),
    ) {
        let mut value = self.pool.take();
        write(&mut value);
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
        let mut pool = Pool::default();
        let mut ctx = EvalContext::new(
            Time::from_ns(5),
            &store,
            &[SignalId(1)],
            Vec::new(),
            &mut pool,
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
                assert_eq!(value[0], Logic::Zero);
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
