//! A dry run of an injection: what it would write, not what it does.

use crate::{Component, ComponentId, InjectTarget, Simulator};
use amsfi_waves::{SimBudget, Time};
use std::fmt;

/// An [`InjectTarget`] that records writes instead of simulating them, so
/// a campaign can tell before a case runs whether its upset can matter.
///
/// The case stays *inert* while every write is a
/// [`flip_state`](InjectTarget::flip_state) of a bit its component
/// declares unread ([`Component::state_bit_is_read`]); a run of it records
/// the fault-free trace. Any other write makes it live, whatever it wrote:
/// a flip of a read bit, [`force_state`](InjectTarget::force_state),
/// [`component_mut`](InjectTarget::component_mut),
/// [`wake_component`](InjectTarget::wake_component) and
/// [`set_budget`](InjectTarget::set_budget).
///
/// The probe reads a *pristine* simulator: the fault-free bench as built,
/// never advanced. [`component_id`](InjectTarget::component_id) looks
/// names up there, and `component_mut` hands out a throwaway clone of the
/// component, so nothing written through the probe reaches it.
///
/// ```
/// use amsfi_digital::{cells, InjectProbe, InjectTarget, Netlist, Simulator};
/// use amsfi_waves::Time;
///
/// let mut net = Netlist::new();
/// let (clk, rst, en) = (net.signal("clk", 1), net.signal("rst", 1), net.signal("en", 1));
/// let q = net.signal("q", 8);
/// let ctr = net.add("ctr", cells::Counter::new(8, Time::ZERO), &[clk, rst, en], &[q]);
/// let pristine = Simulator::new(net);
///
/// let mut probe = InjectProbe::new(&pristine);
/// assert_eq!(probe.component_id("ctr"), Some(ctr));
/// probe.flip_state(ctr, 7);
/// assert!(!probe.is_inert(), "a counter reads every bit it holds");
/// ```
pub struct InjectProbe<'a> {
    pristine: &'a Simulator,
    live: bool,
    /// The clone the last `component_mut` handed out.
    scratch: Option<Box<dyn Component>>,
}

impl<'a> InjectProbe<'a> {
    /// A probe over `pristine`, with nothing written yet.
    pub fn new(pristine: &'a Simulator) -> Self {
        InjectProbe {
            pristine,
            live: false,
            scratch: None,
        }
    }

    /// Whether everything written so far was a flip of an unread bit.
    pub fn is_inert(&self) -> bool {
        !self.live
    }
}

impl fmt::Debug for InjectProbe<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InjectProbe")
            .field("live", &self.live)
            .finish_non_exhaustive()
    }
}

impl InjectTarget for InjectProbe<'_> {
    fn flip_state(&mut self, component: ComponentId, bit: usize) {
        self.live |= self.pristine.component(component).state_bit_is_read(bit);
    }

    fn force_state(&mut self, _: ComponentId, _: u64) {
        self.live = true;
    }

    fn component_id(&self, name: &str) -> Option<ComponentId> {
        self.pristine.component_id(name)
    }

    fn component_mut(&mut self, component: ComponentId) -> &mut dyn Component {
        self.live = true;
        let clone = self.pristine.component(component).clone_box();
        &mut **self.scratch.insert(clone)
    }

    fn wake_component(&mut self, _: ComponentId, _: Time) {
        self.live = true;
    }

    fn set_budget(&mut self, _: SimBudget) {
        self.live = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cells, Netlist};
    use amsfi_waves::Logic;

    /// A one-bit cell whose bit is read only when `read` says so.
    #[derive(Debug, Clone)]
    struct Bit {
        read: bool,
    }

    impl Component for Bit {
        fn eval(&mut self, _: &mut crate::EvalContext<'_>) {}

        fn state_bits(&self) -> usize {
            1
        }

        fn state_bit_is_read(&self, _: usize) -> bool {
            self.read
        }
    }

    #[test]
    fn component_mut_writes_a_clone() {
        let mut net = Netlist::new();
        let a = net.signal("a", 1);
        net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[a]);
        let bit = net.add("bit", Bit { read: false }, &[a], &[]);
        let pristine = Simulator::new(net);
        let mut probe = InjectProbe::new(&pristine);
        probe
            .component_mut(bit)
            .as_any_mut()
            .downcast_mut::<Bit>()
            .expect("the bench's cell")
            .read = true;
        assert!(!probe.is_inert());

        let mut next = InjectProbe::new(&pristine);
        next.flip_state(bit, 0);
        assert!(next.is_inert(), "the pristine cell still reads nothing");
    }
}
