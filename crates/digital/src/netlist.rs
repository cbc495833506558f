//! Structural circuit descriptions: signals, component instances and their
//! connections.
//!
//! A [`Netlist`] is the Rust equivalent of a structural VHDL architecture.
//! It is also the level at which the paper's instrumentation happens:
//! [`Netlist::insert_saboteur`] splits an interconnect and splices a saboteur
//! component into it ("modifying some interconnections in the initial
//! description", Section 3.2), and [`Netlist::mutant_targets`] enumerates
//! every SEU-targetable memorised bit exposed by the instantiated components.

use crate::component::Component;
use std::collections::HashMap;
use std::fmt;

/// Identifies a signal within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub(crate) usize);

/// Identifies a component instance within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub(crate) usize);

/// Declared port interface of a component, used by [`Netlist::add`] for
/// connection validation. An empty spec (the default) skips validation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortSpec {
    /// `(name, width)` for each input port, in connection order.
    pub inputs: Vec<(String, usize)>,
    /// `(name, width)` for each output port, in connection order.
    pub outputs: Vec<(String, usize)>,
}

impl PortSpec {
    /// Builds a spec from `(name, width)` slices.
    pub fn new(inputs: &[(&str, usize)], outputs: &[(&str, usize)]) -> Self {
        PortSpec {
            inputs: inputs.iter().map(|&(n, w)| (n.to_owned(), w)).collect(),
            outputs: outputs.iter().map(|&(n, w)| (n.to_owned(), w)).collect(),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct SignalDecl {
    pub(crate) name: String,
    pub(crate) width: usize,
    pub(crate) driver: Option<(ComponentId, usize)>,
    pub(crate) readers: Vec<ComponentId>,
}

#[derive(Debug, Clone)]
pub(crate) struct ComponentDecl {
    pub(crate) name: String,
    pub(crate) comp: Box<dyn Component>,
    pub(crate) inputs: Vec<SignalId>,
    pub(crate) outputs: Vec<SignalId>,
}

/// One SEU-targetable memorised bit inside a netlist: the unit of the
/// digital (mutant-based) fault list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutantTarget {
    /// The component hosting the bit.
    pub component: ComponentId,
    /// Hierarchical component name.
    pub component_name: String,
    /// Bit index within the component's state.
    pub bit: usize,
    /// Human-readable bit label (e.g. `"q[3]"`).
    pub label: String,
}

impl fmt::Display for MutantTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.component_name, self.label)
    }
}

/// A structural digital circuit: named signals connected to component
/// instances.
///
/// # Examples
///
/// ```
/// use amsfi_digital::{cells, Netlist};
/// use amsfi_waves::Time;
///
/// let mut net = Netlist::new();
/// let clk = net.signal("clk", 1);
/// let d = net.signal("d", 1);
/// let q = net.signal("q", 1);
/// net.add("ff", cells::Dff::new(1, Time::ZERO), &[clk, d], &[q]);
/// assert_eq!(net.mutant_targets().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    pub(crate) signals: Vec<SignalDecl>,
    pub(crate) components: Vec<ComponentDecl>,
    by_name: HashMap<String, SignalId>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a signal of the given width (1 for a scalar).
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken or `width` is zero.
    pub fn signal(&mut self, name: &str, width: usize) -> SignalId {
        assert!(width > 0, "signal {name:?} must have nonzero width");
        assert!(
            !self.by_name.contains_key(name),
            "duplicate signal name {name:?}"
        );
        let id = SignalId(self.signals.len());
        self.signals.push(SignalDecl {
            name: name.to_owned(),
            width,
            driver: None,
            readers: Vec::new(),
        });
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Instantiates a component, connecting `inputs` and `outputs` in the
    /// order of its [`PortSpec`].
    ///
    /// # Panics
    ///
    /// Panics if an output signal already has a driver, or if the component
    /// declares a non-empty port spec that does not match the connection
    /// counts and signal widths.
    pub fn add<C: Component + 'static>(
        &mut self,
        name: &str,
        comp: C,
        inputs: &[SignalId],
        outputs: &[SignalId],
    ) -> ComponentId {
        self.add_boxed(name, Box::new(comp), inputs, outputs)
    }

    /// Type-erased form of [`Netlist::add`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Netlist::add`].
    pub fn add_boxed(
        &mut self,
        name: &str,
        comp: Box<dyn Component>,
        inputs: &[SignalId],
        outputs: &[SignalId],
    ) -> ComponentId {
        let spec = comp.port_spec();
        if spec != PortSpec::default() {
            assert_eq!(
                spec.inputs.len(),
                inputs.len(),
                "component {name:?} expects {} inputs, got {}",
                spec.inputs.len(),
                inputs.len()
            );
            assert_eq!(
                spec.outputs.len(),
                outputs.len(),
                "component {name:?} expects {} outputs, got {}",
                spec.outputs.len(),
                outputs.len()
            );
            for (i, ((pname, pwidth), sig)) in spec.inputs.iter().zip(inputs).enumerate() {
                assert_eq!(
                    self.signals[sig.0].width, *pwidth,
                    "component {name:?} input {i} ({pname}) expects width {pwidth}, \
                     signal {:?} has width {}",
                    self.signals[sig.0].name, self.signals[sig.0].width
                );
            }
            for (i, ((pname, pwidth), sig)) in spec.outputs.iter().zip(outputs).enumerate() {
                assert_eq!(
                    self.signals[sig.0].width, *pwidth,
                    "component {name:?} output {i} ({pname}) expects width {pwidth}, \
                     signal {:?} has width {}",
                    self.signals[sig.0].name, self.signals[sig.0].width
                );
            }
        }
        let id = ComponentId(self.components.len());
        for sig in inputs {
            self.signals[sig.0].readers.push(id);
        }
        for (port, sig) in outputs.iter().enumerate() {
            let decl = &mut self.signals[sig.0];
            assert!(
                decl.driver.is_none(),
                "signal {:?} already driven by component {:?}",
                decl.name,
                self.components[decl.driver.expect("checked").0 .0].name
            );
            decl.driver = Some((id, port));
        }
        self.components.push(ComponentDecl {
            name: name.to_owned(),
            comp,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
        });
        id
    }

    /// Splices `saboteur` into `target`: the saboteur reads the original
    /// signal and drives a new signal named `"<target>__sab"`, and every
    /// former reader of `target` is re-connected to the new signal.
    ///
    /// Returns the saboteur's component id and the new downstream signal.
    /// Must be called after all ordinary components are added and before
    /// simulation starts.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn insert_saboteur(
        &mut self,
        target: SignalId,
        saboteur: Box<dyn Component>,
    ) -> (ComponentId, SignalId) {
        let width = self.signals[target.0].width;
        let sab_name = format!("{}__sab", self.signals[target.0].name);
        let downstream = self.signal(&sab_name, width);
        // Re-point every reader of `target` to `downstream`.
        let readers = std::mem::take(&mut self.signals[target.0].readers);
        for reader in &readers {
            for sig in &mut self.components[reader.0].inputs {
                if *sig == target {
                    *sig = downstream;
                }
            }
        }
        self.signals[downstream.0].readers = readers;
        let comp_name = format!("saboteur({})", self.signals[target.0].name);
        let id = self.add_boxed(&comp_name, saboteur, &[target], &[downstream]);
        (id, downstream)
    }

    /// Looks up a signal by name.
    pub fn signal_id(&self, name: &str) -> Option<SignalId> {
        self.by_name.get(name).copied()
    }

    /// The name of a signal.
    pub fn signal_name(&self, id: SignalId) -> &str {
        &self.signals[id.0].name
    }

    /// The width of a signal.
    pub fn signal_width(&self, id: SignalId) -> usize {
        self.signals[id.0].width
    }

    /// The name of a component instance.
    pub fn component_name(&self, id: ComponentId) -> &str {
        &self.components[id.0].name
    }

    /// Ids of all declared signals.
    pub fn signal_ids(&self) -> impl Iterator<Item = SignalId> {
        (0..self.signals.len()).map(SignalId)
    }

    /// Ids of all component instances.
    pub fn component_ids(&self) -> impl Iterator<Item = ComponentId> {
        (0..self.components.len()).map(ComponentId)
    }

    /// Number of declared signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Number of component instances.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Enumerates every interconnect: signals with a driver and at least one
    /// reader — the places a wire-level saboteur can be spliced (the
    /// Section 3.2 limitation: saboteurs "can only inject faults on these
    /// interconnections").
    pub fn interconnects(&self) -> Vec<SignalId> {
        (0..self.signals.len())
            .map(SignalId)
            .filter(|id| {
                let decl = &self.signals[id.0];
                decl.driver.is_some() && !decl.readers.is_empty()
            })
            .collect()
    }

    /// Enumerates every SEU-targetable memorised bit in the circuit — the
    /// digital fault list of a campaign.
    pub fn mutant_targets(&self) -> Vec<MutantTarget> {
        let mut out = Vec::new();
        for (idx, decl) in self.components.iter().enumerate() {
            for bit in 0..decl.comp.state_bits() {
                out.push(MutantTarget {
                    component: ComponentId(idx),
                    component_name: decl.name.clone(),
                    bit,
                    label: decl.comp.state_label(bit),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::EvalContext;
    use amsfi_waves::Time;

    #[derive(Debug, Clone)]
    struct Pass;

    impl Component for Pass {
        fn eval(&mut self, ctx: &mut EvalContext<'_>) {
            ctx.drive(0, ctx.input(0), Time::ZERO);
        }
    }

    #[derive(Debug, Clone)]
    struct TwoBitState;

    impl Component for TwoBitState {
        fn eval(&mut self, _ctx: &mut EvalContext<'_>) {}
        fn state_bits(&self) -> usize {
            2
        }
        fn state_label(&self, bit: usize) -> String {
            format!("s[{bit}]")
        }
    }

    #[test]
    fn signal_lookup_by_name() {
        let mut net = Netlist::new();
        let a = net.signal("a", 4);
        assert_eq!(net.signal_id("a"), Some(a));
        assert_eq!(net.signal_id("b"), None);
        assert_eq!(net.signal_name(a), "a");
        assert_eq!(net.signal_width(a), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate signal name")]
    fn duplicate_names_rejected() {
        let mut net = Netlist::new();
        net.signal("a", 1);
        net.signal("a", 1);
    }

    #[test]
    #[should_panic(expected = "already driven")]
    fn double_driver_rejected() {
        let mut net = Netlist::new();
        let a = net.signal("a", 1);
        let b = net.signal("b", 1);
        net.add("p1", Pass, &[a], &[b]);
        net.add("p2", Pass, &[a], &[b]);
    }

    #[test]
    fn mutant_targets_enumerate_state_bits() {
        let mut net = Netlist::new();
        net.add("s0", TwoBitState, &[], &[]);
        let x = net.signal("x", 1);
        let y = net.signal("y", 1);
        net.add("comb", Pass, &[x], &[y]);
        net.add("s1", TwoBitState, &[], &[]);
        let targets = net.mutant_targets();
        assert_eq!(targets.len(), 4);
        assert_eq!(targets[0].to_string(), "s0.s[0]");
        assert_eq!(targets[3].component_name, "s1");
        assert_eq!(targets[3].bit, 1);
    }

    #[test]
    fn interconnects_are_driven_and_read() {
        let mut net = Netlist::new();
        let a = net.signal("a", 1); // read but undriven (external input)
        let b = net.signal("b", 1); // interconnect
        let c = net.signal("c", 1); // driven but unread (output port)
        net.add("p1", Pass, &[a], &[b]);
        net.add("p2", Pass, &[b], &[c]);
        assert_eq!(net.interconnects(), vec![b]);
    }

    #[test]
    fn saboteur_insertion_rewires_readers() {
        let mut net = Netlist::new();
        let a = net.signal("a", 1);
        let b = net.signal("b", 1);
        let c = net.signal("c", 1);
        net.add("src", Pass, &[a], &[b]);
        let sink = net.add("sink", Pass, &[b], &[c]);
        let (sab_id, downstream) = net.insert_saboteur(b, Box::new(Pass));
        // The sink now reads the saboteur's output, not b.
        assert_eq!(net.components[sink.0].inputs, vec![downstream]);
        // The saboteur reads b and drives the new net.
        assert_eq!(net.components[sab_id.0].inputs, vec![b]);
        assert_eq!(net.components[sab_id.0].outputs, vec![downstream]);
        assert_eq!(net.signal_name(downstream), "b__sab");
        assert_eq!(net.signal_width(downstream), 1);
    }
}
