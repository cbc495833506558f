//! The digital saboteur: a pass-through component spliced into an
//! interconnect that can corrupt the value it forwards.
//!
//! This is the Section 3.2 saboteur, used for faults that live on wires
//! rather than in memorised state: stuck-ats, SET pulses, and wire-level
//! bit inversions. Splice one with [`Netlist::insert_saboteur`].
//!
//! [`Netlist::insert_saboteur`]: crate::Netlist::insert_saboteur

use crate::component::{Component, EvalContext};
use crate::netlist::PortSpec;
use amsfi_faults::{DigitalFault, DigitalFaultKind};
use amsfi_waves::Time;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the injection time.
    Before,
    /// The fault is active (timed kinds only).
    Active,
}

/// A saboteur for digital interconnects.
///
/// Transparent (zero-delay pass-through) until its fault's injection time,
/// then:
///
/// * [`DigitalFaultKind::StuckAt`] — forces the level permanently;
/// * [`DigitalFaultKind::SetPulse`] — forwards the *inverted* input for the
///   pulse width, then turns transparent again. The corruption is visible
///   on exactly the half-open window `[at, at + width)`, both in settled
///   waveforms and to edge-triggered samplers clocked at a boundary
///   instant (boundary drives land in the same delta batch as zero-delay
///   clock edges). A zero-width pulse is settled-invisible but is still
///   sampled by an edge at the same instant;
/// * [`DigitalFaultKind::BitFlip`] — inverts the value once; the corruption
///   persists until the next source transition (the classical signal
///   bit-flip semantics);
/// * [`DigitalFaultKind::ForceState`] — drives the encoded value once.
///
/// A saboteur with no fault is fully transparent, so instrumented and
/// pristine circuits behave identically — the property that makes
/// "instrument once, inject many" campaigns sound.
/// Equality is over every field, exactly what `Debug` shows, so a typed
/// compare agrees with the `Debug`-rendered state digest.
#[derive(Debug, Clone, PartialEq)]
pub struct DigitalSaboteur {
    width: usize,
    fault: Option<DigitalFault>,
    phase: Phase,
    armed: bool,
}

impl DigitalSaboteur {
    /// Creates a transparent saboteur for a `width`-bit interconnect.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "saboteur width must be nonzero");
        DigitalSaboteur {
            width,
            fault: None,
            phase: Phase::Before,
            armed: false,
        }
    }

    /// Arms the saboteur with a fault to inject.
    #[must_use]
    pub fn with_fault(mut self, fault: DigitalFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The armed fault, if any.
    pub fn fault(&self) -> Option<&DigitalFault> {
        self.fault.as_ref()
    }

    /// Arms a fault on a saboteur that is already spliced into a running
    /// simulator (the batch path's in-place injection). The caller must
    /// also schedule a re-evaluation at the fault's injection instant with
    /// [`Simulator::wake_component`](crate::Simulator::wake_component) —
    /// the saboteur's own arming wake only fires from a power-on
    /// evaluation. Equivalent to building with [`DigitalSaboteur::with_fault`]
    /// provided the current simulation instant precedes `fault.at`.
    pub fn arm(&mut self, fault: DigitalFault) {
        self.fault = Some(fault);
        self.phase = Phase::Before;
        // The caller schedules the wake; suppress the eval-time arming
        // path so injection-instant evaluations match a build-time-armed
        // saboteur's exactly (no extra zero-delay wake).
        self.armed = true;
    }

    /// Returns the saboteur to the pristine transparent state once its
    /// fault has run its course. A retired saboteur is bit-for-bit
    /// indistinguishable (including `Debug` output) from one that was
    /// never armed — the property the batch simulator's reconvergence
    /// seal relies on when comparing a mutant lane's full machine state
    /// against the golden machine's.
    fn retire(&mut self) {
        self.fault = None;
        self.phase = Phase::Before;
        self.armed = false;
    }
}

impl Component for DigitalSaboteur {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let input = ctx.input(0);
        let Some(fault) = self.fault.clone() else {
            ctx.drive(0, input, Time::ZERO);
            return;
        };
        if !self.armed {
            self.armed = true;
            if ctx.now() <= fault.at {
                ctx.wake(fault.at - ctx.now());
            }
        }
        match self.phase {
            Phase::Before => {
                if ctx.now() < fault.at {
                    ctx.drive(0, input, Time::ZERO);
                    return;
                }
                // Injection instant reached.
                match fault.kind {
                    DigitalFaultKind::StuckAt(level) => {
                        self.phase = Phase::Active;
                        ctx.drive_filled(0, level, self.width, Time::ZERO);
                    }
                    DigitalFaultKind::SetPulse { width } => {
                        self.phase = Phase::Active;
                        ctx.drive_flipped(0, input, Time::ZERO);
                        ctx.wake(width);
                    }
                    DigitalFaultKind::BitFlip => {
                        ctx.drive_flipped(0, input, Time::ZERO);
                        self.retire();
                    }
                    DigitalFaultKind::ForceState { value } => {
                        ctx.drive_u64(0, value, self.width, Time::ZERO);
                        self.retire();
                    }
                }
            }
            Phase::Active => match fault.kind {
                DigitalFaultKind::StuckAt(level) => {
                    ctx.drive_filled(0, level, self.width, Time::ZERO);
                }
                DigitalFaultKind::SetPulse { .. } => {
                    if ctx.now() >= fault.end() {
                        ctx.drive(0, input, Time::ZERO);
                        self.retire();
                    } else {
                        ctx.drive_flipped(0, input, Time::ZERO);
                    }
                }
                _ => unreachable!("point faults never stay active"),
            },
        }
    }

    fn port_spec(&self) -> PortSpec {
        PortSpec::new(&[("in", self.width)], &[("out", self.width)])
    }

    fn eq_state(&self, other: &dyn Component) -> Option<bool> {
        Some(other.as_any().downcast_ref::<Self>() == Some(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{ClockGen, Stimulus};
    use crate::{Netlist, Simulator};
    use amsfi_waves::Logic;

    fn clocked_bench(fault: Option<DigitalFault>) -> Simulator {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        net.add("ck", ClockGen::new(Time::from_ns(20)), &[], &[clk]);
        let mut sab = DigitalSaboteur::new(1);
        if let Some(f) = fault {
            sab = sab.with_fault(f);
        }
        net.insert_saboteur(clk, Box::new(sab));
        let mut sim = Simulator::new(net);
        sim.monitor_name("clk__sab");
        sim
    }

    #[test]
    fn transparent_without_fault() {
        let mut sim = clocked_bench(None);
        sim.run_until(Time::from_us(1)).unwrap();
        let w = sim.trace().digital("clk__sab").unwrap();
        // Every edge is forwarded unchanged: rises at 10, 30, ..., 990 ns.
        assert_eq!(w.rising_edges().len(), 50);
        assert_eq!(w.rising_edges()[0], Time::from_ns(10));
    }

    #[test]
    fn stuck_at_freezes_from_injection_time() {
        let fault = DigitalFault::new(DigitalFaultKind::StuckAt(Logic::Zero), Time::from_ns(100));
        let mut sim = clocked_bench(Some(fault));
        sim.run_until(Time::from_us(1)).unwrap();
        let w = sim.trace().digital("clk__sab").unwrap();
        // Edges before 100 ns pass; nothing after.
        assert!(w.rising_edges().iter().all(|&t| t < Time::from_ns(100)));
        assert_eq!(w.value_at(Time::from_us(1)), Logic::Zero);
    }

    #[test]
    fn set_pulse_inverts_for_its_width_only() {
        // Inject a 5 ns SET at 34 ns: clk is high (30-40 ns), so the output
        // shows a spurious low from 34 to 39 ns.
        let fault = DigitalFault::new(
            DigitalFaultKind::SetPulse {
                width: Time::from_ns(5),
            },
            Time::from_ns(34),
        );
        let mut sim = clocked_bench(Some(fault));
        sim.run_until(Time::from_ns(200)).unwrap();
        let w = sim.trace().digital("clk__sab").unwrap();
        assert_eq!(w.value_at(Time::from_ns(33)), Logic::One);
        assert_eq!(w.value_at(Time::from_ns(36)), Logic::Zero);
        // The pulse ends at 39 ns; the clock is still high until 40 ns.
        assert_eq!(
            w.value_at(Time::from_ns(39) + Time::from_ps(500)),
            Logic::One
        );
        // Subsequent cycles are clean: high again at 55 ns.
        assert_eq!(w.value_at(Time::from_ns(55)), Logic::One);
    }

    /// Bench for the pulse end-boundary semantics: a counter whose `en`
    /// line carries the saboteur. Clock rises at 10, 30, 50, ... ns, so a
    /// pulse on `en` is "sampled" iff the counter misses increments.
    fn gated_counter(fault: Option<DigitalFault>) -> Simulator {
        use crate::cells::{ConstVector, Counter};
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let en = net.signal("en", 1);
        let q = net.signal("q", 8);
        net.add("ck", ClockGen::new(Time::from_ns(20)), &[], &[clk]);
        net.add("r", ConstVector::bit(Logic::Zero), &[], &[rst]);
        net.add("e", ConstVector::bit(Logic::One), &[], &[en]);
        net.add("ctr", Counter::new(8, Time::ZERO), &[clk, rst, en], &[q]);
        let mut sab = DigitalSaboteur::new(1);
        if let Some(f) = fault {
            sab = sab.with_fault(f);
        }
        // Splice after all readers exist so the counter reads `en__sab`.
        net.insert_saboteur(en, Box::new(sab));
        let mut sim = Simulator::new(net);
        sim.monitor_name("en__sab");
        sim
    }

    fn count_at_end(sim: &Simulator) -> u64 {
        let ctr = sim
            .mutant_targets()
            .into_iter()
            .find(|t| t.component_name == "ctr")
            .expect("counter present")
            .component;
        sim.state_value(ctr).unwrap()
    }

    fn pulse(at: Time, width: Time) -> DigitalFault {
        DigitalFault::new(DigitalFaultKind::SetPulse { width }, at)
    }

    /// Pinned semantics: a sampler clocked at `t` sees the pulse iff
    /// `at <= t < at + width` — the same half-open window the settled
    /// waveform shows. Mechanically, `ClockGen` and the saboteur both wake
    /// at the boundary instant and drive with zero delay, so the clock edge
    /// and the saboteur's corrective drive apply in the *same* delta batch;
    /// the edge-triggered eval that follows already sees the clean value.
    #[test]
    fn pulse_ending_exactly_on_sampling_edge_is_not_sampled() {
        // Golden: edges at 10, 30, 50, 70, 90 ns -> count 5 by 100 ns.
        let mut golden = gated_counter(None);
        golden.run_until(Time::from_ns(100)).unwrap();
        assert_eq!(count_at_end(&golden), 5);

        // Pulse [42, 50) on `en` ends exactly at the 50 ns rising edge:
        // the hand-back drive lands in the same delta as the clock edge,
        // so the counter samples the restored high and loses no count.
        let mut sim = gated_counter(Some(pulse(Time::from_ns(42), Time::from_ns(8))));
        sim.run_until(Time::from_ns(100)).unwrap();
        assert_eq!(count_at_end(&sim), 5);
        // The settled waveform recovered at 50 ns (half-open window).
        let w = sim.trace().digital("en__sab").unwrap();
        assert_eq!(w.value_at(Time::from_ns(45)), Logic::Zero);
        assert_eq!(w.value_at(Time::from_ns(50)), Logic::One);
    }

    /// Dual boundary: a pulse *starting* exactly on the sampling edge is
    /// sampled — the inverted drive applies in the same delta batch as the
    /// clock edge, so the edge eval latches the corrupted value. Together
    /// with the end-boundary test this pins the sampler-visible window to
    /// exactly `[at, at + width)`.
    #[test]
    fn pulse_starting_exactly_on_sampling_edge_is_sampled() {
        let mut sim = gated_counter(Some(pulse(Time::from_ns(50), Time::from_ns(8))));
        sim.run_until(Time::from_ns(100)).unwrap();
        // The edge at 50 ns samples the corrupted low: one count lost.
        assert_eq!(count_at_end(&sim), 4);
        let w = sim.trace().digital("en__sab").unwrap();
        assert_eq!(w.value_at(Time::from_ns(54)), Logic::Zero);
        assert_eq!(w.value_at(Time::from_ns(58)), Logic::One);
    }

    /// A zero-width pulse spans only delta cycles: the settled waveform
    /// never shows it (push of the same value is a no-op), yet an edge at
    /// the same instant *does* sample the corrupted value — the inverted
    /// drive applies with the clock edge, the hand-back one delta later.
    /// Degenerate width behaves as the `[at, at)` window's limit seen by
    /// same-instant samplers: delta-visible, settled-invisible.
    #[test]
    fn zero_width_pulse_is_settled_invisible_but_delta_sampled() {
        let mut sim = gated_counter(Some(pulse(Time::from_ns(50), Time::ZERO)));
        sim.run_until(Time::from_ns(100)).unwrap();
        assert_eq!(count_at_end(&sim), 4);
        let w = sim.trace().digital("en__sab").unwrap();
        for ns in [49, 50, 51, 99] {
            assert_eq!(w.value_at(Time::from_ns(ns)), Logic::One, "t = {ns} ns");
        }
    }

    /// Pulse end coinciding with a source transition at the same instant:
    /// the transparent hand-back forwards the *new* source value, never the
    /// stale pre-pulse one.
    #[test]
    fn pulse_end_on_source_transition_hands_back_new_value() {
        use crate::cells::Stimulus;
        let mut net = Netlist::new();
        let s = net.signal("s", 1);
        net.add(
            "stim",
            Stimulus::bits([(Time::ZERO, true), (Time::from_ns(50), false)]),
            &[],
            &[s],
        );
        // Pulse [42, 50): inverts the high source to low; at 50 ns the
        // source itself falls.
        let sab = DigitalSaboteur::new(1).with_fault(pulse(Time::from_ns(42), Time::from_ns(8)));
        net.insert_saboteur(s, Box::new(sab));
        let mut sim = Simulator::new(net);
        sim.monitor_name("s__sab");
        sim.run_until(Time::from_ns(100)).unwrap();
        let w = sim.trace().digital("s__sab").unwrap();
        assert_eq!(w.value_at(Time::from_ns(40)), Logic::One);
        assert_eq!(w.value_at(Time::from_ns(45)), Logic::Zero);
        // After the pulse the saboteur forwards the fallen source, not the
        // stale pre-pulse high.
        assert_eq!(w.value_at(Time::from_ns(50)), Logic::Zero);
        assert_eq!(w.value_at(Time::from_ns(99)), Logic::Zero);
    }

    #[test]
    fn bit_flip_persists_until_next_transition() {
        let mut net = Netlist::new();
        let s = net.signal("s", 1);
        net.add(
            "stim",
            Stimulus::bits([(Time::ZERO, false), (Time::from_ns(100), true)]),
            &[],
            &[s],
        );
        let sab = DigitalSaboteur::new(1).with_fault(DigitalFault::bit_flip(Time::from_ns(40)));
        net.insert_saboteur(s, Box::new(sab));
        let mut sim = Simulator::new(net);
        sim.monitor_name("s__sab");
        sim.run_until(Time::from_ns(200)).unwrap();
        let w = sim.trace().digital("s__sab").unwrap();
        assert_eq!(w.value_at(Time::from_ns(30)), Logic::Zero);
        // Flipped at 40 ns: shows 1 although the source is 0.
        assert_eq!(w.value_at(Time::from_ns(50)), Logic::One);
        // Source transition at 100 ns overwrites the corruption.
        assert_eq!(w.value_at(Time::from_ns(150)), Logic::One);
    }

    #[test]
    fn force_state_drives_encoded_value_once() {
        let mut net = Netlist::new();
        let bus = net.signal("bus", 4);
        net.add(
            "stim",
            Stimulus::new([(Time::ZERO, amsfi_waves::LogicVector::from_u64(0x3, 4))]),
            &[],
            &[bus],
        );
        let sab = DigitalSaboteur::new(4).with_fault(DigitalFault::new(
            DigitalFaultKind::ForceState { value: 0xC },
            Time::from_ns(50),
        ));
        net.insert_saboteur(bus, Box::new(sab));
        let mut sim = Simulator::new(net);
        let out = sim.signal_id("bus__sab").unwrap();
        sim.run_until(Time::from_ns(40)).unwrap();
        assert_eq!(sim.value(out).to_u64(), Some(0x3));
        sim.run_until(Time::from_ns(60)).unwrap();
        assert_eq!(sim.value(out).to_u64(), Some(0xC));
    }
}
