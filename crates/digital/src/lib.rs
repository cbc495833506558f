//! An event-driven digital simulator with built-in fault-injection
//! instrumentation, the digital half of the `amsfi` flow.
//!
//! The kernel reproduces the semantics the paper's VHDL-based flow relies
//! on: an event wheel with delta cycles, IEEE 1164-style nine-valued signals,
//! inertial and transport delays, and value-change tracing.
//!
//! Instrumentation follows Section 3.2 of the paper:
//!
//! * **Mutants** — every sequential cell exposes its memorised bits
//!   ([`Component::state_bits`] / [`Component::flip_state_bit`]); a campaign
//!   strikes an SEU at an exact instant with [`Simulator::flip_state`];
//! * **Saboteurs** — [`Netlist::insert_saboteur`] splices a
//!   [`DigitalSaboteur`] into an interconnect for stuck-ats, SET pulses and
//!   wire bit-flips.
//!
//! # Example
//!
//! An SEU in a counter bit, visible immediately and corrected at the next
//! reload:
//!
//! ```
//! use amsfi_digital::{cells, Netlist, Simulator};
//! use amsfi_waves::{Logic, Time};
//!
//! let mut net = Netlist::new();
//! let clk = net.signal("clk", 1);
//! let rst = net.signal("rst", 1);
//! let en = net.signal("en", 1);
//! let q = net.signal("q", 8);
//! net.add("ck", cells::ClockGen::new(Time::from_ns(20)), &[], &[clk]);
//! net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
//! net.add("e", cells::ConstVector::bit(Logic::One), &[], &[en]);
//! let ctr = net.add("ctr", cells::Counter::new(8, Time::ZERO), &[clk, rst, en], &[q]);
//!
//! let mut sim = Simulator::new(net);
//! sim.run_until(Time::from_ns(50))?; // edges at 10, 30, 50 ns -> count 3
//! assert_eq!(sim.value(q).to_u64(), Some(3));
//!
//! sim.flip_state(ctr, 7); // SEU in the MSB
//! sim.run_until(Time::from_ns(55))?;
//! assert_eq!(sim.value(q).to_u64(), Some(3 + 128));
//! # Ok::<(), amsfi_digital::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cells;
mod component;
mod netlist;
mod probe;
mod saboteur;
mod sim;
mod wheel;
pub mod word;

pub use component::{Component, ComponentClone, EvalContext};
pub use netlist::{ComponentId, MutantTarget, Netlist, PortSpec, SignalId};
pub use probe::InjectProbe;
pub use saboteur::DigitalSaboteur;
pub use sim::{SimError, Simulator};
pub use word::{
    BatchReport, InjectTarget, LaneOutcome, LaneWatch, WordBatchSimulator, WordComponent,
    WordEvalContext, GOLDEN_LANE,
};
