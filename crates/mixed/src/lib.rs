//! Mixed-mode co-simulation: the kernel that replaces the paper's
//! commercial VHDL-AMS simulator (ADVance-MS).
//!
//! [`MixedSimulator`] runs an event-driven digital netlist
//! ([`amsfi_digital::Simulator`]) and a continuous-time analog circuit
//! ([`amsfi_analog::AnalogSolver`]) in lock-step. Values cross the boundary
//! through two converters:
//!
//! * a **digitizer** (analog → digital): a threshold comparator — the
//!   "Digitizer (Comparator, Threshold 2.5 V)" of the paper's Fig. 5 — with
//!   linear interpolation of the crossing instant, so analog-derived clock
//!   edges keep sub-step timing accuracy;
//! * a **level driver** (digital → analog): a zero-order hold mapping logic
//!   levels onto rail voltages.
//!
//! See [`MixedSimulator`] for a complete runnable example.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod boundary;
mod sim;
mod tape;

pub use boundary::{DetectedEdge, Digitizer, LevelDriver};
pub use sim::MixedSimulator;
pub use tape::AnalogTape;
