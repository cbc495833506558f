//! Signal values, waveforms and measurements for the `amsfi` mixed-signal
//! fault-injection framework.
//!
//! This crate provides the vocabulary shared by every other `amsfi` crate:
//!
//! * [`Time`] — integer femtosecond simulation time (exact event ordering
//!   from 40 ps pulse edges up to millisecond transients);
//! * [`Logic`] and [`LogicVector`] — IEEE 1164-style nine-valued logic with
//!   driver resolution, the value system of the digital simulator;
//! * [`DigitalWave`], [`AnalogWave`] and [`Trace`] — recorded waveforms, the
//!   raw material of fault classification. Readers look signals up by
//!   name; kernels resolve each monitored name to a [`DigitalSlot`] /
//!   [`AnalogSlot`] once and record through it, so a simulated time point
//!   builds no name and touches no allocator (see [`Trace`]);
//! * [`measure`] — periods, frequencies, threshold crossings, deviation and
//!   perturbation-duration metrics (the quantities read off the paper's
//!   figures);
//! * [`Tolerance`] and the comparison functions — golden-vs-faulty matching
//!   with the analog tolerance required by the paper's Section 4.1.
//!
//! # Example
//!
//! Measuring how long a transient perturbs a clock, as in the paper's Fig. 6:
//!
//! ```
//! use amsfi_waves::{measure, DigitalWave, Logic, Time};
//!
//! let mut clk = DigitalWave::new();
//! let mut t = Time::ZERO;
//! for period_ns in [20i64, 20, 22, 21, 20, 20] {
//!     clk.push(t, Logic::One)?;
//!     clk.push(t + Time::from_ns(period_ns) / 2, Logic::Zero)?;
//!     t += Time::from_ns(period_ns);
//! }
//! clk.push(t, Logic::One)?;
//!
//! let (perturbed, worst) = measure::perturbed_cycles(
//!     &clk,
//!     Time::ZERO,
//!     t,
//!     Time::from_ns(20),
//!     Time::from_ps(500),
//! );
//! assert_eq!(perturbed, 2);
//! assert_eq!(worst, Some(Time::from_ns(22)));
//! # Ok::<(), amsfi_waves::PushOutOfOrderError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compare;
mod fork;
mod guard;
mod logic;
pub mod measure;
mod stream;
mod time;
mod toggles;
mod trace;
pub mod vcd;
mod vector;
mod wave;

pub use amsfi_telemetry::KernelMetrics;
pub use compare::{
    baseline, compare_analog, compare_digital, compare_digital_with_skew, MismatchInterval,
    SignalComparison, Tolerance,
};
pub use fork::{Checkpoint, Fnv1a, Follow, ForkableSim, SimTape};
pub use guard::{CancelToken, GuardViolation, ParseGuardViolationError, SimBudget, CLOCK_STRIDE};
pub use logic::{Logic, LogicPlanes, LANES};
pub use stream::{
    AnalogStream, ClosedMismatch, DigitalStream, SimObserver, StreamState, ToggleStream, TraceView,
    OBSERVER_STRIDE,
};
pub use time::Time;
pub use toggles::MismatchToggles;
pub use trace::{AnalogSlot, DigitalSlot, Trace};
pub use vector::{LogicVector, ParseLogicVectorError};
pub use wave::{AnalogWave, DigitalWave, PushOutOfOrderError};
