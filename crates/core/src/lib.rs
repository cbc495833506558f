//! The global SEU fault-injection flow for digital, analog and mixed-signal
//! circuits — the primary contribution of *Leveugle & Ammari, DATE 2004*.
//!
//! The flow (the paper's Fig. 3):
//!
//! 1. **Instrumentation** — digital blocks expose mutants (state-bit flips,
//!    [`amsfi_digital`]); analog blocks take saboteurs (current-pulse
//!    summation on interconnect nodes, [`amsfi_analog`]).
//! 2. **Fault-injection set-up** — [`plan`] builds the fault list: targets ×
//!    injection times × pulse parameter ranges.
//! 3. **Mixed-mode simulation** — each case runs in a fresh instance of the
//!    circuit (built by a caller-supplied closure), optionally in parallel
//!    ([`run_campaign_parallel`]).
//! 4. **Results analysis** — traces are compared against the golden run with
//!    an analog tolerance and classified ([`classify`], [`FaultClass`]).
//! 5. **Outputs** — failure reports ([`report`]) and the error-propagation
//!    behavioural model ([`PropagationModel`]).
//!
//! # Example
//!
//! A miniature digital campaign over a toy circuit (see `amsfi-bench` for
//! the full PLL campaigns of the paper's figures):
//!
//! ```
//! use amsfi_core::{plan, report, run_campaign, ClassifySpec, FaultCase, FaultClass};
//! use amsfi_digital::{cells, Netlist, Simulator};
//! use amsfi_waves::{Logic, Time};
//!
//! fn build() -> (Simulator, Vec<amsfi_digital::MutantTarget>) {
//!     let mut net = Netlist::new();
//!     let clk = net.signal("clk", 1);
//!     let rst = net.signal("rst", 1);
//!     let en = net.signal("en", 1);
//!     let q = net.signal("q", 4);
//!     net.add("ck", cells::ClockGen::new(Time::from_ns(10)), &[], &[clk]);
//!     net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
//!     net.add("e", cells::ConstVector::bit(Logic::One), &[], &[en]);
//!     net.add("ctr", cells::Counter::new(4, Time::ZERO), &[clk, rst, en], &[q]);
//!     let targets = net.mutant_targets();
//!     let mut sim = Simulator::new(net);
//!     sim.monitor_name("q");
//!     (sim, targets)
//! }
//!
//! let (_, targets) = build();
//! let at = Time::from_ns(55);
//! let cases: Vec<FaultCase> = targets
//!     .iter()
//!     .map(|t| FaultCase::new(t.to_string(), at))
//!     .collect();
//! let spec = ClassifySpec::new(
//!     (Time::ZERO, Time::from_us(1)),
//!     (0..4).map(|i| format!("q[{i}]")).collect(),
//! );
//! let result = run_campaign(&spec, cases, |case| {
//!     let (mut sim, targets) = build();
//!     if let Some(i) = case {
//!         sim.run_until(at)?;
//!         sim.flip_state(targets[i].component, targets[i].bit);
//!     }
//!     sim.run_until(Time::from_us(1))?;
//!     Ok(sim.into_trace())
//! })?;
//! // A counter never heals a flipped bit: every SEU is a failure.
//! assert_eq!(result.summary()[3], (FaultClass::Failure, 4));
//! println!("{}", report::summary_table(&result));
//! # Ok::<(), amsfi_core::RunError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
mod classify;
mod fork;
pub mod identity;
mod online;
pub mod plan;
mod propagation;
pub mod report;

pub use campaign::{
    run_campaign, run_campaign_parallel, CampaignResult, CaseResult, FaultCase, RunError,
};
pub use classify::{
    classify, CaseOutcome, ClassifySpec, FaultClass, Golden, MismatchClassifier,
    ParseFaultClassError,
};
pub use fork::injection_stops;
pub use identity::fingerprint;
pub use online::OnlineClassifier;
pub use propagation::{PropagationEdge, PropagationModel};
