//! The structured simulation-failure taxonomy.
//!
//! A faulty case can fail to *simulate* — the kernel diverges to NaN, its
//! adaptive timestep collapses, its step budget runs out, its wall-clock
//! deadline expires, or the runner panics outright. These are not error
//! propagation verdicts (the paper's no-effect / latent / transient /
//! failure classes); they are outcomes of the simulation infrastructure
//! itself, the category semi-formal flows report as "simulator failure".
//! [`SimFailure`] names them, and [`FaultClass::SimFailure`] carries them
//! through classification, reports and the campaign journal as a distinct
//! class instead of letting IEEE comparison semantics or a hung thread
//! decide.
//!
//! The [`Display`](std::fmt::Display) form round-trips through
//! [`FromStr`](std::str::FromStr) (times as raw femtosecond integers), so
//! journals and quarantine records can store a failure losslessly.
//!
//! [`FaultClass::SimFailure`]: crate::FaultClass::SimFailure

use amsfi_waves::{GuardViolation, Time};
use std::fmt;
use std::str::FromStr;

/// Why a case failed to simulate (as opposed to simulating a faulty
/// behaviour).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimFailure {
    /// A monitored signal or solver node took a NaN or infinite value.
    NonFinite {
        /// Name of the offending signal.
        signal: String,
        /// Time of the first non-finite sample.
        t: Time,
    },
    /// The kernel's step budget ran out before the horizon.
    StepBudgetExhausted {
        /// Steps consumed when the budget tripped.
        steps: u64,
        /// Simulation time reached.
        t: Time,
    },
    /// The adaptive timestep collapsed below the configured floor.
    TimestepCollapse {
        /// The offending proposed step.
        dt: Time,
        /// The configured floor.
        min_dt: Time,
        /// Simulation time of the collapse.
        t: Time,
    },
    /// The attempt's wall-clock deadline expired (or it was cancelled).
    Deadline {
        /// Simulation time reached when the deadline was observed.
        t: Time,
    },
    /// The case runner panicked.
    Panicked {
        /// The panic payload, best-effort stringified.
        message: String,
    },
}

impl fmt::Display for SimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimFailure::NonFinite { signal, t } => {
                write!(f, "non-finite signal={signal} t={}", t.as_fs())
            }
            SimFailure::StepBudgetExhausted { steps, t } => {
                write!(f, "step-budget-exhausted steps={steps} t={}", t.as_fs())
            }
            SimFailure::TimestepCollapse { dt, min_dt, t } => write!(
                f,
                "timestep-collapse dt={} min={} t={}",
                dt.as_fs(),
                min_dt.as_fs(),
                t.as_fs()
            ),
            SimFailure::Deadline { t } => write!(f, "deadline t={}", t.as_fs()),
            SimFailure::Panicked { message } => write!(f, "panicked {message}"),
        }
    }
}

impl std::error::Error for SimFailure {}

/// Error parsing a [`SimFailure`] from its display form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSimFailureError(String);

impl fmt::Display for ParseSimFailureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unparseable sim failure {:?}", self.0)
    }
}

impl std::error::Error for ParseSimFailureError {}

fn parse_fs(s: &str) -> Option<Time> {
    s.parse::<i64>().ok().map(Time::from_fs)
}

impl FromStr for SimFailure {
    type Err = ParseSimFailureError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseSimFailureError(s.to_owned());
        if let Some(rest) = s.strip_prefix("non-finite signal=") {
            // The signal name may itself contain spaces or `=`; the time is
            // always the final ` t=` field.
            let (signal, t) = rest.rsplit_once(" t=").ok_or_else(err)?;
            return Ok(SimFailure::NonFinite {
                signal: signal.to_owned(),
                t: parse_fs(t).ok_or_else(err)?,
            });
        }
        if let Some(rest) = s.strip_prefix("step-budget-exhausted steps=") {
            let (steps, t) = rest.split_once(" t=").ok_or_else(err)?;
            return Ok(SimFailure::StepBudgetExhausted {
                steps: steps.parse().map_err(|_| err())?,
                t: parse_fs(t).ok_or_else(err)?,
            });
        }
        if let Some(rest) = s.strip_prefix("timestep-collapse dt=") {
            let (dt, rest) = rest.split_once(" min=").ok_or_else(err)?;
            let (min_dt, t) = rest.split_once(" t=").ok_or_else(err)?;
            return Ok(SimFailure::TimestepCollapse {
                dt: parse_fs(dt).ok_or_else(err)?,
                min_dt: parse_fs(min_dt).ok_or_else(err)?,
                t: parse_fs(t).ok_or_else(err)?,
            });
        }
        if let Some(t) = s.strip_prefix("deadline t=") {
            return Ok(SimFailure::Deadline {
                t: parse_fs(t).ok_or_else(err)?,
            });
        }
        if let Some(message) = s.strip_prefix("panicked ") {
            return Ok(SimFailure::Panicked {
                message: message.to_owned(),
            });
        }
        Err(err())
    }
}

impl From<GuardViolation> for SimFailure {
    /// Lifts a kernel-level guard violation into the campaign taxonomy.
    /// Cooperative cancellation is reported as a deadline: the only caller
    /// of `cancel()` is the engine's timeout watchdog. (A retired run is
    /// booked with its watch's verdict, never through this taxonomy.)
    fn from(v: GuardViolation) -> Self {
        match v {
            GuardViolation::NonFinite { signal, t } => SimFailure::NonFinite { signal, t },
            GuardViolation::StepBudgetExhausted { steps, t } => {
                SimFailure::StepBudgetExhausted { steps, t }
            }
            GuardViolation::TimestepCollapse { dt, min_dt, t } => {
                SimFailure::TimestepCollapse { dt, min_dt, t }
            }
            GuardViolation::Deadline { t }
            | GuardViolation::Cancelled { t }
            | GuardViolation::Retired { t } => SimFailure::Deadline { t },
        }
    }
}

impl SimFailure {
    /// Best-effort extraction of a `SimFailure` from a boxed runner error:
    /// a direct [`SimFailure`], a kernel [`GuardViolation`] (possibly
    /// wrapped one level), or an error whose display form parses as one.
    pub fn from_error(error: &(dyn std::error::Error + 'static)) -> Option<SimFailure> {
        if let Some(f) = error.downcast_ref::<SimFailure>() {
            return Some(f.clone());
        }
        if let Some(v) = error.downcast_ref::<GuardViolation>() {
            return Some(SimFailure::from(v.clone()));
        }
        if let Some(source) = error.source() {
            if let Some(f) = SimFailure::from_error(source) {
                return Some(f);
            }
        }
        error.to_string().parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<SimFailure> {
        vec![
            SimFailure::NonFinite {
                signal: "vctrl".to_owned(),
                t: Time::from_ns(170),
            },
            SimFailure::NonFinite {
                signal: "node a=b c".to_owned(), // hostile name round-trips too
                t: Time::ZERO,
            },
            SimFailure::StepBudgetExhausted {
                steps: 1_000_001,
                t: Time::from_us(3),
            },
            SimFailure::TimestepCollapse {
                dt: Time::from_fs(3),
                min_dt: Time::from_ps(1),
                t: Time::from_ns(9),
            },
            SimFailure::Deadline {
                t: Time::from_us(1),
            },
            SimFailure::Panicked {
                message: "index out of bounds: the len is 4".to_owned(),
            },
        ]
    }

    #[test]
    fn display_round_trips_through_from_str() {
        for f in all_variants() {
            let text = f.to_string();
            assert_eq!(text.parse::<SimFailure>().as_ref(), Ok(&f), "{text}");
        }
        assert!("gremlins".parse::<SimFailure>().is_err());
        assert!("deadline t=soon".parse::<SimFailure>().is_err());
    }

    #[test]
    fn guard_violations_lift_into_the_taxonomy() {
        let t = Time::from_ns(42);
        assert_eq!(
            SimFailure::from(GuardViolation::Cancelled { t }),
            SimFailure::Deadline { t }
        );
        assert_eq!(
            SimFailure::from(GuardViolation::StepBudgetExhausted { steps: 7, t }),
            SimFailure::StepBudgetExhausted { steps: 7, t }
        );
    }

    #[test]
    fn from_error_sees_through_boxes_and_text() {
        let direct: Box<dyn std::error::Error> = Box::new(SimFailure::Deadline {
            t: Time::from_ns(1),
        });
        assert!(SimFailure::from_error(direct.as_ref()).is_some());

        let guard: Box<dyn std::error::Error> = Box::new(GuardViolation::NonFinite {
            signal: "icp".to_owned(),
            t: Time::ZERO,
        });
        assert_eq!(
            SimFailure::from_error(guard.as_ref()),
            Some(SimFailure::NonFinite {
                signal: "icp".to_owned(),
                t: Time::ZERO
            })
        );

        // A stringly-typed error whose message is a guard display form.
        let text: Box<dyn std::error::Error> = "deadline t=5000".into();
        assert_eq!(
            SimFailure::from_error(text.as_ref()),
            Some(SimFailure::Deadline {
                t: Time::from_fs(5000)
            })
        );
        let other: Box<dyn std::error::Error> = "disk on fire".into();
        assert_eq!(SimFailure::from_error(other.as_ref()), None);
    }
}
