//! The recording a leading run makes of its analog half.

use amsfi_digital::SignalId;
use amsfi_waves::{Logic, Time, Trace};

/// The most sync steps a tape reserves room for up front (4 MiB).
const MAX_RESERVED: usize = 1 << 18;

/// A digitizer edge on an [`AnalogTape`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapedEdge {
    /// Index into [`AnalogTape::steps`] of the sync step that detected it.
    pub(crate) step: usize,
    pub(crate) signal: SignalId,
    pub(crate) at: Time,
    pub(crate) level: Logic,
}

/// The analog half of one mixed run from a fork point to its horizon, as
/// [`MixedSimulator::lead_to`](crate::MixedSimulator::lead_to) recorded it:
/// everything of that half the digital side ever sees (the synchronisation
/// grid and the digitizer edges) and everything a trace reader sees (the
/// analog waves). A fork of the same snapshot whose fault cannot reach the
/// analog half either replays it with
/// [`MixedSimulator::follow`](crate::MixedSimulator::follow).
#[derive(Debug)]
pub struct AnalogTape {
    pub(crate) start: Time,
    pub(crate) end: Time,
    /// Per sync step, in order: the instant it landed on and the solver's
    /// proposed timestep it was cut from.
    pub(crate) steps: Vec<(Time, Time)>,
    /// Digitizer edges in injection order.
    pub(crate) edges: Vec<TapedEdge>,
    /// The analog trace at `end`, golden prefix included.
    pub(crate) waves: Trace,
}

impl AnalogTape {
    /// An empty tape over `[start, end]`.
    pub(crate) fn new(start: Time, end: Time) -> Self {
        AnalogTape {
            start,
            end,
            steps: Vec::new(),
            edges: Vec::new(),
            waves: Trace::new(),
        }
    }

    /// Makes room for the whole span at steps of about `typical_dt`, so
    /// that recording a run does not regrow the tape by doubling.
    pub(crate) fn reserve(&mut self, typical_dt: Time) {
        let span = (self.end - self.start).as_fs().max(0);
        let steps = span / typical_dt.as_fs().max(1);
        // An eighth over: digital events cut some steps short. Capped, so a
        // momentarily tiny step cannot reserve the horizon at that rate.
        let steps = usize::try_from(steps + steps / 8).map_or(MAX_RESERVED, |n| n + 16);
        self.steps.reserve_exact(steps.min(MAX_RESERVED));
    }
}
