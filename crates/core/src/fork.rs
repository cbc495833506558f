//! The stop sequence of golden-prefix checkpoint & fork execution.
//!
//! A fault injected at tᵢ cannot perturb anything before tᵢ, so a campaign
//! can run the golden simulation once, snapshot it at each distinct
//! injection instant and fork every faulty run from its snapshot (the
//! `amsfi-engine` crate's `--checkpoint` mode). Byte-identity with
//! from-scratch runs holds by construction, not luck: adaptive-step solvers
//! clamp their final partial step at every `advance_to` stop, which shifts
//! the subsequent step grid, so a fork at t only equals a scratch run that
//! paused at the same stops — every path drives its simulator through
//! [`injection_stops`] up to the case's own injection time.

use crate::campaign::FaultCase;
use amsfi_waves::Time;

/// The sorted, distinct injection instants of a case list, clamped to the
/// horizon — the stop sequence the golden run snapshots at, and the one a
/// scratch run must share to reproduce a fork byte-for-byte.
pub fn injection_stops(cases: &[FaultCase], t_end: Time) -> Vec<Time> {
    let mut stops: Vec<Time> = cases.iter().map(|c| c.injected_at.min(t_end)).collect();
    stops.sort();
    stops.dedup();
    stops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_stops_are_sorted_distinct_and_clamped() {
        let cases = vec![
            FaultCase::new("a", Time::from_ns(30)),
            FaultCase::new("b", Time::from_ns(10)),
            FaultCase::new("c", Time::from_ns(30)),
            FaultCase::new("d", Time::from_ns(99)),
        ];
        assert_eq!(
            injection_stops(&cases, Time::from_ns(40)),
            vec![Time::from_ns(10), Time::from_ns(30), Time::from_ns(40)]
        );
    }
}
