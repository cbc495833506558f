//! The deterministic toy campaign both service test suites run.

use amsfi_core::{ClassifySpec, FaultCase};
use amsfi_engine::{Campaign, CaseCtx, Stage};
use amsfi_waves::{ForkableSim, Logic, Time, Trace};

/// A simulator with nothing to simulate: "out" is low from time zero, and
/// an injection writes its own later edges straight into the trace.
#[derive(Debug, Clone)]
pub struct ToySim {
    now: Time,
    trace: Trace,
}

impl ForkableSim for ToySim {
    type Error = std::convert::Infallible;

    fn advance_to(&mut self, t: Time) -> Result<(), Self::Error> {
        self.now = self.now.max(t);
        Ok(())
    }

    fn current_time(&self) -> Time {
        self.now
    }

    fn snapshot_trace(&self) -> Trace {
        self.trace.clone()
    }
}

/// A fast, fully deterministic campaign of `n` cases at 100 ns: index 4
/// sticks "out" high (failure), odd indices glitch and recover
/// (transient), the rest are untouched (no-effect). `on_inject(i)` runs
/// as case `i` is armed, once per attempt.
pub fn toy_campaign(n: usize, on_inject: impl Fn(usize) + Send + Sync + 'static) -> Campaign {
    let window = (Time::ZERO, Time::from_ns(1000));
    let cases = (0..n)
        .map(|i| FaultCase::new(format!("bit{i}"), Time::from_ns(100)))
        .collect();
    Campaign::forked(
        "toy",
        ClassifySpec::new(window, vec!["out".to_owned()]),
        cases,
        window.1,
        |ctx: &CaseCtx| {
            ctx.stage(Stage::Build);
            let mut trace = Trace::new();
            trace.record_digital("out", Time::ZERO, Logic::Zero)?;
            Ok(ToySim {
                now: Time::ZERO,
                trace,
            })
        },
        move |sim: &mut ToySim, i| {
            on_inject(i);
            if i == 4 || i % 2 == 1 {
                sim.trace
                    .record_digital("out", Time::from_ns(200), Logic::One)?;
            }
            if i != 4 && i % 2 == 1 {
                sim.trace
                    .record_digital("out", Time::from_ns(400), Logic::Zero)?;
            }
            Ok(())
        },
    )
}
