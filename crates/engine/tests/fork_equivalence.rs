//! PR 2 acceptance property, fuzzed: for random injection instants on the
//! PLL, random loop-filter strikes and random SEUs, a `--checkpoint` engine
//! run (fork at tᵢ from the golden prefix) at one and at three workers
//! produces a `cases.csv` byte-identical to the from-scratch run's.
//! `AMSFI_FUZZ_SEEDS` sets how many random campaigns are drawn.
//!
//! Identity holds by construction — both paths advance the simulator
//! through the same distinct-injection-instant stop sequence, so the
//! adaptive-step analog kernel takes the same step grid — and this test is
//! what keeps that construction honest.
//!
//! The second half holds the mixed cut to the same oracle: a fork whose
//! fault cannot reach the analog half replays the tape of an earlier fork
//! of its snapshot (DESIGN.md "Mixed cut"), and must still book what the
//! from-scratch run books — whichever case led, and also when the follower
//! cannot stay on the tape's grid and falls back.
//!
//! The catalog's `adc-flash` is held to it too, trace by trace, on a few of
//! its input strikes and register SEUs.

use amsfi_analog::{blocks, AnalogCircuit, AnalogSolver, NodeKind};
use amsfi_circuits::pll::{self, names, PllConfig};
use amsfi_core::{report, ClassifySpec, FaultCase};
use amsfi_digital::{Component, EvalContext, Netlist, Simulator};
use amsfi_engine::telemetry::Telemetry;
use amsfi_engine::{
    campaigns, Campaign, CaseCtx, Engine, EngineConfig, EngineReport, Shard, TapeSlot,
};
use amsfi_faults::TrapezoidPulse;
use amsfi_mixed::MixedSimulator;
use amsfi_waves::{Logic, Time, Tolerance};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What one case of a fast-PLL-with-payload campaign does at its instant:
/// a strike on the loop filter, or an SEU in one of the 22 memorised bits
/// — 6 in the loop (PFD, divider), 16 in the payload behind the cut.
#[derive(Clone, Copy)]
enum PllFault {
    Strike(TrapezoidPulse),
    Flip(usize),
}

/// The fast PLL with its payload, one case per `(instant, fault)`, built
/// through [`Campaign::forked`].
fn pll_fault_campaign(name: &str, faults: Vec<(Time, PllFault)>, t_end: Time) -> Campaign {
    let config = PllConfig {
        payload: true,
        ..PllConfig::fast()
    };
    let targets = pll::build(&config).mixed.digital().mutant_targets();
    assert_eq!(targets.len(), 22);
    let cases = faults
        .iter()
        .map(|&(at, fault)| match fault {
            PllFault::Strike(pulse) => FaultCase::new(format!("icp {pulse}"), at),
            PllFault::Flip(gi) => FaultCase::new(format!("{} @ {at}", targets[gi]), at),
        })
        .collect();
    let mut outputs: Vec<String> = (0..8).map(|i| format!("{}[{i}]", names::COUNT)).collect();
    outputs.push(names::SHIFT_OUT.to_owned());
    let spec = ClassifySpec::new((Time::ZERO, t_end), outputs)
        .with_internals(vec![names::FB.to_owned(), names::VCTRL.to_owned()])
        .with_tolerance(Tolerance::new(0.05, 0.01))
        .with_digital_skew(Time::from_ns(2));
    Campaign::forked(
        name,
        spec,
        cases,
        t_end,
        move |_ctx: &CaseCtx| {
            let mut bench = pll::build(&config);
            bench.monitor_standard();
            Ok(bench)
        },
        move |bench: &mut pll::PllBench, i| {
            match faults[i] {
                (at, PllFault::Strike(pulse)) => bench.arm_saboteur(Arc::new(pulse), at),
                (_, PllFault::Flip(gi)) => {
                    let t = &targets[gi];
                    bench.mixed.digital_mut().flip_state(t.component, t.bit);
                }
            }
            Ok(())
        },
    )
}

/// The fast PLL with its payload. At every instant: one paper-pulse strike
/// on the loop filter and an SEU in each of the 22 memorised bits, ordered
/// within the instant by a shuffle drawn from `seed`, so any of them may
/// come first and lead.
fn pll_payload_campaign(instants: &[Time], seed: u64, t_end: Time) -> Campaign {
    let pulse = TrapezoidPulse::from_ma_ps(10.0, 100, 100, 300).expect("paper pulse");
    let mut state = seed | 1;
    let mut draw = |below: usize| {
        // xorshift64: any fixed permutation per seed will do.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % below as u64) as usize
    };
    let mut faults = Vec::new();
    for &at in instants {
        let mut here: Vec<PllFault> = (0..22).map(PllFault::Flip).collect();
        here.push(PllFault::Strike(pulse));
        for i in (1..here.len()).rev() {
            here.swap(i, draw(i + 1));
        }
        faults.extend(here.into_iter().map(|fault| (at, fault)));
    }
    pll_fault_campaign("pll-cut-equivalence", faults, t_end)
}

fn assert_same_cases(oracle: &EngineReport, report: &EngineReport, what: &str) {
    assert_eq!(oracle.result.golden, report.result.golden, "{what}");
    assert_eq!(
        oracle.result.cases.len(),
        report.result.cases.len(),
        "{what}"
    );
    for (a, b) in oracle.result.cases.iter().zip(&report.result.cases) {
        assert_eq!(a, b, "{what}: case {} diverged between paths", a.case);
    }
}

/// `campaign` forked at one and at three workers, each run checked against
/// the from-scratch run.
fn forked_runs(campaign: &Campaign) -> [EngineReport; 2] {
    let scratch = Engine::new(EngineConfig::default().with_workers(2))
        .run(campaign)
        .expect("scratch run");
    [1, 3].map(|workers| {
        let config = EngineConfig::default().with_workers(workers);
        let forked = Engine::new(config.with_checkpoint(true))
            .run(campaign)
            .expect("checkpointed run");
        assert_same_cases(&scratch, &forked, &format!("{workers} worker(s)"));
        forked
    })
}

/// A divider whose clock-to-output delay depends on its state: an SEU moves
/// its later events in time — and with them where the solver's steps are
/// cut, the one thing a clean analog half still takes from the fault.
#[derive(Debug, Clone)]
struct JitteryDivider {
    count: u64,
    prev_clk: Logic,
}

impl Component for JitteryDivider {
    fn eval(&mut self, ctx: &mut EvalContext<'_>) {
        let clk = ctx.input_bit(0);
        if self.prev_clk == Logic::Zero && clk == Logic::One {
            self.count = (self.count + 1) % 16;
            let delay = Time::from_ps(700 * (1 + self.count as i64 % 4));
            ctx.drive_bit(0, Logic::from_bool(self.count >= 8), delay);
        }
        self.prev_clk = clk;
    }

    fn state_bits(&self) -> usize {
        4
    }

    fn flip_state_bit(&mut self, bit: usize) {
        self.count ^= 1 << bit;
    }
}

/// A digitized 10 MHz sine clocking a [`JitteryDivider`]; case `i` flips
/// bit `bits[i]` of its count at `at`. No level driver: every case has a
/// clean analog half, so every case after the first tries to follow.
fn jittery_campaign(bits: Vec<usize>, at: Time, t_end: Time) -> Campaign {
    let cases = (bits.iter().enumerate())
        .map(|(i, bit)| FaultCase::new(format!("div.bit{bit} #{i}"), at))
        .collect();
    let spec = ClassifySpec::new((Time::ZERO, t_end), vec!["out".to_owned()]);
    Campaign::forked(
        "jittery-divider",
        spec,
        cases,
        t_end,
        |_ctx: &CaseCtx| {
            let mut ckt = AnalogCircuit::new();
            let sine = ckt.node("sine", NodeKind::Voltage);
            ckt.add("src", blocks::SineSource::new(10e6, 2.5, 2.5), &[], &[sine]);
            let mut net = Netlist::new();
            let clk = net.signal("clk", 1);
            let out = net.signal("out", 1);
            let div = JitteryDivider {
                count: 0,
                prev_clk: Logic::Unknown,
            };
            net.add("div", div, &[clk], &[out]);
            let solver = AnalogSolver::new(ckt, Time::from_ns(2));
            let mut mixed = MixedSimulator::new(Simulator::new(net), solver);
            mixed.bind_digitizer("sine", "clk", 2.5, 0.2);
            mixed.digital_mut().monitor_name("out");
            mixed.analog_mut().monitor_name("sine");
            Ok(mixed)
        },
        move |mixed: &mut MixedSimulator, i| {
            let div = mixed.digital().component_id("div").ok_or("no divider")?;
            mixed.digital_mut().flip_state(div, bits[i]);
            Ok(())
        },
    )
}

#[test]
fn follower_off_the_grid_falls_back_and_still_matches_scratch() {
    // Bit 2 leaves the delay sequence (count mod 4) alone, bits 0 and 1
    // shift it: after the bit-2 leader, the second bit-2 case stays on the
    // tape and every other case leaves its grid at the first moved event.
    let campaign = jittery_campaign(
        vec![2, 2, 0, 1, 3, 0],
        Time::from_fs(437_123_457),
        Time::from_us(2),
    );
    let scratch = Engine::new(EngineConfig::default().with_workers(1))
        .run(&campaign)
        .expect("scratch run");
    let events_path = std::env::temp_dir().join(format!(
        "amsfi-fork-equivalence-{}-left-grid.jsonl",
        std::process::id()
    ));
    let telemetry = Telemetry::builder()
        .events_path(&events_path)
        .build()
        .expect("open events stream");
    let forked = Engine::new(
        EngineConfig::default()
            .with_workers(1)
            .with_checkpoint(true)
            .with_telemetry(telemetry.clone()),
    )
    .run(&campaign)
    .expect("checkpointed run");
    telemetry.close();
    let events = std::fs::read_to_string(&events_path).expect("read events stream");
    std::fs::remove_file(&events_path).ok();

    assert_same_cases(&scratch, &forked, "jittery divider");
    assert_eq!(forked.path, "fork");
    // Bit 3 shifts nothing either (8 = 0 mod 4): it follows too.
    assert_eq!((forked.stats.followed, forked.stats.fallbacks), (2, 3));
    let fallbacks: Vec<&str> = events
        .lines()
        .filter(|l| l.contains(r#""kind":"checkpoint","name":"fallback""#))
        .collect();
    assert_eq!(fallbacks.len(), 3, "{events}");
    assert!(
        fallbacks.iter().all(|l| l.contains("left-grid")),
        "{fallbacks:?}"
    );
    let followed = events
        .lines()
        .filter(|l| l.contains(r#""kind":"span","name":"case""#))
        .filter(|l| l.contains(r#""followed":"437123457""#))
        .count();
    assert_eq!(followed, 2, "{events}");
}

#[test]
fn adc_flash_forks_trace_what_scratch_runs_trace() {
    // 96 input strikes, pulse-major over 8 instants, then 96 register SEUs
    // cycling over the same instants. Picked in stop order, with two SEUs
    // per stop where the list has them back to back, so the second may
    // follow the first one's tape through the worker's one slot.
    let campaign = campaigns::build("adc-flash", None).expect("catalog campaign");
    let strikes = campaign.cases.len() / 2;
    let mut picks = vec![0, 13, 50, 95, 96, 104, 101, 109, 191];
    picks.sort_by_key(|&i| (campaign.cases[i].injected_at, i));
    let spec = &campaign.fork;
    let mut ladder = BTreeMap::new();
    let golden = (spec.golden)(&CaseCtx::detached(None), &spec.stops, &mut |t, snap| {
        ladder.insert(t, snap);
    })
    .expect("golden run");
    let tapes = TapeSlot::default();
    let mut moved = [false; 2];
    for i in picks {
        let case = &campaign.cases[i];
        let scratch = (campaign.runner)(&CaseCtx::detached(Some(i))).expect("scratch run");
        let rung = ladder[&case.injected_at].clone_snapshot();
        let forked = (spec.fork)(&CaseCtx::detached(Some(i)), rung, &tapes).expect("forked run");
        assert!(scratch == forked, "case {i} ({}) diverged", case.label);
        moved[usize::from(i >= strikes)] |= forked != golden;
    }
    assert_eq!(moved, [true, true], "a strike and an SEU must each show");

    // And through the engine, on either plan: one stripe of the list, the
    // register SEUs at one instant, and all of them in catalog order. An
    // SEU cannot reach the analog half (the flash back end feeds nothing
    // back), and a worker claims cases in instant order, so on one worker
    // the first SEU at each instant leads and the others follow its tape.
    let n = campaign.cases.len();
    let one_stop: Vec<usize> = (strikes..n).step_by(8).collect();
    let elsewhere = (0..n).filter(|i| !one_stop.contains(i)).collect();
    for (config, followers) in [
        (
            EngineConfig::default().with_shard(Shard::new(0, 12).expect("a shard")),
            None,
        ),
        (
            EngineConfig::default().with_completed(elsewhere),
            Some(one_stop.len() - 1),
        ),
        (
            // 96 SEUs over 8 instants: 8 lead, 88 follow.
            EngineConfig::default().with_completed((0..strikes).collect()),
            Some(n - strikes - spec.stops.len()),
        ),
    ] {
        let config = config.with_workers(1);
        let scratch = Engine::new(config.clone()).run(&campaign).expect("scratch");
        let forked = Engine::new(config.with_checkpoint(true))
            .run(&campaign)
            .expect("checkpointed run");
        assert_eq!((forked.path, forked.stats.fallbacks), ("fork", 0));
        if let Some(followers) = followers {
            assert_eq!(forked.stats.followed, followers);
        }
        assert_eq!(
            report::cases_csv(&scratch.result),
            report::cases_csv(&forked.result)
        );
    }
}

#[test]
fn an_observed_fork_stays_mixed() {
    // `--early-abort` installs an observer on every attempt; an observer is
    // promised a trace in the making, so such a run neither leads nor
    // follows: it books what the observed from-scratch run books (of a
    // sealed verdict, class, onset and affected set are the exact part).
    let t_end = Time::from_us(6);
    let campaign = pll_payload_campaign(&[Time::from_fs(2_345_678_901)], 7, t_end);
    let run = |checkpoint, early_abort| {
        Engine::new(
            EngineConfig::default()
                .with_workers(1)
                .with_checkpoint(checkpoint)
                .with_early_abort(early_abort),
        )
        .run(&campaign)
        .expect("engine run")
    };
    let unobserved = run(true, false);
    assert_eq!(
        (unobserved.stats.followed, unobserved.stats.fallbacks),
        (15, 0)
    );
    let observed = run(true, true);
    assert_eq!((observed.stats.followed, observed.stats.fallbacks), (0, 0));
    let scratch = run(false, true);
    for (a, b) in scratch.result.cases.iter().zip(&observed.result.cases) {
        let (a, b) = (&a.outcome, &b.outcome);
        assert_eq!(
            (a.class, a.error_onset, &a.affected),
            (b.class, b.error_onset, &b.affected)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn followed_pll_runs_equal_scratch_runs(
        instants_fs in prop::collection::vec(1_000_000_000i64..5_500_000_000, 3..=4),
        seed in any::<u64>(),
    ) {
        let t_end = Time::from_us(6);
        let instants: Vec<Time> = instants_fs.iter().map(|&fs| Time::from_fs(fs)).collect();
        let campaign = pll_payload_campaign(&instants, seed, t_end);
        for forked in forked_runs(&campaign) {
            prop_assert!(forked.stats.followed >= 1, "nobody followed");
            prop_assert_eq!(forked.stats.fallbacks, 0);
        }
    }
}

proptest! {
    // Three random campaigns, or `AMSFI_FUZZ_SEEDS` (ci.sh widens it).
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("AMSFI_FUZZ_SEEDS").map_or(3, |n| n.parse().expect("a campaign count"))
    ))]

    /// Random faults on the fast PLL with its payload, forked at one and at
    /// three workers — concurrent forks off the one golden ladder — against
    /// the from-scratch runs: every case result, and so `cases.csv`, equal.
    #[test]
    fn forked_pll_runs_equal_scratch_runs(
        instants_fs in prop::collection::vec(1_000_000_000i64..5_500_000_000, 1..=3),
        draws in prop::collection::vec(
            (
                (0usize..3, 0u32..3),
                (any::<bool>(), 10i64..=200),
                (40i64..=180, 40i64..=180, 80i64..=1_000),
                0usize..22,
            ),
            3..=6,
        ),
    ) {
        // Per case one of the instants, then one time in three an SEU on
        // one of the 22 bits, otherwise a trapezoid on the loop filter:
        // sign, 1-20 mA, rise and fall 40-180 ps, a plateau of 80-1000 ps.
        let faults = draws
            .iter()
            .map(|&((pick, kind), (negative, deci_ma), (rt, ft, plateau), bit)| {
                let at = Time::from_fs(instants_fs[pick % instants_fs.len()]);
                let fault = if kind == 0 {
                    PllFault::Flip(bit)
                } else {
                    let pa = deci_ma as f64 / if negative { -10.0 } else { 10.0 };
                    let pulse = TrapezoidPulse::from_ma_ps(pa, rt, ft, rt + plateau)
                        .expect("a valid trapezoid");
                    PllFault::Strike(pulse)
                };
                (at, fault)
            })
            .collect();
        let campaign = pll_fault_campaign("pll-fork-fuzz", faults, Time::from_us(6));
        for forked in forked_runs(&campaign) {
            prop_assert_eq!(forked.stats.fallbacks, 0);
        }
    }
}
