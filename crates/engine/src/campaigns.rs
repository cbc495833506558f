//! The named case-study campaigns the `amsfi` CLI can run.
//!
//! Each builder returns a self-contained [`Campaign`] made by
//! [`Campaign::forked`] (or [`Campaign::forked_batch`]): the fault list, the
//! classification spec, a `build` closure that makes the fault-free circuit
//! and an `inject` closure that arms one case on it at its instant.
//!
//! `cpu` and `pll-digital` are also what the `ext_cpu_campaign` and
//! `ext_digital_campaign` study binaries in `crates/bench` run: their case
//! labels are `"<target> @ <time>"`, which those binaries' per-resource and
//! per-target tables are grouped by.

use crate::executor::{BatchSpec, Campaign, CaseCtx, Snapshot};
use crate::stats::Stage;
use crate::BoxError;
use amsfi_circuits::adc::{self, AdcInput};
use amsfi_circuits::cpu::{checksum_program, TinyCpu};
use amsfi_circuits::pll::{self, names};
use amsfi_core::{plan, ClassifySpec, FaultCase};
use amsfi_digital::{
    cells, BatchReport, DigitalSaboteur, InjectProbe, InjectTarget, LaneWatch, MutantTarget,
    Netlist, Simulator, WordBatchSimulator,
};
use amsfi_faults::{DigitalFault, DigitalFaultKind, TrapezoidPulse};
use amsfi_waves::{Checkpoint, ForkableSim, Logic, SimBudget, Time, Tolerance};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

impl Campaign {
    /// [`Campaign::forked`] for pure-digital campaigns, plus a
    /// [`BatchSpec`] so `--batch` runs case groups bit-parallel through
    /// one plane-valued [`WordBatchSimulator`] each.
    ///
    /// All three execution paths (scalar from-scratch, checkpoint fork,
    /// batch) share the same `build`/`inject` closures and position the
    /// simulator at exactly the case's injection instant before injecting,
    /// which is what keeps their traces byte-identical: the digital kernel
    /// is call-granularity invariant, so only the closure pair determines
    /// the result. The inject closure sees the machine through
    /// [`InjectTarget`], the mid-run mutation surface both kernels
    /// implement.
    ///
    /// The batch spec never builds a simulator: each group is handed its
    /// own copy of the fork spec's golden-run snapshot at (or before) the
    /// group's first injection instant, which its word machines fork from
    /// in turn, so the fault-free prefix is simulated once per run.
    ///
    /// Before a scalar or forked case runs, the engine may run `inject`
    /// once on an [`InjectProbe`] ([`BatchSpec::inert`]) over a simulator
    /// `build` made on the first ask and that nothing advances. So `inject`
    /// must write the same things for the same index on every call: a case
    /// whose dry run writes only unread state is booked golden unrun.
    pub fn forked_batch<B, I>(
        name: impl Into<String>,
        spec: ClassifySpec,
        cases: Vec<FaultCase>,
        t_end: Time,
        build: B,
        inject: I,
    ) -> Campaign
    where
        B: Fn(&CaseCtx) -> Result<Simulator, BoxError> + Send + Sync + 'static,
        I: Fn(&mut dyn InjectTarget, usize) -> Result<(), BoxError> + Send + Sync + 'static,
    {
        let build = Arc::new(build);
        let inject = Arc::new(inject);
        let case_stops: Vec<Time> = cases.iter().map(|c| c.injected_at.min(t_end)).collect();

        // The fault-free bench as built, made by the first probe (a batch
        // run never asks) and never advanced; `None` if `build` failed.
        let pristine: Arc<OnceLock<Option<Mutex<Simulator>>>> = Arc::default();
        let inert = {
            let (build, inject) = (Arc::clone(&build), Arc::clone(&inject));
            Arc::new(move |i: usize| {
                let built = || build(&CaseCtx::detached(None)).ok().map(Mutex::new);
                let Some(pristine) = pristine.get_or_init(built) else {
                    return false;
                };
                let pristine = pristine.lock().unwrap_or_else(PoisonError::into_inner);
                let mut probe = InjectProbe::new(&pristine);
                inject(&mut probe, i).is_ok() && probe.is_inert()
            })
        };

        let batch_run = {
            let inject = Arc::clone(&inject);
            Arc::new(
                move |ctx: &CaseCtx,
                      group: &[usize],
                      budget: SimBudget,
                      watch: Option<&mut LaneWatch<'_>>,
                      rung: Snapshot|
                      -> Result<BatchReport, BoxError> {
                    let mut golden = rung
                        .into_any()
                        .downcast::<Checkpoint<Simulator>>()
                        .map_err(|_| "snapshot does not hold this campaign's simulator type")?
                        .into_sim();
                    // The group's own budget, not the golden run's: its steps
                    // count from the fork instant, as a checkpoint fork's do.
                    golden.install_budget(ctx.budget().clone());
                    ctx.stage(Stage::Simulate);
                    let mut word = WordBatchSimulator::new(golden, t_end);
                    if let Some(metrics) = ctx.budget().metrics() {
                        word.set_metrics(Arc::clone(metrics));
                    }
                    for &i in group {
                        word.add_lane(case_stops[i]);
                    }
                    let inject = |lane, target: &mut dyn InjectTarget| {
                        inject(target, group[lane]).map_err(|e| e.to_string())
                    };
                    let setup =
                        |_, target: &mut dyn InjectTarget| target.set_budget(budget.clone());
                    let report = match watch {
                        Some(watch) => word.run_watched(inject, setup, watch),
                        None => word.run(inject, setup),
                    };
                    report.map_err(|e| Box::new(e) as BoxError)
                },
            )
        };

        let mut campaign = Campaign::forked(
            name,
            spec,
            cases,
            t_end,
            move |ctx: &CaseCtx| build(ctx),
            move |sim: &mut Simulator, i: usize| inject(sim, i),
        );
        campaign.batch = Some(BatchSpec {
            inert,
            run: batch_run,
        });
        campaign
    }
}

/// `(name, description)` of every campaign [`build`] understands.
pub fn catalog() -> [(&'static str, &'static str); 5] {
    [
        (
            "pll-sweep",
            "Fig. 8 current-pulse parameter sweep on the PLL loop filter \
             (paper's four sets + amplitude x width grid, 24 cases)",
        ),
        (
            "pll-digital",
            "exhaustive SEU campaign over the fast PLL's digital blocks and \
             payload (Section 3 digital flow)",
        ),
        (
            "adc-flash",
            "flash ADC sensitivity: analog input strikes vs digital SEUs \
             (the paper's mixed-signal future-work case)",
        ),
        (
            "cpu",
            "SEU campaign over a tiny accumulator CPU running a checksum \
             program (processor case study of reference [2])",
        ),
        (
            "cpu-set",
            "SET-pulse campaign on the CPU bench's reset line: narrow late \
             pulses, mostly logically masked (Section 3.2 saboteur flow; \
             the --batch showcase)",
        ),
    ]
}

/// Builds a named campaign, optionally truncated to its first `limit`
/// cases (handy for smoke tests; the truncation changes the campaign
/// fingerprint, so differently-limited journals never merge by accident).
/// Each builder truncates before it makes the campaign, so the golden run
/// stops only at the instants the remaining cases use.
pub fn build(name: &str, limit: Option<usize>) -> Option<Campaign> {
    let limit = limit.unwrap_or(usize::MAX);
    Some(match name {
        "pll-sweep" => pll_sweep(limit),
        "pll-digital" => pll_digital(limit),
        "adc-flash" => adc_flash(limit),
        "cpu" => cpu(limit),
        "cpu-set" => cpu_set(limit),
        _ => return None,
    })
}

/// The exhaustive SEU fault list `targets x times`, injection-time major:
/// case `i` flips `targets[i % targets.len()]` and is labelled
/// `"<target> @ <time>"`.
fn seu_cases(targets: &[MutantTarget], times: &[Time]) -> Vec<FaultCase> {
    let mut cases = Vec::with_capacity(targets.len() * times.len());
    for &at in times {
        for target in targets {
            cases.push(FaultCase::new(format!("{target} @ {at}"), at));
        }
    }
    cases
}

/// The Fig. 8 pulse list: the paper's four `(PA, RT, FT, PW)` sets plus the
/// amplitude x width grid at 100 ps edges.
fn fig8_pulses() -> Vec<(TrapezoidPulse, String)> {
    let mut pulses = Vec::new();
    for &(pa, rt, ft, pw) in &[
        (2.0, 100_i64, 100_i64, 300_i64),
        (8.0, 100, 100, 300),
        (10.0, 40, 40, 120),
        (10.0, 180, 180, 540),
    ] {
        let pulse = TrapezoidPulse::from_ma_ps(pa, rt, ft, pw).expect("paper set");
        pulses.push((pulse, format!("({pa} mA; {rt} ps; {ft} ps; {pw} ps)")));
    }
    for &pa in &[1.0, 2.0, 5.0, 10.0, 20.0] {
        for &pw in &[150_i64, 300, 600, 1200] {
            let pulse = TrapezoidPulse::from_ma_ps(pa, 100, 100, pw).expect("grid set");
            pulses.push((pulse, format!("({pa} mA; PW {pw} ps)")));
        }
    }
    pulses
}

fn pll_sweep(limit: usize) -> Campaign {
    const T_END: Time = Time::from_us(200);
    const T_INJECT: Time = Time::from_us(170);
    let pulses = fig8_pulses();
    let cases = pulses
        .iter()
        .map(|(_, label)| FaultCase::new(format!("icp {label}"), T_INJECT))
        .take(limit)
        .collect();
    let spec = ClassifySpec::new((Time::from_us(165), T_END), vec![names::F_OUT.to_owned()])
        .with_internals(vec![names::VCTRL.to_owned(), names::FB.to_owned()])
        .with_tolerance(Tolerance::new(0.05, 0.01))
        .with_digital_skew(Time::from_ns(2))
        // The PLL takes several microseconds to visibly re-lock (or visibly
        // fail to): divergence onsets trail the strike by up to ~5 us, so the
        // streaming classifier must hold the settle window longer than the
        // default recovery margin before calling a state final.
        .with_settle(Time::from_us(8));
    let pulses: Arc<Vec<(TrapezoidPulse, String)>> = Arc::new(pulses);
    // `Campaign::forked` arms the saboteur in place on a simulator already
    // positioned at T_INJECT instead of baking the fault into the build
    // (equivalent by `amsfi_circuits::pll` test
    // `arming_in_place_equals_arming_at_build`), which is what lets
    // `--checkpoint` fork every case from one golden prefix.
    Campaign::forked(
        "pll-sweep",
        spec,
        cases,
        T_END,
        |ctx: &CaseCtx| {
            ctx.stage(Stage::Build);
            let mut bench = pll::build(&pll::PllConfig::default());
            bench.monitor_standard();
            Ok(bench)
        },
        move |bench: &mut pll::PllBench, i| {
            bench.arm_saboteur(Arc::new(pulses[i].0), T_INJECT);
            Ok(())
        },
    )
}

fn pll_digital(limit: usize) -> Campaign {
    const T_END: Time = Time::from_us(30);
    let mut config = pll::PllConfig::fast();
    config.payload = true;

    let probe = pll::build(&config);
    let targets = probe.mixed.digital().mutant_targets();
    let times = plan::uniform_times(Time::from_us(12), Time::from_us(16), 4);

    let mut cases = seu_cases(&targets, &times);
    cases.truncate(limit);

    let mut outputs: Vec<String> = (0..8).map(|i| format!("{}[{i}]", names::COUNT)).collect();
    outputs.push(names::SHIFT_OUT.to_owned());
    let spec = ClassifySpec::new((Time::from_us(12), T_END), outputs)
        .with_internals(vec![names::FB.to_owned(), names::VCTRL.to_owned()])
        .with_tolerance(Tolerance::new(0.05, 0.01))
        .with_digital_skew(Time::from_ns(2));

    let targets = Arc::new(targets);
    Campaign::forked(
        "pll-digital",
        spec,
        cases,
        T_END,
        move |ctx: &CaseCtx| {
            ctx.stage(Stage::Build);
            let mut bench = pll::build(&config);
            bench.monitor_standard();
            Ok(bench)
        },
        move |bench: &mut pll::PllBench, i| {
            let target = &targets[i % targets.len()];
            bench
                .mixed
                .digital_mut()
                .flip_state(target.component, target.bit);
            Ok(())
        },
    )
}

fn adc_flash(limit: usize) -> Campaign {
    const T_END: Time = Time::from_us(10);
    let base = adc::FlashAdcConfig {
        input: AdcInput::Sine {
            freq_hz: 100e3,
            amplitude: 2.0,
            offset: 2.5,
        },
        ..adc::FlashAdcConfig::default()
    };
    let pulses = plan::pulse_grid(
        &[-10.0, -5.0, 5.0, 10.0],
        &[100],
        &[100],
        &[500, 20_000, 200_000],
    );
    let times = plan::random_times(Time::from_us(2), Time::from_us(8), 8, 11);
    let probe = adc::build_flash(&base);
    let targets = probe.mixed.digital().mutant_targets();
    let saboteur = probe.saboteur;

    // First the analog-surface strikes, pulse-major, then an equally sized
    // block of digital SEUs (cycling over the register bits), as in the
    // standalone `ext_adc_sensitivity` study.
    let mut cases = Vec::new();
    for p in &pulses {
        for &at in &times {
            cases.push(FaultCase::new(format!("input {p}"), at));
        }
    }
    let strikes = cases.len();
    for i in 0..strikes {
        let target = &targets[i % targets.len()];
        cases.push(FaultCase::new(target.to_string(), times[i % times.len()]));
    }
    cases.truncate(limit);

    let outputs = (0..3)
        .map(|i| format!("{}[{i}]", adc::FLASH_CODE))
        .collect();
    let spec = ClassifySpec::new((Time::from_us(1), T_END), outputs);

    // Over the bench's `MixedSimulator`. A strike arms the input saboteur
    // in place on a simulator already at its instant (equivalent by
    // `amsfi_circuits::adc` test `arming_in_place_equals_arming_at_build`),
    // as `pll-sweep` does.
    Campaign::forked(
        "adc-flash",
        spec,
        cases,
        T_END,
        move |ctx: &CaseCtx| {
            ctx.stage(Stage::Build);
            let mut bench = adc::build_flash(&base);
            bench.mixed.digital_mut().monitor_name(adc::FLASH_CODE);
            Ok(bench.mixed)
        },
        move |mixed: &mut _, i| {
            if i < strikes {
                let (pulse, at) = (pulses[i / times.len()], times[i % times.len()]);
                mixed
                    .analog_mut()
                    .arm_saboteur(saboteur, Arc::new(pulse), at);
            } else {
                let target = &targets[(i - strikes) % targets.len()];
                mixed.digital_mut().flip_state(target.component, target.bit);
            }
            Ok(())
        },
    )
}

/// The CPU bench of `cpu` and `cpu-set`: a 100 MHz clock, reset tied low —
/// through a [`DigitalSaboteur`] when `saboteur` — and the processor running
/// its checksum program, `out` monitored.
fn cpu_bench(saboteur: bool) -> Simulator {
    let mut net = Netlist::new();
    let clk = net.signal("clk", 1);
    let rst = net.signal("rst", 1);
    let out = net.signal("out", 8);
    let pc = net.signal("pc", 6);
    net.add("ck", cells::ClockGen::new(Time::from_ns(10)), &[], &[clk]);
    net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
    net.add(
        "cpu",
        TinyCpu::new(checksum_program(), Time::ZERO),
        &[clk, rst],
        &[out, pc],
    );
    if saboteur {
        net.insert_saboteur(rst, Box::new(DigitalSaboteur::new(1)));
    }
    let mut sim = Simulator::new(net);
    sim.monitor_name("out");
    sim
}

fn cpu(limit: usize) -> Campaign {
    const T_END: Time = Time::from_us(20);
    let targets = cpu_bench(false).mutant_targets();
    let times = plan::uniform_times(Time::from_us(2), Time::from_us(4), 3);
    let mut cases = seu_cases(&targets, &times);
    cases.truncate(limit);
    let spec = ClassifySpec::new(
        (Time::from_us(2), T_END),
        (0..8).map(|i| format!("out[{i}]")).collect(),
    );

    let targets = Arc::new(targets);
    Campaign::forked_batch(
        "cpu",
        spec,
        cases,
        T_END,
        |ctx: &CaseCtx| {
            ctx.stage(Stage::Build);
            Ok(cpu_bench(false))
        },
        move |sim: &mut dyn InjectTarget, i| {
            let t = &targets[i % targets.len()];
            sim.flip_state(t.component, t.bit);
            Ok(())
        },
    )
}

/// SET pulses on the CPU bench's reset line, spliced in through a
/// [`DigitalSaboteur`] (the paper's Section 3.2 saboteur flow). Pulses are
/// narrow (1–6 ns against a 20 ns clock period) and late (12–18.5 us of a
/// 20 us horizon), so most are *logically masked*: no rising clock edge
/// falls inside the pulse, the saboteur retires to its pristine state, and
/// the mutant machine is bit-for-bit the golden machine again.
///
/// That makes this the `--batch` showcase: a masked lane reconverges and
/// seals within a stop or two of the pulse retiring, so the batch path
/// simulates ~hundreds of steps per case where the scalar path simulates
/// the full horizon — three lanes in four seal early (the benchmark's
/// `cpu-set-word` workload). The SEU `cpu` campaign's corrupted-register
/// lanes genuinely need the whole observation window for their verdicts
/// (`cpu-seu-word`); see DESIGN.md "Bit-parallel simulation".
fn cpu_set(limit: usize) -> Campaign {
    const T_END: Time = Time::from_us(20);
    // 160 instants stepping ~40.9 ns sweep the pulse phase across the 20 ns
    // clock period; widths 1–4 ns keep the expected unmasked fraction
    // around w/20 ≈ 12%.
    let times = plan::uniform_times(Time::from_ns(12_500), Time::from_ns(19_000), 160);
    let widths = [
        Time::from_ns(1),
        Time::from_ns(2),
        Time::from_ns(3),
        Time::from_ns(4),
    ];
    let mut cases = Vec::new();
    let mut faults = Vec::new();
    for &at in &times {
        for &width in &widths {
            cases.push(FaultCase::new(format!("rst SET {width} @ {at}"), at));
            faults.push(DigitalFault::new(DigitalFaultKind::SetPulse { width }, at));
        }
    }
    cases.truncate(limit);
    let spec = ClassifySpec::new(
        (Time::from_us(12), T_END),
        (0..8).map(|i| format!("out[{i}]")).collect(),
    );

    let faults = Arc::new(faults);
    Campaign::forked_batch(
        "cpu-set",
        spec,
        cases,
        T_END,
        |ctx: &CaseCtx| {
            ctx.stage(Stage::Build);
            Ok(cpu_bench(true))
        },
        move |sim: &mut dyn InjectTarget, i| {
            let fault = faults[i].clone();
            let at = fault.at;
            let sab = sim
                .component_id("saboteur(rst)")
                .ok_or("saboteur(rst) not instrumented")?;
            sim.component_mut(sab)
                .as_any_mut()
                .downcast_mut::<DigitalSaboteur>()
                .ok_or("saboteur(rst) has an unexpected component type")?
                .arm(fault);
            sim.wake_component(sab, at);
            Ok(())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_entry_builds() {
        for (name, _) in catalog() {
            let campaign = build(name, None).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(campaign.name, name);
            assert!(!campaign.cases.is_empty(), "{name} has no cases");
        }
        assert!(build("nope", None).is_none());
    }

    #[test]
    fn limit_truncates_and_changes_the_fingerprint() {
        let full = build("pll-sweep", None).unwrap();
        let limited = build("pll-sweep", Some(4)).unwrap();
        assert_eq!(limited.cases.len(), 4);
        assert_eq!(full.cases.len(), 24);
        assert_ne!(full.meta(), limited.meta());
    }

    #[test]
    fn a_limited_campaign_stops_only_where_its_cases_inject() {
        for (name, _) in catalog() {
            for limit in [1, 2, 5, 17] {
                let campaign = build(name, Some(limit)).unwrap();
                let stops = amsfi_core::injection_stops(&campaign.cases, campaign.fork.t_end);
                assert_eq!(campaign.fork.stops, stops, "{name} --limit {limit}");
            }
        }
    }

    #[test]
    fn case_lists_are_deterministic_across_builds() {
        for (name, _) in catalog() {
            let a = build(name, None).unwrap();
            let b = build(name, None).unwrap();
            assert_eq!(a.meta(), b.meta(), "{name} fingerprint unstable");
        }
    }
}
