//! Turns a seeded [`Plan`] into an engine [`Campaign`] whose `build` and
//! `inject` closures belong to the harness (that is where its spans go),
//! and picks the engine configuration each workload runs under.

use crate::spans::Recorder;
use crate::workload::{Plan, Workload, CPU_T_END_FS, PLL_PER_INSTANT, PLL_T_END_FS, SET_WIDTHS_FS};
use amsfi_circuits::cpu::{checksum_program, TinyCpu};
use amsfi_circuits::pll::{self, names};
use amsfi_core::{ClassifySpec, FaultCase};
use amsfi_digital::{cells, DigitalSaboteur, InjectTarget, Netlist, Simulator};
use amsfi_engine::{BoxError, Campaign, CaseCtx, EngineConfig, Stage};
use amsfi_faults::{DigitalFault, DigitalFaultKind, TrapezoidPulse};
use amsfi_waves::{Logic, Time, Tolerance};
use std::sync::Arc;

/// The TinyCpu checksum bench (10 ns clock, `out` monitored), optionally
/// with a saboteur spliced into `rst`. Mirrors the catalog's `cpu` and
/// `cpu-set` benches, which keep theirs private.
pub(super) fn cpu_sim(saboteur_on_rst: bool) -> Simulator {
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
    if saboteur_on_rst {
        net.insert_saboteur(rst, Box::new(DigitalSaboteur::new(1)));
    }
    let mut sim = Simulator::new(net);
    sim.monitor_name("out");
    sim
}

/// The fast-locking PLL with its digital payload, standard monitors on.
pub(super) fn pll_bench() -> pll::PllBench {
    let mut config = pll::PllConfig::fast();
    config.payload = true;
    let mut bench = pll::build(&config);
    bench.monitor_standard();
    bench
}

fn cpu_outputs() -> Vec<String> {
    (0..8).map(|i| format!("out[{i}]")).collect()
}

/// The PLL classification spec of the catalog's `pll-digital` campaign.
pub(super) fn pll_spec() -> ClassifySpec {
    let mut outputs: Vec<String> = (0..8).map(|i| format!("{}[{i}]", names::COUNT)).collect();
    outputs.push(names::SHIFT_OUT.to_owned());
    ClassifySpec::new((Time::from_us(12), Time::from_fs(PLL_T_END_FS)), outputs)
        .with_internals(vec![names::FB.to_owned(), names::VCTRL.to_owned()])
        .with_tolerance(Tolerance::new(0.05, 0.01))
        .with_digital_skew(Time::from_ns(2))
}

/// The CPU classification spec: `out` over `[from, horizon]`.
pub(super) fn cpu_spec(from: Time) -> ClassifySpec {
    ClassifySpec::new((from, Time::from_fs(CPU_T_END_FS)), cpu_outputs())
}

fn cpu_seu(name: &str, instants_fs: &[i64], bit_stride: usize, rec: &Arc<Recorder>) -> Campaign {
    let targets: Vec<_> = cpu_sim(false)
        .mutant_targets()
        .into_iter()
        .step_by(bit_stride)
        .collect();
    let mut cases = Vec::with_capacity(instants_fs.len() * targets.len());
    let mut index = Vec::with_capacity(cases.capacity());
    for &at in instants_fs {
        let at = Time::from_fs(at);
        for (gi, t) in targets.iter().enumerate() {
            cases.push(FaultCase::new(format!("{t} @ {at}"), at));
            index.push(gi);
        }
    }
    let (build_rec, inject_rec) = (Arc::clone(rec), Arc::clone(rec));
    Campaign::forked_batch(
        name,
        cpu_spec(Time::from_us(2)),
        cases,
        Time::from_fs(CPU_T_END_FS),
        move |ctx: &CaseCtx| {
            ctx.stage(Stage::Build);
            Ok(build_rec.closure("build", || cpu_sim(false)))
        },
        move |sim: &mut dyn InjectTarget, i| {
            inject_rec.closure("inject", || {
                let t = &targets[index[i]];
                sim.flip_state(t.component, t.bit);
            });
            Ok(())
        },
    )
}

/// Arms the saboteur spliced into `rst` with a SET pulse and wakes it at
/// the pulse's instant (the catalog's `cpu-set` injection).
pub(super) fn arm_rst_saboteur(
    sim: &mut dyn InjectTarget,
    fault: DigitalFault,
) -> Result<(), BoxError> {
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
}

fn cpu_set(name: &str, instants_fs: &[i64], rec: &Arc<Recorder>) -> Campaign {
    let mut cases = Vec::with_capacity(instants_fs.len() * SET_WIDTHS_FS.len());
    let mut faults = Vec::with_capacity(cases.capacity());
    for &at in instants_fs {
        let at = Time::from_fs(at);
        for width in SET_WIDTHS_FS.map(Time::from_fs) {
            cases.push(FaultCase::new(format!("rst SET {width} @ {at}"), at));
            faults.push(DigitalFault::new(DigitalFaultKind::SetPulse { width }, at));
        }
    }
    let (build_rec, inject_rec) = (Arc::clone(rec), Arc::clone(rec));
    Campaign::forked_batch(
        name,
        cpu_spec(Time::from_us(12)),
        cases,
        Time::from_fs(CPU_T_END_FS),
        move |ctx: &CaseCtx| {
            ctx.stage(Stage::Build);
            Ok(build_rec.closure("build", || cpu_sim(true)))
        },
        move |sim: &mut dyn InjectTarget, i| {
            inject_rec.closure("inject", || arm_rst_saboteur(sim, faults[i].clone()))
        },
    )
}

/// How one `pll-mixed-fork` case perturbs the loop.
enum PllFault {
    Strike(Arc<TrapezoidPulse>, Time),
    Flip(usize),
}

fn pll_mixed(
    name: &str,
    instants_fs: &[i64],
    strikes: &[[crate::workload::Strike; PLL_PER_INSTANT]],
    flips: &[[u64; PLL_PER_INSTANT]],
    rec: &Arc<Recorder>,
) -> Campaign {
    let targets = pll_bench().mixed.digital().mutant_targets();
    let mut cases = Vec::new();
    let mut faults = Vec::new();
    for (i, &at) in instants_fs.iter().enumerate() {
        let at = Time::from_fs(at);
        for s in &strikes[i] {
            let pulse = TrapezoidPulse::from_ma_ps(s.pa_ma, s.rt_ps, s.ft_ps, s.pw_ps)
                .expect("plan draws valid pulses");
            cases.push(FaultCase::new(format!("icp {pulse}"), at));
            faults.push(PllFault::Strike(Arc::new(pulse), at));
        }
        for &draw in &flips[i] {
            let gi = (draw % targets.len() as u64) as usize;
            cases.push(FaultCase::new(format!("{} @ {at}", targets[gi]), at));
            faults.push(PllFault::Flip(gi));
        }
    }
    let (build_rec, inject_rec) = (Arc::clone(rec), Arc::clone(rec));
    Campaign::forked(
        name,
        pll_spec(),
        cases,
        Time::from_fs(PLL_T_END_FS),
        move |ctx: &CaseCtx| {
            ctx.stage(Stage::Build);
            Ok(build_rec.closure("build", pll_bench))
        },
        move |bench: &mut pll::PllBench, i| {
            inject_rec.closure("inject", || match &faults[i] {
                PllFault::Strike(pulse, at) => {
                    bench.arm_saboteur(Arc::clone(pulse) as Arc<_>, *at);
                }
                PllFault::Flip(gi) => {
                    let t = &targets[*gi];
                    bench.mixed.digital_mut().flip_state(t.component, t.bit);
                }
            });
            Ok(())
        },
    )
}

/// Builds the campaign a plan describes, named after its workload.
pub fn build(workload: Workload, plan: &Plan, rec: &Arc<Recorder>) -> Campaign {
    let name = workload.name();
    match plan {
        Plan::CpuSeu {
            instants_fs,
            bit_stride,
        } => cpu_seu(name, instants_fs, *bit_stride, rec),
        Plan::CpuSet { instants_fs } => cpu_set(name, instants_fs, rec),
        Plan::Pll {
            instants_fs,
            strikes,
            flips,
        } => pll_mixed(name, instants_fs, strikes, flips, rec),
    }
}

/// One engine thread, on the execution path the workload exists to time.
/// (`cpu-seu-serve` runs in the worker's engine; in process it is scalar.)
pub fn engine_config(workload: Workload) -> EngineConfig {
    let cfg = EngineConfig::default().with_workers(1);
    match workload {
        Workload::CpuSeuScalar | Workload::CpuSeuServe => cfg,
        Workload::CpuSeuWord | Workload::CpuSetWord => cfg.with_batch(true).with_word(true),
        Workload::PllMixedFork => cfg.with_checkpoint(true),
    }
}

/// The independent second opinion: one engine thread, scalar, from scratch.
pub fn oracle_config() -> EngineConfig {
    EngineConfig::default().with_workers(1)
}
