//! Criterion benches for the campaign engine: worker scaling of the
//! parallel runner and the cost of trace classification.

use amsfi_circuits::pll::{self, names, PllConfig};
use amsfi_core::{run_campaign_parallel, ClassifySpec, FaultCase};
use amsfi_digital::{cells, Netlist, Simulator};
use amsfi_engine::{Campaign, CaseCtx, Engine, EngineConfig};
use amsfi_faults::TrapezoidPulse;
use amsfi_waves::{Logic, Time, Tolerance, Trace};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn build_counter() -> (Simulator, Vec<amsfi_digital::MutantTarget>) {
    let mut net = Netlist::new();
    let clk = net.signal("clk", 1);
    let rst = net.signal("rst", 1);
    let en = net.signal("en", 1);
    let q = net.signal("q", 16);
    net.add("ck", cells::ClockGen::new(Time::from_ns(10)), &[], &[clk]);
    net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
    net.add("e", cells::ConstVector::bit(Logic::One), &[], &[en]);
    net.add(
        "ctr",
        cells::Counter::new(16, Time::ZERO),
        &[clk, rst, en],
        &[q],
    );
    let targets = net.mutant_targets();
    let mut sim = Simulator::new(net);
    sim.monitor_name("q");
    (sim, targets)
}

fn campaign_worker_scaling(c: &mut Criterion) {
    let at = Time::from_us(5);
    let spec = ClassifySpec::new(
        (Time::ZERO, Time::from_us(50)),
        (0..16).map(|i| format!("q[{i}]")).collect(),
    );
    let mut group = c.benchmark_group("campaign_16_seu_runs");
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| {
                let cases: Vec<FaultCase> = (0..16)
                    .map(|i| FaultCase::new(format!("bit{i}"), at))
                    .collect();
                let result = run_campaign_parallel(&spec, cases, w, |case| {
                    let (mut sim, targets) = build_counter();
                    if let Some(i) = case {
                        sim.run_until(at)?;
                        sim.flip_state(targets[i].component, targets[i].bit);
                    }
                    sim.run_until(Time::from_us(50))?;
                    Ok(sim.into_trace())
                })
                .expect("campaign");
                black_box(result.summary())
            });
        });
    }
    group.finish();
}

/// The counter SEU campaign as an engine [`Campaign`], for the
/// engine-vs-legacy throughput comparison.
fn counter_campaign() -> Campaign {
    let at = Time::from_us(5);
    let targets = build_counter().1;
    Campaign::forked(
        "bench-counter",
        ClassifySpec::new(
            (Time::ZERO, Time::from_us(50)),
            (0..16).map(|i| format!("q[{i}]")).collect(),
        ),
        (0..16)
            .map(|i| FaultCase::new(format!("bit{i}"), at))
            .collect(),
        Time::from_us(50),
        |_ctx: &CaseCtx| Ok(build_counter().0),
        move |sim: &mut Simulator, i| {
            sim.flip_state(targets[i].component, targets[i].bit);
            Ok(())
        },
    )
}

/// The PLL injection-time sweep built through [`Campaign::forked`]: 24
/// current strikes on the fast PLL's loop filter, all injected in the last
/// eighth of a 20 µs horizon, so checkpoint mode replays at most 2.5 µs per
/// case instead of the full 20.
fn forked_pll_campaign() -> Campaign {
    let t_end = Time::from_us(20);
    let pulse = TrapezoidPulse::from_ma_ps(10.0, 100, 100, 300).expect("paper pulse");
    let times: Vec<Time> = (0..24i64)
        .map(|i| Time::from_ns(17_500 + i * 100))
        .collect();
    let cases = times
        .iter()
        .map(|&at| FaultCase::new(format!("icp @ {at}"), at))
        .collect();
    let spec = ClassifySpec::new((Time::ZERO, t_end), vec![names::F_OUT.to_owned()])
        .with_internals(vec![names::VCTRL.to_owned()])
        .with_tolerance(Tolerance::new(0.05, 0.01))
        .with_digital_skew(Time::from_ns(2));
    let times = Arc::new(times);
    Campaign::forked(
        "bench-pll-forked",
        spec,
        cases,
        t_end,
        |_ctx: &CaseCtx| {
            let mut bench = pll::build(&PllConfig::fast());
            bench.monitor_standard();
            Ok(bench)
        },
        move |bench: &mut pll::PllBench, i| {
            bench.arm_saboteur(Arc::new(pulse), times[i]);
            Ok(())
        },
    )
}

/// Checkpoint & fork vs from-scratch execution of the identical PLL
/// injection-time sweep (the PR 2 tentpole: N·T vs T + Σ(T − tᵢ)).
fn checkpoint_vs_scratch(c: &mut Criterion) {
    let campaign = forked_pll_campaign();
    let mut group = c.benchmark_group("checkpoint_vs_scratch_pll_sweep");
    for workers in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("scratch", workers), &workers, |b, &w| {
            let engine = Engine::new(EngineConfig::default().with_workers(w));
            b.iter(|| {
                let report = engine.run(&campaign).expect("scratch campaign");
                black_box(report.result.summary())
            });
        });
        group.bench_with_input(
            BenchmarkId::new("checkpoint", workers),
            &workers,
            |b, &w| {
                let engine = Engine::new(
                    EngineConfig::default()
                        .with_workers(w)
                        .with_checkpoint(true),
                );
                b.iter(|| {
                    let report = engine.run(&campaign).expect("checkpoint campaign");
                    black_box(report.result.summary())
                });
            },
        );
    }
    group.finish();
}

/// Engine vs legacy runner over the identical 16-SEU counter campaign, at
/// each worker count. The engine adds journaling hooks, retry/timeout
/// plumbing and atomic stats; this measures what that machinery costs.
fn engine_vs_legacy(c: &mut Criterion) {
    let at = Time::from_us(5);
    let campaign = counter_campaign();
    let mut group = c.benchmark_group("engine_vs_legacy_16_seu_runs");
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("engine", workers), &workers, |b, &w| {
            let engine = Engine::new(EngineConfig::default().with_workers(w));
            b.iter(|| {
                let report = engine.run(&campaign).expect("engine campaign");
                black_box(report.result.summary())
            });
        });
        group.bench_with_input(BenchmarkId::new("legacy", workers), &workers, |b, &w| {
            b.iter(|| {
                let cases: Vec<FaultCase> = (0..16)
                    .map(|i| FaultCase::new(format!("bit{i}"), at))
                    .collect();
                let result = run_campaign_parallel(&campaign.spec, cases, w, |case| {
                    let (mut sim, targets) = build_counter();
                    if let Some(i) = case {
                        sim.run_until(at)?;
                        sim.flip_state(targets[i].component, targets[i].bit);
                    }
                    sim.run_until(Time::from_us(50))?;
                    Ok(sim.into_trace())
                })
                .expect("campaign");
                black_box(result.summary())
            });
        });
    }
    group.finish();
}

fn classification_cost(c: &mut Criterion) {
    // Two traces with thousands of transitions, half of them mismatched.
    let mut golden = Trace::new();
    let mut faulty = Trace::new();
    for i in 0..5_000i64 {
        let t = Time::from_ns(i * 10);
        let g = Logic::from_bool(i % 2 == 0);
        golden.record_digital("out", t, g).expect("ordered");
        let f = if (2_000..3_000).contains(&i) {
            g.flipped()
        } else {
            g
        };
        faulty.record_digital("out", t, f).expect("ordered");
    }
    let spec = ClassifySpec::new((Time::ZERO, Time::from_us(50)), vec!["out".to_owned()]);
    c.bench_function("classify_5k_transitions", |b| {
        b.iter(|| black_box(amsfi_core::classify(&spec, &golden, &faulty)));
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = campaigns;
    config = config();
    targets = campaign_worker_scaling, engine_vs_legacy, checkpoint_vs_scratch, classification_cost
}
criterion_main!(campaigns);
