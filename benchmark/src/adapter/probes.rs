//! Micro-probes: each layer timed from outside through one public call,
//! on fixed inputs that do not depend on the workload or the seed. A
//! traced run of any workload reports all of them, so the same number can
//! be read beside every workload's shares.
//!
//! Every timing is the fastest of a few repetitions, for the reason the
//! end-to-end rate is (deterministic CPU-bound work; interference only
//! adds time).

use super::campaigns::{arm_rst_saboteur, cpu_sim, cpu_spec, pll_bench, pll_spec};
use crate::workload::{SplitMix64, CPU_T_END_FS, PLL_T_END_FS};
use amsfi_core::{classify, CaseResult, FaultCase};
use amsfi_digital::{InjectTarget, WordBatchSimulator};
use amsfi_engine::journal::{self, Journal, JournalMeta};
use amsfi_faults::{DigitalFault, DigitalFaultKind, DoubleExponential, PulseShape, TrapezoidPulse};
use amsfi_serve::Frame;
use amsfi_telemetry::KernelMetrics;
use amsfi_waves::{
    AnalogStream, Checkpoint, DigitalStream, ForkableSim, Logic, LogicPlanes, SimBudget, Time,
    Trace,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(metric name, value)` for every probe.
pub type Readings = Vec<(&'static str, f64)>;

/// How many repetitions a probe takes its fastest from: as written for a
/// measuring run, one when the self-test only wants the plumbing exercised.
#[derive(Clone, Copy)]
struct Effort {
    quick: bool,
}

impl Effort {
    /// The fastest of `reps` timings of an infallible body.
    fn best_of(self, reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
        self.try_best_of(reps, || Ok(f()))
            .expect("an infallible body")
    }

    /// The fastest of `reps` timings; the first failure ends the probe.
    fn try_best_of(
        self,
        reps: usize,
        mut f: impl FnMut() -> Result<Duration, String>,
    ) -> Result<Duration, String> {
        let reps = if self.quick { 1 } else { reps };
        let mut best = Duration::MAX;
        for _ in 0..reps {
            best = best.min(f()?);
        }
        Ok(best)
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed(), out)
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// A TinyCpu mutant trace: accumulator bit 0 flipped at 5 us.
fn cpu_mutant() -> Result<Trace, String> {
    let mut sim = cpu_sim(false);
    let target = sim.mutant_targets().swap_remove(0);
    sim.run_until(Time::from_us(5)).map_err(|e| e.to_string())?;
    sim.flip_state(target.component, target.bit);
    sim.run_until(Time::from_fs(CPU_T_END_FS))
        .map_err(|e| e.to_string())?;
    Ok(sim.into_trace())
}

/// The paper's Fig. 8 set 2 strike (8 mA; 100 ps; 100 ps; 300 ps).
fn reference_strike() -> TrapezoidPulse {
    TrapezoidPulse::from_ma_ps(8.0, 100, 100, 300).expect("paper set")
}

fn waves_planes(effort: Effort, out: &mut Readings) {
    const WORDS: usize = 4096;
    const REPS: usize = 64;
    let mut rng = SplitMix64::new(0x5EED);
    let mut draw = || {
        let mut p = LogicPlanes::new();
        for lane in 0..amsfi_waves::LANES {
            p.set_lane(lane, Logic::ALL[rng.below(9) as usize]);
        }
        p
    };
    let a: Vec<LogicPlanes> = (0..WORDS).map(|_| draw()).collect();
    let b: Vec<LogicPlanes> = (0..WORDS).map(|_| draw()).collect();
    let mut c = vec![LogicPlanes::new(); WORDS];
    let took = effort.best_of(5, || {
        timed(|| {
            for _ in 0..REPS {
                for ((x, y), z) in black_box(&a).iter().zip(black_box(&b)).zip(c.iter_mut()) {
                    *z = x.and(*y).or(x.xor(*y)).resolve(y.not());
                }
                black_box(&mut c);
            }
        })
        .0
    });
    out.push((
        "waves.planes.ns_per_op",
        ns(took) / (5 * WORDS * REPS) as f64,
    ));
}

fn waves_streams(
    effort: Effort,
    out: &mut Readings,
    cpu_golden: &Trace,
    cpu_faulty: &Trace,
    pll_golden: &Trace,
    pll_faulty: &Trace,
) -> Result<(), String> {
    let spec = cpu_spec(Time::from_us(2));
    let mut edges = 0usize;
    let took = effort.best_of(5, || {
        edges = 0;
        timed(|| {
            for name in &spec.outputs {
                let (Some(g), Some(f)) = (cpu_golden.digital(name), cpu_faulty.digital(name))
                else {
                    continue;
                };
                edges += g.len() + f.len();
                let mut stream = DigitalStream::new(
                    spec.window.0,
                    spec.window.1,
                    spec.merge_gap,
                    spec.digital_skew,
                );
                black_box(stream.finish(g, f));
            }
        })
        .0
    });
    if edges == 0 {
        return Err("the cpu bench recorded no `out` edges".to_owned());
    }
    out.push(("waves.stream.digital_ns_per_edge", ns(took) / edges as f64));

    let spec = pll_spec();
    let name = amsfi_circuits::pll::names::VCTRL;
    let (g, f) = pll_golden
        .analog(name)
        .zip(pll_faulty.analog(name))
        .ok_or("the PLL bench recorded no vctrl")?;
    let took = effort.best_of(5, || {
        timed(|| {
            let mut stream = AnalogStream::new(
                spec.window.0,
                spec.window.1,
                spec.analog_tolerance,
                spec.merge_gap,
            );
            black_box(stream.finish(g, f));
        })
        .0
    });
    out.push((
        "waves.stream.analog_ns_per_sample",
        ns(took) / (g.len() + f.len()) as f64,
    ));
    Ok(())
}

fn faults_pulse(effort: Effort, out: &mut Readings) -> Result<(), String> {
    const EVALS: usize = 1_000_000;
    let pulse = reference_strike();
    let mut rng = SplitMix64::new(0xF17);
    let span = pulse.support().as_fs() as u64 * 2;
    let instants: Vec<Time> = (0..EVALS)
        .map(|_| Time::from_fs(rng.below(span) as i64))
        .collect();
    let took = effort.best_of(3, || {
        timed(|| {
            let mut sum = 0.0;
            for &t in black_box(&instants) {
                sum += pulse.current(t);
            }
            black_box(sum);
        })
        .0
    });
    out.push(("faults.pulse.eval_ns", ns(took) / EVALS as f64));

    const FITS: usize = 200;
    let de = DoubleExponential::from_charge(1e-12, Time::from_ps(50), Time::from_ps(200))
        .map_err(|e| e.to_string())?;
    let took = effort.best_of(3, || {
        timed(|| {
            for _ in 0..FITS {
                black_box(TrapezoidPulse::fit(black_box(&de)));
            }
        })
        .0
    });
    out.push(("faults.pulse.fit_us", ns(took) / 1e3 / FITS as f64));
    Ok(())
}

/// Build and golden-run timings of both benches, plus the scalar kernel's
/// cost per event and the mixed kernel's per synchronisation step. Returns
/// the golden traces for the comparator probes.
fn circuits_and_kernels(effort: Effort, out: &mut Readings) -> Result<(Trace, Trace), String> {
    let took = effort.best_of(20, || timed(|| black_box(cpu_sim(false))).0);
    out.push(("circuits.cpu.build_us", ns(took) / 1e3));
    let took = effort.best_of(10, || timed(|| black_box(pll_bench())).0);
    out.push(("circuits.pll.build_us", ns(took) / 1e3));

    let mut cpu_events = 0;
    let mut cpu_trace = Trace::new();
    let took = effort.try_best_of(5, || {
        let mut sim = cpu_sim(false);
        let (took, run) = timed(|| sim.run_until(Time::from_fs(CPU_T_END_FS)));
        run.map_err(|e| e.to_string())?;
        cpu_events = sim.events_processed();
        cpu_trace = sim.into_trace();
        Ok(took)
    })?;
    out.push(("circuits.cpu.golden_ms", ns(took) / 1e6));
    out.push((
        "digital.scalar.ns_per_event",
        ns(took) / cpu_events.max(1) as f64,
    ));

    let mut pll_trace = Trace::new();
    let took = effort.try_best_of(3, || {
        let mut bench = pll_bench();
        let (took, run) = timed(|| bench.run_until(Time::from_fs(PLL_T_END_FS)));
        run.map_err(|e| e.to_string())?;
        pll_trace = bench.trace();
        Ok(took)
    })?;
    out.push(("circuits.pll.golden_ms", ns(took) / 1e6));
    // The same run once more with a registry attached, for the step count
    // (deterministic, so it pairs with the plain run's time).
    let metrics = Arc::new(KernelMetrics::new());
    let mut bench = pll_bench();
    bench.set_budget(SimBudget::unlimited().with_metrics(Arc::clone(&metrics)));
    bench
        .run_until(Time::from_fs(PLL_T_END_FS))
        .map_err(|e| e.to_string())?;
    out.push((
        "mixed.sync.ns_per_sync",
        ns(took) / metrics.sync_steps.get().max(1) as f64,
    ));

    // The PLL's analog half on its own: loop filter and VCO free-running.
    let mut steps = 0;
    let took = effort.best_of(3, || {
        let mut solver = pll_bench().mixed.analog().clone();
        let (took, ()) = timed(|| solver.run_until(Time::from_us(10)));
        steps = solver.steps_taken();
        took
    });
    out.push(("analog.solver.ns_per_step", ns(took) / steps.max(1) as f64));
    Ok((cpu_trace, pll_trace))
}

fn word_group(saboteur: bool) -> Result<Duration, String> {
    let t_end = Time::from_fs(CPU_T_END_FS);
    let golden = cpu_sim(saboteur);
    let targets = golden.mutant_targets();
    let mut word = WordBatchSimulator::new(golden, t_end);
    // 63 lanes: the SEU group flips 63 distinct bits at one instant; the
    // SET group arms 16 instants x 4 widths, 1-4 ns, late in the run.
    let faults: Vec<DigitalFault> = (0..WordBatchSimulator::MAX_LANES as i64)
        .map(|lane| {
            if saboteur {
                let at = Time::from_ns(15_000 + (lane / 4) * 37) + Time::from_ps((lane / 4) * 300);
                let width = Time::from_ns(1 + lane % 4);
                DigitalFault::new(DigitalFaultKind::SetPulse { width }, at)
            } else {
                DigitalFault::bit_flip(Time::from_ns(5_003))
            }
        })
        .collect();
    for fault in &faults {
        word.add_lane(fault.at);
    }
    let (took, run) = timed(|| {
        word.run(
            |lane, target: &mut dyn InjectTarget| {
                if saboteur {
                    arm_rst_saboteur(target, faults[lane].clone()).map_err(|e| e.to_string())?;
                } else {
                    target.flip_state(targets[lane].component, targets[lane].bit);
                }
                Ok(())
            },
            |_, _| {},
        )
    });
    let report = run.map_err(|e| e.to_string())?;
    if report.outcomes.len() != faults.len() {
        return Err("the word group lost lanes".to_owned());
    }
    Ok(took)
}

fn digital_word(effort: Effort, out: &mut Readings) -> Result<(), String> {
    for (name, saboteur) in [
        ("digital.word.seu_group_ms", false),
        ("digital.word.set_group_ms", true),
    ] {
        let took = effort.try_best_of(5, || word_group(saboteur))?;
        out.push((name, ns(took) / 1e6));
    }
    Ok(())
}

fn forks(effort: Effort, out: &mut Readings) -> Result<(), String> {
    const FORKS: usize = 50;
    let mut sim = cpu_sim(false);
    sim.advance_to(Time::from_us(10))
        .map_err(|e| e.to_string())?;
    let cp = Checkpoint::capture(&sim);
    let took = effort.best_of(5, || {
        timed(|| {
            for _ in 0..FORKS {
                black_box(cp.fork());
            }
        })
        .0
    });
    out.push(("digital.fork.restore_us", ns(took) / 1e3 / FORKS as f64));

    let mut bench = pll_bench();
    bench
        .advance_to(Time::from_us(15))
        .map_err(|e| e.to_string())?;
    let took = effort.best_of(5, || timed(|| black_box(Checkpoint::capture(&bench))).0);
    out.push(("mixed.fork.capture_us", ns(took) / 1e3));
    let cp = Checkpoint::capture(&bench);
    let took = effort.best_of(5, || timed(|| black_box(cp.fork())).0);
    out.push(("mixed.fork.restore_us", ns(took) / 1e3));
    Ok(())
}

/// Classification cost per case, and a classified result to journal.
fn core_classify(
    effort: Effort,
    out: &mut Readings,
    cpu_golden: &Trace,
    cpu_faulty: &Trace,
    pll_golden: &Trace,
    pll_faulty: &Trace,
) -> CaseResult {
    const REPS: usize = 20;
    let spec = cpu_spec(Time::from_us(2));
    let took = effort.best_of(5, || {
        timed(|| {
            for _ in 0..REPS {
                black_box(classify(&spec, cpu_golden, black_box(cpu_faulty)));
            }
        })
        .0
    });
    out.push((
        "core.classify.cpu_us_per_case",
        ns(took) / 1e3 / REPS as f64,
    ));
    let pspec = pll_spec();
    let took = effort.best_of(5, || {
        timed(|| {
            for _ in 0..REPS {
                black_box(classify(&pspec, pll_golden, black_box(pll_faulty)));
            }
        })
        .0
    });
    out.push((
        "core.classify.pll_us_per_case",
        ns(took) / 1e3 / REPS as f64,
    ));
    CaseResult {
        case: FaultCase::new("cpu.acc[0] @ 5 us", Time::from_us(5)),
        outcome: classify(&spec, cpu_golden, cpu_faulty),
    }
}

fn journal_and_proto(
    effort: Effort,
    out: &mut Readings,
    result: &CaseResult,
    scratch: &Path,
) -> Result<(), String> {
    const RECORDS: usize = 2000;
    let cases = vec![result.case.clone(); RECORDS];
    let meta = JournalMeta::of("probe", &cases);
    let path = scratch.join("probe.journal");
    let mut bytes_per_case = 0.0;
    let took = effort.try_best_of(3, || {
        std::fs::remove_file(&path).ok();
        let (journal, _) = Journal::open(&path, &meta, false).map_err(|e| e.to_string())?;
        let (took, written) =
            timed(|| (0..RECORDS).try_for_each(|index| journal.record_case(index, result, None)));
        written.map_err(|e| e.to_string())?;
        bytes_per_case = journal.bytes_written() as f64 / journal.records_written().max(1) as f64;
        Ok(took)
    });
    std::fs::remove_file(&path).ok();
    let took = took?;
    out.push((
        "engine.journal.write_us_per_record",
        ns(took) / 1e3 / RECORDS as f64,
    ));
    out.push(("engine.journal.bytes_per_case", bytes_per_case));

    let frame = Frame::Record {
        lease: 1 << 32 | 7,
        line: journal::case_line(1143, result, None),
    };
    let took = effort.try_best_of(3, || {
        let (took, survived) =
            timed(|| (0..RECORDS).all(|_| Frame::parse(&black_box(&frame).encode()).is_ok()));
        survived
            .then_some(took)
            .ok_or_else(|| "a record frame did not survive encode + parse".to_owned())
    })?;
    out.push((
        "serve.proto.us_per_record_frame",
        ns(took) / 1e3 / RECORDS as f64,
    ));
    Ok(())
}

/// Runs every probe. `scratch` is a directory for the journal probe;
/// `quick` takes one repetition of each instead of the fastest of several.
pub fn run_all(scratch: &Path, quick: bool) -> Result<Readings, String> {
    let effort = Effort { quick };
    let mut out = Readings::new();
    waves_planes(effort, &mut out);
    faults_pulse(effort, &mut out)?;
    let (cpu_golden, pll_golden) = circuits_and_kernels(effort, &mut out)?;
    let cpu_faulty = cpu_mutant()?;
    let pll_faulty = {
        let mut bench = pll_bench();
        bench.arm_saboteur(Arc::new(reference_strike()), Time::from_us(15));
        bench
            .run_until(Time::from_fs(PLL_T_END_FS))
            .map_err(|e| e.to_string())?;
        bench.trace()
    };
    waves_streams(
        effort,
        &mut out,
        &cpu_golden,
        &cpu_faulty,
        &pll_golden,
        &pll_faulty,
    )?;
    digital_word(effort, &mut out)?;
    forks(effort, &mut out)?;
    let result = core_classify(
        effort,
        &mut out,
        &cpu_golden,
        &cpu_faulty,
        &pll_golden,
        &pll_faulty,
    );
    journal_and_proto(effort, &mut out, &result, scratch)?;
    Ok(out)
}
