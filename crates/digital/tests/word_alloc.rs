//! Allocation regression test for the simulation kernels' steady state.
//!
//! A simulated time point must not touch the allocator: drive values come
//! from a pool, inertial bookkeeping is in place, and trace recording is an
//! index into a vector of waves. The only heap traffic left is a wave or a
//! word lane's toggle list growing (`realloc`), which is bounded by
//! doubling.

use amsfi_circuits::cpu::{checksum_program, TinyCpu};
use amsfi_digital::{
    cells, ComponentId, InjectTarget, LaneOutcome, Netlist, Simulator, WordBatchSimulator,
};
use amsfi_waves::{Logic, Time, LANES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's fresh allocations and its reallocations, so that
/// tests running side by side do not see each other.
struct Counting;

thread_local! {
    static FRESH: Cell<u64> = const { Cell::new(0) };
    static GROWN: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // Not available while the thread is being torn down: nothing to count.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// cells with constant initialisers, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&FRESH);
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&FRESH);
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&GROWN);
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(fresh allocations, reallocations)` of this thread so far.
fn counts() -> (u64, u64) {
    (FRESH.with(Cell::get), GROWN.with(Cell::get))
}

const CLOCK: Time = Time::from_ns(10);
/// 1000 clock edges (the processor evaluates on both).
const PHASE: Time = Time::from_ns(5_000);

/// The TinyCpu checksum bench: clock, idle reset, processor.
fn cpu_bench(monitor: bool) -> (Simulator, ComponentId) {
    let mut net = Netlist::new();
    let clk = net.signal("clk", 1);
    let rst = net.signal("rst", 1);
    let out = net.signal("out", 8);
    let pc = net.signal("pc", 6);
    net.add("ck", cells::ClockGen::new(CLOCK), &[], &[clk]);
    net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
    let cpu = net.add(
        "cpu",
        TinyCpu::new(checksum_program(), Time::ZERO),
        &[clk, rst],
        &[out, pc],
    );
    let mut sim = Simulator::new(net);
    if monitor {
        sim.monitor_name("out");
        sim.monitor_name("pc");
    }
    (sim, cpu)
}

/// Reallocations a vector doubling its capacity needs to grow from `from`
/// elements (its capacity at least that) to `to`.
fn doublings(from: usize, to: usize) -> u64 {
    let (mut capacity, mut n) = (from.max(1), 0);
    while capacity < to {
        capacity *= 2;
        n += 1;
    }
    n
}

#[test]
fn word_machine_steady_state_does_not_allocate() {
    // The word machine only hands control back inside a lane's setup and
    // inject closures, so phases are bracketed by *probe* lanes whose
    // injection fails (a failed lane is retired on the spot and perturbs
    // nothing). Between the setups of two probes lie: the first probe's
    // failure handling and the simulation. Two probes at one instant have
    // no simulation between them, so the difference of the two intervals is
    // the simulation alone.
    //
    // Mutant lanes note mismatch toggles only. What the diverged phase
    // pins is that this costs no allocation per time point: a toggle list
    // only grows, by doubling, once the lane has toggled for the first
    // time. Lanes that never toggle are the next test's.
    let warm_up = Time::from_us(2);
    let lock_step_end = warm_up + PHASE;
    let diverged_start = lock_step_end + Time::from_us(1);
    let diverged_end = diverged_start + PHASE;
    let t_end = diverged_end + Time::from_us(1);

    let (golden, cpu) = cpu_bench(true);
    let first_ram_bit = golden
        .mutant_targets()
        .iter()
        .position(|t| t.label == "ram[0][0]")
        .expect("the RAM is part of the mutant surface");
    let mut word = WordBatchSimulator::new(golden, t_end);
    let mut probes = Vec::new();
    let mut mutants = Vec::new();
    // The scalar kernel simulates up to the first injection instant, so a
    // failing lane ahead of the warm-up hands over to the word machine
    // there, and its pools and scratch buffers fill during the warm-up.
    word.add_lane(Time::from_us(1));
    for at in [warm_up, lock_step_end, lock_step_end] {
        probes.push(word.add_lane(at));
    }
    // RAM words 0..=7, every bit: table, loop counter and dead words. None
    // is ever rewritten, so none of these lanes reconverges and seals.
    for _ in 0..WordBatchSimulator::MAX_LANES - 7 {
        mutants.push(word.add_lane(lock_step_end));
    }
    for at in [diverged_start, diverged_end, diverged_end] {
        probes.push(word.add_lane(at));
    }
    assert_eq!(1 + probes.len() + mutants.len(), LANES - 1, "a full word");

    let mut at_setup = vec![(0, 0); probes.len()];
    let report = word
        .run(
            |lane, target| match mutants.iter().position(|&m| m == lane) {
                Some(nth) => {
                    target.flip_state(cpu, first_ram_bit + nth);
                    Ok(())
                }
                None => Err("probe".to_owned()),
            },
            |lane, _| {
                if let Some(nth) = probes.iter().position(|&p| p == lane) {
                    at_setup[nth] = counts();
                }
            },
        )
        .expect("the golden lane runs to the horizon");

    let mut toggle_lists = 0;
    let mut toggle_growth = 0;
    for &lane in &mutants {
        let toggles = match &report.outcomes[lane] {
            LaneOutcome::Completed {
                toggles,
                sealed_at: None,
            } => toggles,
            LaneOutcome::Clean { sealed_at: None } => continue,
            other => panic!("lane {lane} must stay apart to the horizon: {other:?}"),
        };
        let before = toggles.iter().filter(|&(t, _)| t < diverged_start).count();
        assert!(before > 0, "lane {lane} first toggles inside the phase");
        // Instants and slots are two vectors side by side.
        toggle_lists += 1;
        toggle_growth += 2 * doublings(before, toggles.iter().count());
    }
    assert!(toggle_lists > 10, "{toggle_lists} lanes toggle");
    let simulation = |start: usize| {
        let between =
            |a: usize, b: usize| (at_setup[b].0 - at_setup[a].0, at_setup[b].1 - at_setup[a].1);
        let (with_sim, bare) = (between(start, start + 1), between(start + 1, start + 2));
        (with_sim.0 - bare.0, with_sim.1 - bare.1)
    };
    // Lock step: every lane still is the golden machine; only the golden
    // trace grows.
    let (fresh, grown) = simulation(0);
    assert_eq!(fresh, 0, "lock-step phase allocated");
    assert!(grown <= 14 * 2, "lock-step phase: {grown} reallocations");
    // Diverged: golden records its `out` and `pc`, every lane that differs
    // notes toggles.
    let (fresh, grown) = simulation(3);
    assert_eq!(fresh, 0, "diverged phase allocated");
    assert!(
        grown <= 14 * 2 + toggle_growth,
        "diverged phase: {grown} reallocations for 14 golden waves and {toggle_lists} toggle \
         lists that double {toggle_growth} times"
    );
}

#[test]
fn a_watched_lane_records_nothing() {
    // The `--early-abort` shape: a watch is shown every running lane's
    // toggles at each stop of the machine. Upsets in RAM words 0..=7
    // keep every lane apart from golden to the horizon, so each is shown at
    // every stop. The same cases run watched and unwatched, and what the
    // allocator sees from the activation of the lanes (a probe's setup) to
    // late in the run (another probe's) must be the same, whatever the
    // length of the golden trace: a watched lane records and clones
    // nothing. Cloning golden per watched lane and recording its own `out`
    // and `pc`, as observed lanes once did, cost 960 more fresh allocations
    // here — 16 per lane — and 1 338 more reallocations.
    let activate = Time::from_us(2);
    let late = activate + PHASE;
    let t_end = late + Time::from_us(1);
    let run = |watched: bool| {
        let (golden, cpu) = cpu_bench(true);
        let first_ram_bit = golden
            .mutant_targets()
            .iter()
            .position(|t| t.label == "ram[0][0]")
            .expect("the RAM is part of the mutant surface");
        let mut word = WordBatchSimulator::new(golden, t_end);
        // A failing lane ahead of the phase, so that the word machine has
        // taken over and filled its pools before the first sample.
        word.add_lane(Time::from_us(1));
        let start = word.add_lane(activate);
        let mutants: Vec<usize> = (0..WordBatchSimulator::MAX_LANES - 3)
            .map(|_| word.add_lane(activate))
            .collect();
        let end = word.add_lane(late);
        let (mut before, mut after) = ((0, 0), (0, 0));
        let mut shown = 0;
        let inject =
            |lane, target: &mut dyn InjectTarget| match mutants.iter().position(|&m| m == lane) {
                Some(nth) => {
                    target.flip_state(cpu, first_ram_bit + nth);
                    Ok(())
                }
                None => Err("probe".to_owned()),
            };
        let setup = |lane, _: &mut dyn InjectTarget| {
            if lane == start {
                before = counts();
            } else if lane == end {
                after = counts();
            }
        };
        let report = if watched {
            word.run_watched(inject, setup, |_, _, _, _| {
                shown += 1;
                false
            })
        } else {
            word.run(inject, setup)
        };
        report.expect("the golden lane runs to the horizon");
        (
            (after.0 - before.0, after.1 - before.1),
            mutants.len(),
            shown,
        )
    };
    let (plain, lanes, _) = run(false);
    let (watched, _, shown) = run(true);
    assert!(shown >= lanes * 32, "{shown} shows for {lanes} lanes");
    assert_eq!(
        watched, plain,
        "{lanes} watched lanes against unwatched: (fresh, reallocated)"
    );
}

#[test]
fn lanes_that_never_leave_golden_do_not_allocate() {
    // A full word of upsets in RAM words the program never reads: the
    // lanes stay apart from golden to the horizon (nothing rewrites the
    // word, so none seals) yet never differ on a monitored bit. Activating
    // them, the re-opened time point and 1000 clock edges touch the
    // allocator only to grow a golden wave — no lane notes a toggle, at
    // activation or later — and every one of them ends `Clean`.
    let activate = Time::from_us(2);
    let (golden, cpu) = cpu_bench(true);
    let first_dead_bit = golden
        .mutant_targets()
        .iter()
        .position(|t| t.label == "ram[5][0]")
        .expect("the RAM is part of the mutant surface");
    let mut word = WordBatchSimulator::new(golden, activate + PHASE + Time::from_us(1));
    // As above: a failing lane ahead of the phase, so that the word machine
    // has taken over and filled its pools before the first sample.
    word.add_lane(Time::from_us(1));
    let clean: Vec<usize> = (0..WordBatchSimulator::MAX_LANES - 2)
        .map(|_| word.add_lane(activate))
        .collect();
    let closing = word.add_lane(activate + PHASE);

    let (mut before, mut after) = ((0, 0), (0, 0));
    let report = word
        .run(
            |lane, target| {
                if lane == 0 {
                    return Err("warm-up".to_owned());
                }
                // 61 + 1 distinct bits of the 88 in words 5..=15.
                target.flip_state(cpu, first_dead_bit + lane);
                Ok(())
            },
            |lane, _| {
                if lane == clean[0] {
                    before = counts();
                } else if lane == closing {
                    after = counts();
                }
            },
        )
        .expect("the golden lane runs to the horizon");

    assert_eq!(after.0 - before.0, 0, "clean lanes allocated");
    assert!(
        after.1 - before.1 <= 14 * 2,
        "{} reallocations with only the golden trace growing",
        after.1 - before.1
    );
    for &lane in clean.iter().chain([&closing]) {
        assert!(
            matches!(
                report.outcomes[lane],
                LaneOutcome::Clean { sealed_at: None }
            ),
            "lane {lane}: {:?}",
            report.outcomes[lane]
        );
    }
}

/// A counter feeding a flip-flop: library cells whose drive values are
/// a state vector (`Dff`) and an encoded integer (`Counter`).
fn counter_bench(monitor: bool) -> Simulator {
    let mut net = Netlist::new();
    let clk = net.signal("clk", 1);
    let rst = net.signal("rst", 1);
    let en = net.signal("en", 1);
    let q = net.signal("q", 8);
    let d = net.signal("d", 8);
    net.add("ck", cells::ClockGen::new(CLOCK), &[], &[clk]);
    net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
    net.add("e", cells::ConstVector::bit(Logic::One), &[], &[en]);
    net.add(
        "ctr",
        cells::Counter::new(8, Time::ZERO),
        &[clk, rst, en],
        &[q],
    );
    net.add("ff", cells::Dff::new(8, Time::from_ns(1)), &[clk, q], &[d]);
    let mut sim = Simulator::new(net);
    if monitor {
        sim.monitor_name("q");
        sim.monitor_name("d");
    }
    sim
}

#[test]
fn scalar_machine_steady_state_does_not_allocate() {
    // The scalar twin of the word test: inputs are lent from the signal
    // store, drive values circulate through the pool, delta events through
    // the wheel's FIFO. After a warm-up that fills pool, wheel and scratch
    // buffers, 1000 clock edges touch the allocator only to grow a
    // monitored wave.
    let phase = |mut sim: Simulator, waves: u64| {
        sim.run_until(Time::from_us(2)).expect("warm-up");
        let before = counts();
        sim.run_until(Time::from_us(2) + PHASE).expect("phase");
        let after = counts();
        assert_eq!(sim.trace().len() as u64, waves);
        assert!(sim.events_processed() > 4_000, "the phase simulated");
        (after.0 - before.0, after.1 - before.1)
    };
    for (bench, waves) in [("cpu", 14), ("counter + dff", 16)] {
        let build = |monitor: bool| match bench {
            "cpu" => cpu_bench(monitor).0,
            _ => counter_bench(monitor),
        };
        let (fresh, grown) = phase(build(false), 0);
        assert_eq!((fresh, grown), (0, 0), "{bench}, no monitors");
        let (fresh, grown) = phase(build(true), waves);
        assert_eq!(fresh, 0, "{bench}, monitored: allocated");
        assert!(
            grown <= waves * 2,
            "{bench}, monitored: {grown} reallocations for {waves} waves"
        );
    }
}
