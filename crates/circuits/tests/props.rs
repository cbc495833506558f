//! Property-based tests for the case-study circuits.

use amsfi_circuits::adc::{self, AdcInput};
use amsfi_circuits::cpu::{Insn, TinyCpu};
use amsfi_circuits::pfd::SequentialPfd;
use amsfi_digital::{cells, DigitalSaboteur, InjectTarget, Netlist, Simulator, WordBatchSimulator};
use amsfi_faults::{DigitalFault, DigitalFaultKind};
use amsfi_waves::{Logic, MismatchToggles, Time};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn flash_adc_converts_any_dc_level(vin in 0.05f64..4.95) {
        let mut bench = adc::build_flash(&adc::FlashAdcConfig {
            input: AdcInput::Dc(vin),
            ..adc::FlashAdcConfig::default()
        });
        bench.mixed.run_until(Time::from_us(1)).unwrap();
        let sig = bench.mixed.digital().signal_id(adc::FLASH_CODE).unwrap();
        let code = bench.mixed.digital().value(sig).to_u64().unwrap();
        let expect = ((vin / 5.0 * 8.0) as u64).min(7);
        // Comparator hysteresis (20 mV) can move codes near a threshold by
        // one; away from thresholds the code is exact.
        let dist_to_threshold = (vin / 0.625).fract().min(1.0 - (vin / 0.625).fract());
        if dist_to_threshold > 0.05 {
            prop_assert_eq!(code, expect, "vin = {}", vin);
        } else {
            prop_assert!((code as i64 - expect as i64).abs() <= 1);
        }
    }

    #[test]
    fn sar_adc_converts_any_dc_level(vin in 0.05f64..4.95) {
        let cfg = adc::SarAdcConfig {
            input: AdcInput::Dc(vin),
            ..adc::SarAdcConfig::default()
        };
        let mut bench = adc::build_sar(&cfg);
        bench.mixed.run_until(cfg.conversion_time() * 3).unwrap();
        let sig = bench.mixed.digital().signal_id(adc::SAR_RESULT).unwrap();
        let code = bench.mixed.digital().value(sig).to_u64().unwrap();
        let expect = ((vin / 5.0 * 16.0) as u64).min(15);
        let dist_to_threshold = (vin / 0.3125).fract().min(1.0 - (vin / 0.3125).fract());
        if dist_to_threshold > 0.05 {
            prop_assert_eq!(code, expect, "vin = {}", vin);
        } else {
            prop_assert!((code as i64 - expect as i64).abs() <= 1);
        }
    }

    #[test]
    fn pfd_outputs_never_both_high(ref_ns in 40i64..200, fb_ns in 40i64..200, skew in 0i64..100) {
        let mut net = Netlist::new();
        let r = net.signal("ref", 1);
        let f = net.signal("fb", 1);
        let up = net.signal("up", 1);
        let dn = net.signal("dn", 1);
        net.add("ckr", cells::ClockGen::new(Time::from_ns(ref_ns)), &[], &[r]);
        net.add(
            "ckf",
            cells::ClockGen::new(Time::from_ns(fb_ns)).with_start(Time::from_ns(skew)),
            &[],
            &[f],
        );
        net.add("pfd", SequentialPfd::default(), &[r, f], &[up, dn]);
        let mut sim = Simulator::new(net);
        sim.monitor_name("up");
        sim.monitor_name("dn");
        sim.run_until(Time::from_us(3)).unwrap();
        let trace = sim.trace();
        let up_w = trace.digital("up").unwrap();
        let dn_w = trace.digital("dn").unwrap();
        // Sample at every transition of either output: the three-state PFD
        // with instantaneous clear never drives both outputs high at once.
        for &(t, _) in up_w.transitions().iter().chain(dn_w.transitions()) {
            let both = up_w.value_at(t) == Logic::One && dn_w.value_at(t) == Logic::One;
            prop_assert!(!both, "both outputs high at {t}");
        }
    }

    #[test]
    fn pfd_net_drive_sign_follows_frequency_difference(ref_ns in 60i64..160, delta in 10i64..60) {
        // Faster feedback -> DN dominates; slower feedback -> UP dominates.
        for (fb_ns, expect_up) in [(ref_ns + delta, true), (ref_ns - delta, false)] {
            let mut net = Netlist::new();
            let r = net.signal("ref", 1);
            let f = net.signal("fb", 1);
            let up = net.signal("up", 1);
            let dn = net.signal("dn", 1);
            net.add("ckr", cells::ClockGen::new(Time::from_ns(ref_ns)), &[], &[r]);
            net.add("ckf", cells::ClockGen::new(Time::from_ns(fb_ns)), &[], &[f]);
            net.add("pfd", SequentialPfd::default(), &[r, f], &[up, dn]);
            let mut sim = Simulator::new(net);
            sim.monitor_name("up");
            sim.monitor_name("dn");
            sim.run_until(Time::from_us(10)).unwrap();
            let trace = sim.trace();
            let high = |name: &str| {
                amsfi_waves::measure::duty_cycle(
                    trace.digital(name).unwrap(),
                    Time::ZERO,
                    Time::from_us(10),
                )
                .unwrap()
            };
            let (u, d) = (high("up"), high("dn"));
            if expect_up {
                prop_assert!(u > d, "fb slower: up {u} vs dn {d}");
            } else {
                prop_assert!(d > u, "fb faster: up {u} vs dn {d}");
            }
        }
    }
}

/// The CPU bench of the `cpu` / `cpu-set` campaigns around an arbitrary
/// program, with `pc` monitored beside `out`.
fn cpu_bench(program: Vec<Insn>) -> Simulator {
    let mut net = Netlist::new();
    let clk = net.signal("clk", 1);
    let rst = net.signal("rst", 1);
    let out = net.signal("out", 8);
    let pc = net.signal("pc", 6);
    net.add("ck", cells::ClockGen::new(Time::from_ns(10)), &[], &[clk]);
    net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
    net.add(
        "cpu",
        TinyCpu::new(program, Time::ZERO),
        &[clk, rst],
        &[out, pc],
    );
    net.insert_saboteur(rst, Box::new(DigitalSaboteur::new(1)));
    let mut sim = Simulator::new(net);
    sim.monitor_name("out");
    sim.monitor_name("pc");
    sim
}

/// A program from raw `(opcode, operand)` draws: all eight opcodes, RAM
/// words 0..=5 in use (the other ten stay dead), jumps anywhere inside.
fn cpu_program(raw: &[(u8, u8)]) -> Vec<Insn> {
    let len = raw.len() as u8;
    raw.iter()
        .map(|&(op, x)| match op {
            0 => Insn::Ldi(x),
            1 => Insn::Lda(x % 6),
            2 => Insn::Sta(x % 6),
            3 => Insn::Add(x % 6),
            4 => Insn::Sub(x % 6),
            5 => Insn::Jmp(x % len),
            6 => Insn::Jnz(x % len),
            _ => Insn::Out,
        })
        .collect()
}

/// One lane's fault from a raw `(kind, payload)` draw, applied the same way
/// to a scalar simulator and to a word lane: an upset of an accumulator
/// bit, a program-counter bit or the flag, two upsets anywhere in the 143
/// state bits (mostly RAM, live and dead), a forced program counter (values
/// past the program's end included), or a 1–12 ns pulse on `rst` — against
/// the 10 ns clock some of those cover a rising edge and some do not.
fn cpu_inject(sim: &mut dyn InjectTarget, kind: u8, payload: u64, at: Time) {
    let cpu = sim.component_id("cpu").expect("the bench has a cpu");
    match kind {
        0 => sim.flip_state(cpu, (payload % 8) as usize),
        1 => sim.flip_state(cpu, 8 + (payload % 6) as usize),
        2 => sim.flip_state(cpu, 14),
        3 | 4 => {
            sim.flip_state(cpu, (payload % 143) as usize);
            sim.flip_state(cpu, ((payload >> 8) % 143) as usize);
        }
        5 => sim.force_state(cpu, payload % 256),
        _ => {
            let width = Time::from_ns(1 + (payload % 12) as i64);
            let sab = sim.component_id("saboteur(rst)").expect("instrumented");
            sim.component_mut(sab)
                .as_any_mut()
                .downcast_mut::<DigitalSaboteur>()
                .expect("a digital saboteur")
                .arm(DigitalFault::new(DigitalFaultKind::SetPulse { width }, at));
            sim.wake_component(sab, at);
        }
    }
}

/// Cases of the word-against-scalar CPU property; `ci.sh` widens it.
fn cpu_cases() -> u32 {
    std::env::var("AMSFI_CPU_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cpu_cases()))]

    /// The bit-sliced word CPU against the scalar one, lane by lane — every
    /// lane's mismatch toggles — over what the
    /// checksum program never does: `Sub`, `Jmp` legs taken at random,
    /// fetches at `pc >= len`, lanes spread over many `pc`s at once. Up to
    /// twice as many faults as a word has lanes: a lane sealed while it
    /// still differs in a word no instruction reads takes a later fault.
    #[test]
    fn word_cpu_lanes_equal_their_scalar_runs(
        raw in prop::collection::vec((0u8..8, any::<u8>()), 1..=64),
        faults in prop::collection::vec(
            (0u8..8, any::<u64>(), 100_000_000i64..2_500_000_000, any::<bool>()),
            1..=2 * WordBatchSimulator::MAX_LANES,
        ),
    ) {
        const T_END: Time = Time::from_us(3);
        let program = cpu_program(&raw);
        // Half the instants sit on a clock edge (rising at 5 + 10 k ns,
        // falling at 10 k ns), the others anywhere on the femtosecond grid.
        let faults: Vec<(u8, u64, Time)> = faults
            .into_iter()
            .map(|(kind, payload, at_fs, on_edge)| {
                let at_fs = if on_edge { at_fs - at_fs % 5_000_000 } else { at_fs };
                (kind, payload, Time::from_fs(at_fs))
            })
            .collect();

        let mut batch = WordBatchSimulator::new(cpu_bench(program.clone()), T_END);
        for &(_, _, at) in &faults {
            batch.add_lane(at);
        }
        let report = batch
            .run(
                |lane, sim| {
                    let (kind, payload, at) = faults[lane];
                    cpu_inject(sim, kind, payload, at);
                    Ok(())
                },
                |_, _| {},
            )
            .unwrap();

        for (lane, &(kind, payload, at)) in faults.iter().enumerate() {
            let mut scalar = cpu_bench(program.clone());
            scalar.run_until(at).unwrap();
            cpu_inject(&mut scalar, kind, payload, at);
            scalar.run_until(T_END).unwrap();
            let scalar = scalar.into_trace();
            prop_assert_eq!(
                report.lane_toggles(lane),
                Some(&MismatchToggles::between(&report.golden, &scalar)),
                "lane {} (kind {}, payload {:#x} @ {}): {:?}",
                lane, kind, payload, at, report.outcomes[lane]
            );
        }
    }
}
