//! Acceptance properties for bit-parallel (`--batch`) execution, i.e. the
//! word-parallel kernel driven through the engine:
//!
//! * a batch engine run produces case results **byte-identical** to the
//!   scalar run of the same campaign — same classes, onsets, affected
//!   lists, same golden trace;
//! * a lane that fails deterministically mid-batch is quarantined (under
//!   `--quarantine`) *alone*: every other lane's verdict still matches
//!   the scalar run;
//! * batch + `--early-abort` seals, from a lane's toggles, the class,
//!   onset and affected set the full post-hoc run derives;
//! * word groups fork from the golden run's snapshots, one per group
//!   start: the answers stay byte-identical on whole, sharded and partly
//!   completed case lists, and the prefix is paid once per run — `build`
//!   runs for the golden run alone;
//! * lane guards: a step cap on every lane leaves the word answers equal
//!   to the equally capped scalar ones, and inside a group trips exactly
//!   the lanes that run longer than the cap;
//! * a lane sealed on state no instruction reads takes a later case, which
//!   books the scalar verdict;
//! * a group whose golden lane is not the campaign's golden run is re-run
//!   scalar: the verdict of a lane reported as toggles rests on that;
//! * a campaign with an edge-skew tolerance runs scalar under `--batch`,
//!   and says why;
//! * `--batch --checkpoint` snapshots the golden run at each group's
//!   start when the batch spec engages, and at every injection stop when
//!   the campaign has none;
//! * under `--timeout` a word machine that never returns is cut off after
//!   the wall clock its cases would have had one by one, and re-run
//!   scalar, and a group runs on its own deadline, not the golden run's;
//! * on every plan (scalar, fork, batch) every pending case is booked
//!   exactly once, and the report names the plan and counts who left it.

use amsfi_circuits::cpu::{checksum_program, TinyCpu};
use amsfi_core::{plan, report, CaseResult, ClassifySpec, FaultCase};
use amsfi_digital::{cells, BatchReport, InjectTarget, LaneOutcome, Netlist, Simulator};
use amsfi_engine::{
    campaigns, BatchSpec, Campaign, CaseCtx, Engine, EngineConfig, EngineReport, RecordSink, Shard,
    Telemetry,
};
use amsfi_waves::{Logic, LogicVector, SimBudget, Time};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const T_END: Time = Time::from_us(2);

fn build_counter() -> Simulator {
    let mut net = Netlist::new();
    let clk = net.signal("clk", 1);
    let rst = net.signal("rst", 1);
    let en = net.signal("en", 1);
    let q = net.signal("q", 8);
    net.add("ck", cells::ClockGen::new(Time::from_ns(20)), &[], &[clk]);
    net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
    net.add("e", cells::ConstVector::bit(Logic::One), &[], &[en]);
    net.add(
        "ctr",
        cells::Counter::new(8, Time::ZERO),
        &[clk, rst, en],
        &[q],
    );
    let mut sim = Simulator::new(net);
    sim.monitor_name("q");
    sim
}

/// Every bit of the counter.
const ALL_BITS: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// A counter SEU campaign over `bits x times`, built through
/// [`Campaign::forked_batch`]. `poison` makes that case's inject closure
/// fail deterministically (chaos lane).
fn counter_campaign(bits: &[usize], times: &[Time], poison: Option<usize>) -> Campaign {
    counted_campaign(bits, times, poison, build_counter).0
}

/// [`counter_campaign`] over the simulator `build` makes (which must hold a
/// counter "ctr"), plus how often the engine called `build`.
fn counted_campaign(
    bits: &[usize],
    times: &[Time],
    poison: Option<usize>,
    build: fn() -> Simulator,
) -> (Campaign, Arc<AtomicUsize>) {
    let ctr = build().component_id("ctr").expect("counter instance");
    let mut cases = Vec::new();
    let mut setup = Vec::new();
    for &at in times {
        for &bit in bits {
            cases.push(FaultCase::new(format!("ctr bit{bit} @ {at}"), at));
            setup.push(bit);
        }
    }
    let spec = ClassifySpec::new(
        (Time::ZERO, T_END),
        (0..8).map(|i| format!("q[{i}]")).collect(),
    );
    let builds = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&builds);
    let campaign = Campaign::forked_batch(
        "batch-equivalence",
        spec,
        cases,
        T_END,
        move |_ctx: &CaseCtx| {
            counter.fetch_add(1, Ordering::Relaxed);
            Ok(build())
        },
        move |sim: &mut dyn InjectTarget, i| {
            if poison == Some(i) {
                return Err("chaos: injector wiring fault".into());
            }
            sim.flip_state(ctr, setup[i]);
            Ok(())
        },
    );
    (campaign, builds)
}

fn times() -> Vec<Time> {
    plan::uniform_times(Time::from_ns(100), Time::from_ns(900), 3)
}

/// Runs `campaign` under `cfg` with an event stream attached and returns
/// the report with the stream's JSONL text.
fn run_with_events(tag: &str, cfg: EngineConfig, campaign: &Campaign) -> (EngineReport, String) {
    let dir = std::env::temp_dir().join(format!("amsfi-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let events = dir.join("events.jsonl");
    let tele = Telemetry::builder()
        .events_path(&events)
        .capacity(1 << 16)
        .build()
        .expect("telemetry");
    let report = Engine::new(cfg.with_telemetry(tele.clone()))
        .run(campaign)
        .expect("engine run");
    tele.close();
    let text = std::fs::read_to_string(&events).expect("events readable");
    let _ = std::fs::remove_dir_all(&dir);
    (report, text)
}

/// The lines of an event stream with the given `kind` and `name`.
fn events_of<'a>(text: &'a str, kind: &str, name: &str) -> Vec<&'a str> {
    let (kind, name) = (
        format!("\"kind\":\"{kind}\""),
        format!("\"name\":\"{name}\""),
    );
    text.lines()
        .filter(|l| l.contains(&kind) && l.contains(&name))
        .collect()
}

/// The `"<field>":"<n>"` count a JSONL event line carries.
fn count_field(line: &str, field: &str) -> usize {
    let (_, rest) = line
        .split_once(&format!("\"{field}\":\""))
        .unwrap_or_else(|| panic!("no {field} in {line}"));
    rest.split('"').next().unwrap().parse().expect("a count")
}

fn batch_config(workers: usize) -> EngineConfig {
    EngineConfig::default()
        .with_workers(workers)
        .with_batch(true)
}

#[test]
fn batch_run_equals_scalar_run_byte_for_byte() {
    let campaign = counter_campaign(&[0, 3, 7], &times(), None);
    let scalar = Engine::new(EngineConfig::default().with_workers(2))
        .run(&campaign)
        .expect("scalar run");
    let batch = Engine::new(batch_config(2))
        .run(&campaign)
        .expect("batch run");
    assert_eq!(scalar.result.golden, batch.result.golden);
    assert_eq!(scalar.result.cases.len(), batch.result.cases.len());
    for (a, b) in scalar.result.cases.iter().zip(&batch.result.cases) {
        assert_eq!(a, b, "case {} diverged between paths", a.case);
    }
}

#[test]
fn batch_flag_without_batch_spec_falls_back_to_scalar() {
    // A plain `forked` campaign carries no batch spec; `--batch` must be a
    // no-op rather than an error.
    let with_spec = counter_campaign(&[1], &times(), None);
    let campaign = Campaign {
        batch: None,
        ..with_spec.clone()
    };
    let scalar = Engine::new(EngineConfig::default())
        .run(&with_spec)
        .expect("scalar run");
    let fallback = Engine::new(EngineConfig::default().with_batch(true))
        .run(&campaign)
        .expect("fallback run");
    for (a, b) in scalar.result.cases.iter().zip(&fallback.result.cases) {
        assert_eq!(a, b);
    }
}

#[test]
fn a_skewed_comparison_runs_scalar_and_says_why() {
    // A word lane is booked from where its X01 values differ from golden's
    // at the same instant; an edge-skew tolerance also reads golden at
    // `t ± skew`, which that does not carry. A campaign with a skew
    // resolves to the scalar plan, once, with the reason in the event
    // stream.
    let base = counter_campaign(&[0, 3, 7], &times(), None);
    let campaign = Campaign {
        spec: base.spec.clone().with_digital_skew(Time::from_ns(2)),
        ..base
    };
    let expected = report::cases_csv(
        &Engine::new(EngineConfig::default().with_workers(2))
            .run(&campaign)
            .expect("scalar run")
            .result,
    );
    let (batch, text) = run_with_events("batch-skew", batch_config(2), &campaign);
    assert_eq!(expected, report::cases_csv(&batch.result));
    assert_eq!((batch.path, batch.stats.fallbacks), ("scalar", 0));
    let fallbacks = events_of(&text, "batch", "fallback");
    assert_eq!(fallbacks.len(), 1, "one fallback event:\n{text}");
    let reason = r#""reason":"digital_skew needs lane traces""#;
    assert!(fallbacks[0].contains(reason), "{}", fallbacks[0]);
    assert!(events_of(&text, "span", "batch").is_empty(), "{text}");
}

#[test]
fn batch_with_checkpoint_keeps_one_rung_per_group_start() {
    // Groups fork from the golden run's snapshots and their scalar
    // fallbacks run from scratch: with a batch spec engaged, `--checkpoint`
    // must not make the golden run capture a snapshot per injection
    // instant, only one per group start.
    let snapshots = |text: &str| -> usize {
        let golden = events_of(text, "span", "golden");
        assert_eq!(golden.len(), 1, "one golden span:\n{text}");
        count_field(golden[0], "snapshots")
    };
    let campaign = counter_campaign(&[0, 3, 7], &times(), None);
    let expected = report::cases_csv(
        &Engine::new(EngineConfig::default().with_workers(2))
            .run(&campaign)
            .expect("scalar run")
            .result,
    );
    let cfg = || batch_config(2).with_checkpoint(true);

    // Nine cases on two workers: groups of five and four, which start at
    // the first and the second instant.
    let (batch, text) = run_with_events("batch-checkpoint", cfg(), &campaign);
    assert_eq!(expected, report::cases_csv(&batch.result));
    assert_eq!(snapshots(&text), 2);
    assert!(!events_of(&text, "span", "batch").is_empty(), "{text}");

    // Without a batch spec the same flags are a checkpointed scalar run.
    let plain = Campaign {
        batch: None,
        ..campaign
    };
    let (forked, text) = run_with_events("batch-checkpoint-plain", cfg(), &plain);
    assert_eq!(expected, report::cases_csv(&forked.result));
    assert_eq!(snapshots(&text), times().len());
}

#[test]
fn chaos_lane_is_quarantined_alone() {
    let poison = 4;
    let clean = counter_campaign(&[0, 3, 7], &times(), None);
    let chaotic = counter_campaign(&[0, 3, 7], &times(), Some(poison));
    let scalar = Engine::new(EngineConfig::default().with_workers(2))
        .run(&clean)
        .expect("scalar reference");

    let dir = std::env::temp_dir().join(format!("amsfi-batch-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("chaos.journal");
    let _ = std::fs::remove_file(&journal);
    let report = Engine::new(batch_config(2).with_quarantine(true).with_journal(&journal))
        .run(&chaotic)
        .expect("chaotic batch run");

    // The poison lane alone left the batch path and is quarantined, with a
    // journal poison marker.
    assert_eq!((report.path, report.stats.fallbacks), ("batch", 1));
    assert_eq!(report.quarantined.len(), 1, "exactly one poison case");
    assert_eq!(report.quarantined[0].index, poison);
    let text = std::fs::read_to_string(&journal).expect("journal readable");
    assert!(
        text.contains("quarantine="),
        "journal lacks quarantine= marker:\n{text}"
    );

    // Every other lane's verdict is identical to the scalar reference.
    assert_eq!(report.result.cases.len(), scalar.result.cases.len() - 1);
    let surviving: Vec<_> = scalar
        .result
        .cases
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != poison)
        .map(|(_, c)| c)
        .collect();
    for (a, b) in surviving.iter().zip(&report.result.cases) {
        assert_eq!(*a, b, "case {} diverged around the chaos lane", a.case);
    }
    let _ = std::fs::remove_file(&journal);
}

/// Batch + `--early-abort` against the scalar post-hoc run, on the counter
/// toy and the catalog's `cpu` and `cpu-set`: a lane whose classifier
/// sealed — fed the lane's toggles at the word machine's stops — carries
/// the scalar class, onset and affected set, and lower bounds of its error
/// end and mismatch time; any other lane the scalar result itself. On the
/// catalog campaigns some lanes must seal, or the toggle-fed seal goes
/// unexercised.
#[test]
fn batch_early_abort_seals_scalar_classes() {
    let catalog = |name| campaigns::build(name, None).expect("catalog campaign");
    let runs = [
        (counter_campaign(&[0, 3, 7], &times(), None), false),
        (catalog("cpu"), true),
        (catalog("cpu-set"), true),
    ];
    for (campaign, must_seal) in &runs {
        let name = &campaign.name;
        let scalar = Engine::new(EngineConfig::default().with_workers(2))
            .run(campaign)
            .expect("scalar run");
        let batch = Engine::new(batch_config(2).with_early_abort(true))
            .run(campaign)
            .expect("batch early-abort run");
        assert_eq!((batch.path, batch.stats.fallbacks), ("batch", 0), "{name}");
        assert_eq!(scalar.result.cases.len(), batch.result.cases.len());
        let mut sealed = 0;
        for (a, b) in scalar.result.cases.iter().zip(&batch.result.cases) {
            let case = &a.case;
            if b.outcome.sealed_at.is_none() {
                assert_eq!(a, b, "{name}: unsealed case {case}");
                continue;
            }
            sealed += 1;
            let (a, b) = (&a.outcome, &b.outcome);
            assert_eq!(a.class, b.class, "{name}: case {case} class");
            assert_eq!(a.error_onset, b.error_onset, "{name}: case {case} onset");
            assert_eq!(a.affected, b.affected, "{name}: case {case} affected");
            assert!(b.error_end <= a.error_end, "{name}: case {case} end");
            assert!(
                b.total_mismatch <= a.total_mismatch,
                "{name}: case {case} mismatch"
            );
        }
        assert!(sealed > 0 || !must_seal, "{name}: no lane sealed");
    }
}

#[test]
fn cpu_campaign_batches_byte_identically() {
    let campaign = campaigns::build("cpu", Some(8)).expect("cpu campaign");
    let scalar = Engine::new(EngineConfig::default().with_workers(2))
        .run(&campaign)
        .expect("scalar run");
    let batch = Engine::new(batch_config(2))
        .run(&campaign)
        .expect("batch run");
    assert_eq!((scalar.path, scalar.stats.fallbacks), ("scalar", 0));
    assert_eq!((batch.path, batch.stats.fallbacks), ("batch", 0));
    assert_eq!(scalar.result.golden, batch.result.golden);
    for (a, b) in scalar.result.cases.iter().zip(&batch.result.cases) {
        assert_eq!(a, b, "cpu case {} diverged between paths", a.case);
    }
}

#[test]
fn cpu_set_campaign_word_runs_byte_identically() {
    // The saboteur has no native word cell, so this exercises the
    // lane-farm fallback plus `component_mut` lane access end to end.
    let campaign = campaigns::build("cpu-set", Some(6)).expect("cpu-set campaign");
    let scalar = Engine::new(EngineConfig::default().with_workers(2))
        .run(&campaign)
        .expect("scalar run");
    let word = Engine::new(batch_config(2))
        .run(&campaign)
        .expect("word run");
    assert_eq!(scalar.result.golden, word.result.golden);
    for (a, b) in scalar.result.cases.iter().zip(&word.result.cases) {
        assert_eq!(a, b, "cpu-set case {} diverged between paths", a.case);
    }
}

#[test]
fn cpu_set_groups_refill_sealed_lanes_and_spill_to_more_machines() {
    // 504 catalog cases are one group for one worker: three in four pulses
    // wash out and seal within nanoseconds, so the group's lanes take many
    // more cases than the word has, and the rest still need a second
    // machine. Every answer must be the scalar one.
    let campaign = campaigns::build("cpu-set", Some(504)).expect("cpu-set campaign");
    let expected = report::cases_csv(
        &Engine::new(EngineConfig::default().with_workers(2))
            .run(&campaign)
            .expect("scalar run")
            .result,
    );
    let (word, text) = run_with_events("cpu-set-refill", batch_config(1), &campaign);
    assert_eq!(expected, report::cases_csv(&word.result));
    assert_eq!((word.path, word.stats.fallbacks), ("batch", 0));
    let spans = events_of(&text, "span", "batch");
    assert_eq!(spans.len(), 1, "{text}");
    assert_eq!(count_field(spans[0], "lanes"), 504, "{}", spans[0]);
    assert!(count_field(spans[0], "machines") >= 2, "{}", spans[0]);
    assert!(count_field(spans[0], "refills") >= 1, "{}", spans[0]);
}

/// The CPU bench of the `cpu` campaign: a 100 MHz clock, reset tied low,
/// the processor running its checksum program, `out` monitored.
fn build_cpu() -> Simulator {
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
    let mut sim = Simulator::new(net);
    sim.monitor_name("out");
    sim
}

#[test]
fn dead_word_upsets_seal_at_once_and_hand_their_lanes_to_later_cases() {
    // The checksum program never reads RAM words 5..=15. A word of upsets
    // there at 2 us seals at that stop, each lane still holding its flipped
    // dead bit, and the 63 cases at 3 us take those lanes instead of a
    // second machine: eight flip dead bits again (on a lane whose own dead
    // bit differs, or the same bit flipped back), 55 hit the live state —
    // accumulator, program counter, flag, table and loop counter. Every
    // answer must be the scalar one, whatever dead bit its lane kept.
    const T_END: Time = Time::from_us(6);
    let (early, late) = (Time::from_us(2), Time::from_us(3));
    let (live, dead) = (0..55, 55..118);
    let mut bits = Vec::new();
    let mut cases = Vec::new();
    for (at, range) in [(early, dead.clone()), (late, 55..63), (late, live)] {
        for bit in range {
            cases.push(FaultCase::new(format!("cpu bit{bit} @ {at}"), at));
            bits.push(bit);
        }
    }
    assert_eq!((cases.len(), dead.len()), (126, 63));
    let cpu = build_cpu().component_id("cpu").expect("the processor");
    let campaign = Campaign::forked_batch(
        "dead-word-refill",
        ClassifySpec::new(
            (early, T_END),
            (0..8).map(|i| format!("out[{i}]")).collect(),
        ),
        cases,
        T_END,
        |_: &CaseCtx| Ok(build_cpu()),
        move |sim: &mut dyn InjectTarget, i| {
            sim.flip_state(cpu, bits[i]);
            Ok(())
        },
    );
    let expected = report::cases_csv(
        &Engine::new(EngineConfig::default().with_workers(2))
            .run(&campaign)
            .expect("scalar run")
            .result,
    );
    let (word, text) = run_with_events("dead-word-refill", batch_config(1), &campaign);
    assert_eq!(expected, report::cases_csv(&word.result));
    assert_eq!((word.path, word.stats.fallbacks), ("batch", 0));
    let spans = events_of(&text, "span", "batch");
    assert_eq!(spans.len(), 1, "{text}");
    assert_eq!(count_field(spans[0], "lanes"), 126, "{}", spans[0]);
    assert_eq!(count_field(spans[0], "machines"), 1, "{}", spans[0]);
    assert!(count_field(spans[0], "refills") >= 1, "{}", spans[0]);
}

#[test]
fn a_wedged_group_is_cut_off_by_the_timeout_and_rerun_scalar() {
    // A word machine that never returns on its own: it spins until its
    // group's budget says stop — capped, so that a budget without a
    // deadline fails this test instead of hanging it.
    let campaign = counter_campaign(&[0, 5], &times(), None);
    let scalar = Engine::new(EngineConfig::default().with_workers(1))
        .run(&campaign)
        .expect("scalar run");
    let wedged = Campaign {
        batch: Some(BatchSpec {
            run: Arc::new(|ctx, _group, _budget, _watch, _rung| {
                let t0 = Instant::now();
                while !ctx.budget().cancel_token().should_stop()
                    && t0.elapsed() < Duration::from_secs(4)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err("wedged word machine stopped".into())
            }),
            ..campaign.batch.clone().expect("batch spec")
        }),
        ..campaign
    };

    // Six lanes x 100 ms: the group gets what its cases would have had.
    let cfg = batch_config(1).with_timeout(Duration::from_millis(100));
    let t0 = Instant::now();
    let (report, text) = run_with_events("batch-timeout", cfg, &wedged);
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(3), "group ran for {took:?}");
    assert_eq!(
        report::cases_csv(&scalar.result),
        report::cases_csv(&report.result)
    );
    assert_eq!((report.path, report.stats.fallbacks), ("batch", 6));
    let fallbacks = events_of(&text, "batch", "fallback");
    assert_eq!(fallbacks.len(), 1, "one group falls back:\n{text}");
    assert!(
        fallbacks[0].contains("wedged word machine stopped"),
        "{}",
        fallbacks[0]
    );
}

#[test]
fn a_group_runs_on_its_own_deadline_not_the_golden_runs() {
    // 576 cases are groups of 504 and 72 for one worker. Each group's
    // snapshot carries the budget of the golden run that captured it,
    // whose deadline (one 50 ms timeout from the golden run's start) the
    // sink lets pass by holding the first record: the second group must
    // run under its own budget (72 x 50 ms), not trip the expired one.
    let times = plan::uniform_times(Time::from_ns(100), Time::from_ns(1900), 72);
    let campaign = counter_campaign(&ALL_BITS, &times, None);
    let held = AtomicUsize::new(0);
    let sink = RecordSink::new(move |_, _| {
        if held.fetch_add(1, Ordering::Relaxed) == 0 {
            std::thread::sleep(Duration::from_millis(300));
        }
    });
    let cfg = batch_config(1)
        .with_timeout(Duration::from_millis(50))
        .with_record_sink(sink);
    let report = Engine::new(cfg).run(&campaign).expect("word run");
    assert_eq!((report.path, report.stats.fallbacks), ("batch", 0));
}

// ---- One claim loop: every pending case exactly once, on every plan ----

#[test]
fn every_pending_case_is_booked_exactly_once_on_every_plan() {
    let campaign = counter_campaign(&[0, 3, 7], &times(), None);
    let full = Engine::new(EngineConfig::default().with_workers(1))
        .run(&campaign)
        .expect("full scalar run")
        .result
        .cases;
    // Half the list, of which the first two cases were finished elsewhere.
    let shard = Shard::new(1, 2).expect("shard 1/2");
    let owned: Vec<usize> = shard.case_indices(full.len()).collect();
    let (completed, left) = owned.split_at(2);

    type Plan = fn(EngineConfig) -> EngineConfig;
    let plans: [(&str, Plan); 3] = [
        ("scalar", |cfg| cfg),
        ("fork", |cfg| cfg.with_checkpoint(true)),
        ("batch", |cfg| cfg.with_batch(true)),
    ];
    for (path, plan) in plans {
        for workers in [1, 3] {
            for sharded in [false, true] {
                let what = format!("{path}, {workers} worker(s), sharded: {sharded}");
                let booked = Arc::new(Mutex::new(Vec::new()));
                let sink = Arc::clone(&booked);
                let mut cfg = plan(EngineConfig::default().with_workers(workers)).with_record_sink(
                    RecordSink::new(move |index, _| sink.lock().unwrap().push(index)),
                );
                let pending: Vec<usize> = if sharded {
                    cfg = cfg.with_shard(shard).with_completed(completed.to_vec());
                    left.to_vec()
                } else {
                    (0..full.len()).collect()
                };
                let report = Engine::new(cfg).run(&campaign).expect("engine run");
                assert_eq!((report.path, report.stats.fallbacks), (path, 0), "{what}");

                let mut booked = booked.lock().unwrap().clone();
                booked.sort_unstable();
                assert_eq!(booked, pending, "{what}: indices the sink saw");
                // In index order, each row the full scalar run's.
                let rows: Vec<&CaseResult> = pending.iter().map(|&i| &full[i]).collect();
                assert_eq!(
                    report.result.cases.iter().collect::<Vec<_>>(),
                    rows,
                    "{what}"
                );
            }
        }
    }
}

// ---- One golden ladder: word groups fork from the golden run's snapshots ----

#[test]
fn word_cases_csv_is_byte_identical_on_whole_sharded_and_resumed_lists() {
    for (name, limit) in [("cpu", 160), ("cpu-set", 200)] {
        let campaign = campaigns::build(name, Some(limit)).expect("catalog campaign");
        // The later half only: every group starts late, from a snapshot
        // the golden run took past the whole first half of its cases.
        let first_half: Vec<usize> = (0..limit / 2).collect();
        let shard = Shard::new(1, 3).expect("shard 1/3");
        type Subset = fn(EngineConfig, &[usize], Shard) -> EngineConfig;
        let subsets: [(&str, Subset); 3] = [
            ("whole list", |cfg, _, _| cfg),
            ("shard 1/3", |cfg, _, shard| cfg.with_shard(shard)),
            ("later half", |cfg, done, _| {
                cfg.with_completed(done.to_vec())
            }),
        ];
        for (what, subset) in subsets {
            let scalar = Engine::new(subset(
                EngineConfig::default().with_workers(2),
                &first_half,
                shard,
            ))
            .run(&campaign)
            .expect("scalar run");
            let expected = report::cases_csv(&scalar.result);
            assert!(expected.lines().count() > 1, "{name}, {what}: no cases ran");
            for workers in [1, 3] {
                let word = Engine::new(subset(batch_config(workers), &first_half, shard))
                    .run(&campaign)
                    .expect("word run");
                assert_eq!(scalar.result.golden, word.result.golden);
                assert_eq!(
                    expected,
                    report::cases_csv(&word.result),
                    "{name}, {what}, {workers} worker(s): cases.csv differs from scalar"
                );
            }
        }
    }
}

// ---- Lane guards: step caps measured against the word's one counter ----

#[test]
fn step_capped_word_runs_equal_the_equally_capped_scalar_runs() {
    // Every lane budget is armed with a step cap and nothing else, so all
    // of them ride on the word machine's own step counter. The cap has to
    // cover the fault-free run from power-on (under it the golden run
    // fails, which is fatal on every path) and a lane counts from its
    // injection only, so none trips: what is pinned is that armed lanes
    // change no answer, at either lane grouping.
    let cap = 100_000;
    for (name, limit) in [("cpu", 160), ("cpu-set", 200)] {
        let campaign = campaigns::build(name, Some(limit)).expect("catalog campaign");
        let scalar = Engine::new(EngineConfig::default().with_workers(2).with_max_steps(cap))
            .run(&campaign)
            .expect("scalar run");
        let expected = report::cases_csv(&scalar.result);
        for workers in [1, 3] {
            let word = Engine::new(batch_config(workers).with_max_steps(cap))
                .run(&campaign)
                .expect("word run");
            assert_eq!(
                expected,
                report::cases_csv(&word.result),
                "{name}, {workers} worker(s): cases.csv differs from scalar under a step cap"
            );
        }
    }
}

#[test]
fn a_step_cap_trips_the_lanes_that_outrun_it_and_no_others() {
    // Both benches have a time point every 5 ns (the processor evaluates on
    // both clock edges), so a lane lives `(end - injection) / 5 ns` steps,
    // its end being its seal instant or the horizon. Lanes well over the
    // cap must trip exactly one step past it; lanes well under must come
    // out as if unguarded. (A few steps either side are left open: pulse
    // edges and the re-opened injection instant are time points too.)
    //
    // The `cpu` cases are upsets of the table and loop counter (RAM words
    // 0..=4, state bits 15..55 of 143): nothing restores them, so those at
    // 2 us live to the horizon, past the cap, and those at 3 us stay under
    // it. A word the program never reads seals at once.
    let tick = Time::from_ns(5);
    let horizon = Time::from_us(20);
    let live_ram: fn(usize) -> bool = |i| (15..55).contains(&(i % 143));
    let every_11th: fn(usize) -> bool = |i| i.is_multiple_of(11);
    for (name, cap, pick) in [("cpu", 3_500u64, live_ram), ("cpu-set", 600, every_11th)] {
        let campaign = campaigns::build(name, None).expect("catalog campaign");
        // Early and late injections in one word.
        let group: Vec<usize> = (0..campaign.cases.len())
            .filter(|&i| pick(i))
            .take(63)
            .collect();
        let free = run_word_spec(&campaign, &group, SimBudget::unlimited());
        let capped = run_word_spec(
            &campaign,
            &group,
            SimBudget::unlimited().with_max_steps(cap),
        );
        assert_eq!(free.golden, capped.golden);

        let (mut tripped, mut spared) = (0, 0);
        for (lane, (free, capped)) in free.outcomes.iter().zip(&capped.outcomes).enumerate() {
            let at = campaign.cases[group[lane]].injected_at;
            let end = match free {
                LaneOutcome::Completed { sealed_at, .. } | LaneOutcome::Clean { sealed_at } => {
                    sealed_at.unwrap_or(horizon)
                }
                other => panic!("{name}, unguarded lane {lane}: {other:?}"),
            };
            let lived = ((end - at).as_fs() / tick.as_fs()) as u64;
            if lived > cap + 8 {
                let expected = format!("step-budget-exhausted steps={} t=", cap + 1);
                assert!(
                    matches!(capped, LaneOutcome::Failed { error } if error.starts_with(&expected)),
                    "{name}, lane {lane} ({lived} steps from {at}): {capped:?}"
                );
                tripped += 1;
            } else if lived + 8 < cap {
                match (free, capped) {
                    (
                        LaneOutcome::Completed { toggles, sealed_at },
                        LaneOutcome::Completed {
                            toggles: t,
                            sealed_at: s,
                        },
                    ) => assert!(toggles == t && sealed_at == s, "{name}, lane {lane}"),
                    (LaneOutcome::Clean { sealed_at }, LaneOutcome::Clean { sealed_at: s }) => {
                        assert_eq!(sealed_at, s, "{name}, lane {lane}")
                    }
                    other => panic!("{name}, lane {lane} under the cap: {other:?}"),
                }
                spared += 1;
            }
        }
        assert!(
            tripped > 0 && spared > 0,
            "{name}: {tripped} lanes tripped, {spared} spared"
        );
    }
}

// ---- The golden lane must be the campaign's golden run ----

#[test]
fn a_group_whose_golden_lane_differs_falls_back_to_scalar() {
    // A spec whose first group reports a golden lane with one wave more than
    // the campaign's golden run has. Lanes of that group were compared
    // against the wrong golden; the engine must notice, say why, and run
    // the group scalar.
    let times = plan::uniform_times(Time::from_ns(100), Time::from_ns(1900), 72);
    let base = counter_campaign(&ALL_BITS, &times, None);
    let expected = report::cases_csv(
        &Engine::new(EngineConfig::default().with_workers(1))
            .run(&base)
            .expect("scalar run")
            .result,
    );

    let spec = base.batch.clone().expect("batch spec");
    let inner = Arc::clone(&spec.run);
    let calls = AtomicUsize::new(0);
    let campaign = Campaign {
        batch: Some(BatchSpec {
            run: Arc::new(move |ctx, group, budget, watch, rung| {
                let mut report = inner(ctx, group, budget, watch, rung)?;
                if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                    report.golden.record_digital("extra", T_END, Logic::One)?;
                }
                Ok(report)
            }),
            ..spec
        }),
        ..base
    };

    let (report, text) = run_with_events("golden-lane", batch_config(1), &campaign);
    assert_eq!(expected, report::cases_csv(&report.result));
    // 576 cases in groups of 504 and 72: the first group's cases re-ran
    // scalar.
    assert_eq!((report.path, report.stats.fallbacks), ("batch", 504));

    let fallbacks = events_of(&text, "batch", "fallback");
    assert_eq!(fallbacks.len(), 1, "one group falls back:\n{text}");
    assert!(
        fallbacks[0].contains("golden lane differs from the golden run"),
        "{}",
        fallbacks[0]
    );
}

/// `digital_events` of one engine run of `campaign` under `cfg`.
fn digital_events(campaign: &Campaign, cfg: EngineConfig) -> u64 {
    let tele = Telemetry::builder()
        .build()
        .expect("metrics-only telemetry");
    Engine::new(cfg.with_telemetry(tele.clone()))
        .run(campaign)
        .expect("engine run");
    tele.metrics().expect("enabled").digital_events.get()
}

#[test]
fn word_prefix_cost_is_paid_once_per_run() {
    // Not a wall-clock test: kernel events are counted. The golden run, the
    // one pass over the fault-free prefix, is unmetered, so what is counted
    // is the groups' own suffixes — not a golden horizon per word of cases.
    let campaign = campaigns::build("cpu-set", None).expect("cpu-set campaign");
    let words = campaign.cases.len().div_ceil(63) as u64;
    assert!(words >= 8, "need a campaign of many words, got {words}");
    let golden_only = campaigns::build("cpu-set", Some(0)).expect("empty cpu-set");
    let horizon = digital_events(&golden_only, EngineConfig::default().with_workers(1));
    assert!(horizon > 0);

    for workers in [1, 3] {
        let word = digital_events(&campaign, batch_config(workers));
        assert!(
            word * 10 < words * horizon * 4,
            "{workers} worker(s): {word} events over {words} words is not under 40 % of \
             {words} x {horizon}"
        );
    }
}

#[test]
fn word_builds_once_per_run_and_says_so_in_the_events() {
    // 8 bits x 189 instants = 3 full groups of 504 on one worker. A counter
    // upset never reconverges, so each group takes 8 full machines. Every
    // group forks from the golden run's snapshot at its first instant, so
    // `build` runs once, for the golden run.
    let times = plan::uniform_times(Time::from_ns(100), Time::from_ns(1900), 189);
    let (campaign, builds) = counted_campaign(&ALL_BITS, &times, None, build_counter);
    let (report, text) = run_with_events("word-builds", batch_config(1), &campaign);
    assert_eq!(report.result.cases.len(), 1512);
    assert_eq!(
        builds.load(Ordering::Relaxed),
        1,
        "one build, for the golden run"
    );

    let golden = events_of(&text, "span", "golden");
    assert_eq!(count_field(golden[0], "snapshots"), 3, "one per group");
    let spans = events_of(&text, "span", "batch");
    assert_eq!(spans.len(), 3, "one batch span per group:\n{text}");
    for (g, span) in spans.iter().enumerate() {
        // Group `g` starts with case `504 g`, of instant `63 g`.
        assert_eq!(count_field(span, "from_fs") as i64, times[63 * g].as_fs());
        let machines = (count_field(span, "machines"), count_field(span, "refills"));
        assert_eq!(machines, (8, 0), "{span}");
    }
}

#[test]
fn several_workers_claim_several_groups_of_whole_words_each() {
    // The same 1512 cases on three workers: four groups each, rounded up to
    // whole words, are twelve groups of 126 — not three of 504, which would
    // leave work stealing nothing to even out. Still one build per run.
    let times = plan::uniform_times(Time::from_ns(100), Time::from_ns(1900), 189);
    let (campaign, builds) = counted_campaign(&ALL_BITS, &times, None, build_counter);
    let (report, text) = run_with_events("groups-per-worker", batch_config(3), &campaign);
    assert_eq!((report.path, report.stats.fallbacks), ("batch", 0));
    assert_eq!(builds.load(Ordering::Relaxed), 1);
    let spans = events_of(&text, "span", "batch");
    assert_eq!(spans.len(), 12, "{text}");
    for span in spans {
        let group = (count_field(span, "lanes"), count_field(span, "machines"));
        assert_eq!(group, (126, 2), "{span}");
    }
}

/// Runs `group` through the campaign's batch spec from the golden run's
/// snapshot at its first instant, as the engine would, with `budget`
/// installed on every lane (the machine itself unguarded).
fn run_word_spec(campaign: &Campaign, group: &[usize], budget: SimBudget) -> BatchReport {
    let fork = &campaign.fork;
    let ctx = CaseCtx::detached(None);
    let first = [campaign.cases[group[0]].injected_at];
    let mut rung = None;
    (fork.golden)(&ctx, &first, &mut |_, snap| rung = Some(snap)).expect("golden run");
    let spec = campaign.batch.as_ref().expect("batch spec");
    (spec.run)(&ctx, group, budget, None, rung.expect("a snapshot")).expect("word group")
}

#[test]
fn unseedable_groups_fall_back_to_scalar() {
    // An external drive pending past the first injection has no 64-lane
    // form: every group must degrade to the scalar path (which honours
    // the drive) instead of panicking or dropping it.
    fn build_with_external() -> Simulator {
        let mut net = Netlist::new();
        let clk = net.signal("clk", 1);
        let rst = net.signal("rst", 1);
        let en = net.signal("en", 1);
        let q = net.signal("q", 8);
        net.add("ck", cells::ClockGen::new(Time::from_ns(20)), &[], &[clk]);
        net.add("r", cells::ConstVector::bit(Logic::Zero), &[], &[rst]);
        net.add(
            "ctr",
            cells::Counter::new(8, Time::ZERO),
            &[clk, rst, en],
            &[q],
        );
        let mut sim = Simulator::new(net);
        sim.monitor_name("q");
        // `en` has no driver: it is enabled from outside, late in the run.
        sim.inject_value(en, LogicVector::filled(Logic::One, 1), Time::from_ns(1500));
        sim
    }
    // 8 bits x 72 instants = 576 cases: groups of 504 and 72 on one worker.
    let times = plan::uniform_times(Time::from_ns(100), Time::from_ns(900), 72);
    let (campaign, builds) = counted_campaign(&ALL_BITS, &times, None, build_with_external);
    let scalar = Engine::new(EngineConfig::default().with_workers(1))
        .run(&campaign)
        .expect("scalar run");
    assert!(
        scalar
            .result
            .golden
            .digital("q[0]")
            .is_some_and(|w| w.len() > 2),
        "the external enable must make the counter count"
    );

    builds.store(0, Ordering::Relaxed);
    let word = Engine::new(batch_config(1))
        .run(&campaign)
        .expect("word run");
    assert_eq!(
        report::cases_csv(&scalar.result),
        report::cases_csv(&word.result)
    );
    // The golden run, and every case again on the scalar path: a group
    // never builds.
    assert_eq!(word.stats.fallbacks, 576);
    assert_eq!(builds.load(Ordering::Relaxed), 1 + 576);
}
