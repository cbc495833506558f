//! **PR 10 word bench** — word-parallel gate evaluation must never
//! change a verdict, and must beat the lane-cloned batch path where the
//! cloned path's overhead dominates. Runs the digital catalog campaigns
//! through the engine with `--batch` (64 cloned scalar machines in lock
//! step) and `--batch --word` (one plane-valued event wheel, 63 mutant
//! lanes + an in-word golden lane) and emits
//! `results/bench/BENCH_pr10.json`.
//!
//! Hard gates:
//!
//! 1. **Per-lane verdict parity** — on every campaign with a word path
//!    (`cpu`, `cpu-set`), the word run's `CaseResult`s are
//!    **byte-identical** to both the scalar and the lane-cloned batch
//!    run's (full struct equality, golden trace included).
//! 2. **≥3× wall-clock at 8 workers** on `cpu`, the SEU campaign, word
//!    vs lane-cloned. This is exactly the regime where word parallelism
//!    pays: corrupted-register lanes genuinely need the whole
//!    observation window, so the cloned path simulates ~64 full event
//!    wheels per group while the word machine turns one wheel of masked
//!    plane operations.
//!
//! The `cpu-set` numbers are recorded but *not* gated at 3×: its lanes
//! are mostly logically masked and seal within a stop or two of the
//! pulse retiring, so both batch paths spend their time on the shared
//! golden machine — the cloned path once per group, the word path once
//! per worker since its groups fork from a rolling scalar cursor — and
//! the ratio depends on how many groups a worker gets. (That campaign's
//! gate is the lane-cloned ≥10× vs scalar in `pr7_batch_bench`, which
//! this bench must not regress.)
//!
//! ```text
//! cargo run --release -p amsfi-bench --bin pr10_word_bench
//! ```

use amsfi_bench::banner;
use amsfi_engine::{campaigns, Campaign, Engine, EngineConfig, EngineReport};
use std::time::Duration;

/// Interleaved cloned/word round pairs per timed campaign.
const ROUNDS: usize = 3;
/// Campaign runs per sample (single runs quantize badly; see pr4).
const RUNS_PER_SAMPLE: usize = 2;
/// Full-measurement retries before the speedup verdict is final.
const MAX_ATTEMPTS: usize = 3;
/// Hard gate: word wall-clock speedup over lane-cloned batch on the SEU
/// campaign at 8 workers.
const SPEEDUP_MIN: f64 = 3.0;

fn config() -> EngineConfig {
    EngineConfig::default().with_workers(8)
}

fn run(campaign: &Campaign, config: &EngineConfig) -> EngineReport {
    Engine::new(config.clone())
        .run(campaign)
        .expect("bench campaign run")
}

fn time_once(campaign: &Campaign, config: &EngineConfig) -> Duration {
    let start = std::time::Instant::now();
    run(campaign, config);
    start.elapsed()
}

fn sample(campaign: &Campaign, config: &EngineConfig) -> Duration {
    (0..RUNS_PER_SAMPLE)
        .map(|_| time_once(campaign, config))
        .min()
        .expect("at least one run")
}

/// Paired interleaved wall-clock measurement (lane-cloned vs word), best
/// of `ROUNDS` each.
fn measure(campaign: &Campaign, cloned_cfg: &EngineConfig, word_cfg: &EngineConfig) -> (f64, f64) {
    let mut cloned = Duration::MAX;
    let mut word = Duration::MAX;
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            cloned = cloned.min(sample(campaign, cloned_cfg));
            word = word.min(sample(campaign, word_cfg));
        } else {
            word = word.min(sample(campaign, word_cfg));
            cloned = cloned.min(sample(campaign, cloned_cfg));
        }
    }
    (cloned.as_secs_f64(), word.as_secs_f64())
}

/// Asserts full byte-identical results: golden trace and every
/// `CaseResult` field (class, onsets, affected, mismatch, trace).
fn assert_byte_identical(name: &str, label: &str, a: &EngineReport, b: &EngineReport) {
    assert_eq!(
        a.result.golden, b.result.golden,
        "{name}: golden trace diverged ({label})"
    );
    assert_eq!(
        a.result.cases.len(),
        b.result.cases.len(),
        "{name}: case count diverged ({label})"
    );
    for (x, y) in a.result.cases.iter().zip(&b.result.cases) {
        assert_eq!(
            x, y,
            "{name}/{}: case result diverged ({label})",
            x.case.label
        );
    }
}

struct Row {
    name: &'static str,
    cases: usize,
    occupancy_p50: u64,
    cloned_s: f64,
    word_s: f64,
    speedup: f64,
    gated: bool,
}

fn bench_campaign(name: &'static str, gated: bool) -> Row {
    let campaign = campaigns::build(name, None).expect("catalog campaign");
    assert!(
        campaign.word.is_some(),
        "{name}: campaign lost its word spec"
    );
    let scalar_cfg = config();
    let cloned_cfg = config().with_batch(true);
    let word_cfg = config().with_batch(true).with_word(true);

    // Gate 1: three-way byte-identical results on dedicated runs before
    // timing. The word parity run carries kernel metrics so the
    // lane-occupancy histogram is observable.
    let tele = amsfi_engine::Telemetry::builder()
        .build()
        .expect("in-memory telemetry");
    let scalar_run = run(&campaign, &scalar_cfg);
    let cloned_run = run(&campaign, &cloned_cfg);
    let word_run = run(&campaign, &word_cfg.clone().with_telemetry(tele.clone()));
    assert_byte_identical(name, "scalar vs word", &scalar_run, &word_run);
    assert_byte_identical(name, "cloned vs word", &cloned_run, &word_run);
    let occupancy_p50 = tele
        .metrics()
        .map(|m| m.snapshot())
        .and_then(|s| s.hist("lane_occupancy").map(|h| h.percentile(50.0)))
        .unwrap_or(0);

    // Gate 2 (gated campaigns only): wall-clock speedup of the word path
    // over the lane-cloned path, best of up to MAX_ATTEMPTS measurements.
    let (mut cloned_s, mut word_s) = measure(&campaign, &cloned_cfg, &word_cfg);
    for _ in 1..MAX_ATTEMPTS {
        if !gated || cloned_s / word_s >= SPEEDUP_MIN {
            break;
        }
        let (c, w) = measure(&campaign, &cloned_cfg, &word_cfg);
        if c / w > cloned_s / word_s {
            (cloned_s, word_s) = (c, w);
        }
    }
    let speedup = cloned_s / word_s;
    println!(
        "  {name:>12}: {} cases, ~{occupancy_p50}/63 mutant lanes live (p50), cloned {:.3}s, \
         word {:.3}s, speedup {speedup:.2}x{}",
        campaign.cases.len(),
        cloned_s,
        word_s,
        if gated { "  [gated >=3x]" } else { "" }
    );
    Row {
        name,
        cases: campaign.cases.len(),
        occupancy_p50,
        cloned_s,
        word_s,
        speedup,
        gated,
    }
}

fn main() {
    banner("PR 10 — word-parallel evaluation (--batch vs --batch --word at 8 workers)");
    let rows = vec![
        // SEU campaign: parity gated AND the >=3x wall-clock gate — every
        // lane lives to the horizon, so the word wheel replaces ~64 cloned
        // event wheels outright.
        bench_campaign("cpu", true),
        // SET campaign: parity gated, speedup recorded honestly (lanes
        // seal early on both paths, so both mostly simulate the shared
        // golden machine and the word win is structurally bounded).
        bench_campaign("cpu-set", false),
    ];

    let mut entries = String::new();
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        entries.push_str(&format!(
            "    {{\n      \"campaign\": \"{}\",\n      \"cases\": {},\n      \
             \"lane_occupancy_p50\": {},\n      \
             \"cloned_s\": {:.6},\n      \"word_s\": {:.6},\n      \
             \"speedup\": {:.4},\n      \"speedup_gated\": {}\n    }}{sep}\n",
            r.name, r.cases, r.occupancy_p50, r.cloned_s, r.word_s, r.speedup, r.gated,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"pr10_word\",\n  \"workers\": 8,\n  \"rounds\": {ROUNDS},\n  \
         \"runs_per_sample\": {RUNS_PER_SAMPLE},\n  \"speedup_min\": {SPEEDUP_MIN},\n  \
         \"verdict_parity\": \"full CaseResult byte-identity of the word run against both \
         the scalar and the lane-cloned batch run, golden trace included\",\n  \
         \"note\": \"the >=3x gate holds on cpu, the SEU campaign: corrupted-register \
         lanes need the whole observation window, so the cloned path pays ~64 event \
         wheels and per-lane vector allocations per group while the word machine turns \
         one wheel of masked plane operations. cpu-set lanes seal early on both paths, \
         so both mostly simulate the shared golden machine: the cloned path once per \
         group, the word path once per worker (its groups fork from a rolling scalar \
         cursor). That ratio is recorded but not gated; cpu-set's own gate is the \
         cloned-vs-scalar >=10x in pr7_batch_bench\",\n  \
         \"campaigns\": [\n{entries}  ]\n}}\n"
    );
    let path: std::path::PathBuf = std::env::var_os("AMSFI_BENCH_JSON")
        .map_or_else(|| "results/bench/BENCH_pr10.json".into(), Into::into);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create bench output dir");
    }
    std::fs::write(&path, &json).expect("write bench json");
    println!("\n  -> wrote {}", path.display());

    for r in &rows {
        if r.gated {
            assert!(
                r.speedup >= SPEEDUP_MIN,
                "{}: word speedup {:.2}x below the {SPEEDUP_MIN}x gate",
                r.name,
                r.speedup
            );
        }
    }
    println!("  all campaigns byte-identical; cpu word >= {SPEEDUP_MIN}x over cloned at 8 workers");
}
