//! One run: set-up repetitions, a warm-up pass, timed passes over the same
//! seeded case list until the clock and the pass minimum are both met,
//! then verification; and the metrics derived from them.
//!
//! Closed loop, fixed work, exactly one engine thread. The main thread
//! blocks in `Engine::run` (or, on serve, sleeps between polls of a
//! counter) while the simulating happens.

use crate::adapter::fleet::{self, Fleet, ServeCounters};
use crate::adapter::{self, probes, Counters, PassReport, Path as EnginePath, Prepared};
use crate::catalog::{END_TO_END, PER_LAYER};
use crate::spans::{Recorder, Span};
use crate::sys;
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions in a measuring (`--trace 0`) run.
const SETUP_REPS: usize = 15;
/// Timed passes a measuring run makes at the very least.
const MIN_PASSES: usize = 8;
/// The scalar second opinion covers every this-many-th case: the run's
/// time cap does not leave room for all of them (the checked-in
/// references, made by `regen-reference`, do cover all).
const ORACLE_STRIDE: usize = 8;
/// Seeds whose verdicts are checked in under `benchmark/reference/`.
pub const REFERENCE_SEEDS: [u64; 2] = [1, 2];
/// Share of `--seconds` a traced run spends in timed passes; the rest is
/// left for the probes and, on serve, the in-process reference passes, so
/// that traced and plain runs take about as long.
const TRACED_PASS_SHARE: f64 = 0.7;
/// See [`TRACED_PASS_SHARE`].
const TRACED_SERVE_PASS_SHARE: f64 = 0.5;
/// Plain in-process passes the traced serve run takes its reference rate
/// from (their fastest, like the serve rate it is compared with).
const REFERENCE_PASSES: usize = 4;
/// How often the serve loop looks at the completion counter.
const SERVE_POLL: Duration = Duration::from_micros(500);
/// Longest the serve loop waits for one completion.
const SERVE_TIMEOUT: Duration = Duration::from_secs(120);

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seeds the case list (and nothing else).
    pub seed: u64,
    /// Minimum length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced run: spans, probes, per-layer metrics.
    pub trace: bool,
    /// Tiny case lists and two passes, for the self-test.
    pub shrink: bool,
    /// Test seam: alter one verdict of the second timed pass, which the
    /// oracle must catch.
    pub corrupt: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalog name.
    pub name: &'static str,
    /// The measurement.
    pub value: f64,
    /// Catalog unit.
    pub unit: &'static str,
}

/// Secondary estimators and identities of a run, for the noise study and
/// the self-test; never part of the contract line.
#[derive(Debug, Clone, Default)]
pub struct Study {
    /// Timed passes made.
    pub passes: usize,
    /// Cases in one pass.
    pub cases: usize,
    /// Wall time of the fastest / median timed pass, seconds.
    pub fastest_pass_s: f64,
    /// See `fastest_pass_s`.
    pub median_pass_s: f64,
    /// Cases of all timed passes over the whole timed interval.
    pub total_rate: f64,
    /// Minimum / median of the set-up repetitions, seconds.
    pub setup_min_s: f64,
    /// See `setup_min_s`.
    pub setup_median_s: f64,
    /// `/proc/loadavg` (1 min) when the run started.
    pub loadavg1: f64,
    /// FNV-1a of the seeded case list.
    pub case_list_digest: u64,
    /// FNV-1a of the first timed pass's `cases.csv`.
    pub verdict_digest: u64,
    /// Verdict tally of the first timed pass (classes that occur).
    pub tally: BTreeMap<String, usize>,
    /// Wall time of every timed pass, in order, seconds.
    pub pass_walls_s: Vec<f64>,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every oracle check passed.
    pub correct: bool,
    /// Cases attempted over the timed passes.
    pub attempted: u64,
    /// Cases failed: errored, skipped, quarantined, timed out, sim-failed,
    /// or belonging to a pass that differs from the oracle.
    pub failed: u64,
    /// End-to-end metrics (`trace` off) or per-layer metrics (`trace` on).
    pub metrics: Vec<Metric>,
    /// Secondary numbers.
    pub study: Study,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
    /// Where the traced run wrote its spans.
    pub span_file: Option<PathBuf>,
}

/// FNV-1a (64-bit) of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The median of `values` (0 for none).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `values` (`p` in 0..=100).
fn percentile(mut values: Vec<f64>, p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One timed pass, whichever way it was produced.
#[derive(Debug, Clone)]
struct Pass {
    wall: Duration,
    cpu: Duration,
    /// Case-level spans and kernel counters were on.
    traced: bool,
    /// `(start_ns, end_ns)` of the pass span; consecutive passes tile.
    window: (u64, u64),
    stage_ns: [u64; 3],
    counters: Option<Counters>,
}

/// What the timed phase hands to verification and metric derivation.
struct Timed {
    passes: Vec<Pass>,
    /// `VmHWM` read when the last of the minimum passes ended.
    peak_rss_mb: f64,
    verdicts: Verdicts,
    serve: Option<ServeExtras>,
}

/// What the passes answered: the first pass's `cases.csv` in full, every
/// pass after it only as "the same bytes or not", so that the harness does
/// not hold a copy per pass against the program's `peak_rss_mb`.
#[derive(Default)]
struct Verdicts {
    first_csv: String,
    /// `(attempted, failed, same bytes as the first pass)` per pass.
    passes: Vec<(usize, usize, bool)>,
}

impl Verdicts {
    fn push(&mut self, attempted: usize, failed: usize, csv: String) {
        if self.passes.is_empty() {
            self.first_csv = csv;
            self.passes.push((attempted, failed, true));
        } else {
            self.passes.push((attempted, failed, csv == self.first_csv));
        }
    }
}

/// Serve-only readings of a traced run.
#[derive(Default)]
struct ServeExtras {
    counters: ServeCounters,
    /// Cases merged while `counters` accumulated.
    cases_merged: u64,
    idle_pickup_ms: Vec<f64>,
    /// In-process scalar passes over the same list: the traced one and
    /// the fastest untraced one.
    reference: Option<(Pass, Duration)>,
}

struct Run<'a> {
    opts: &'a Options,
    rec: Arc<Recorder>,
    root_span: u64,
}

impl Run<'_> {
    fn min_passes(&self) -> usize {
        if self.opts.shrink {
            2
        } else {
            MIN_PASSES
        }
    }

    fn scratch(&self) -> PathBuf {
        crate::root().join("out")
    }

    /// A directory no other run (or test thread) uses.
    fn serve_dir(&self, tag: &str) -> PathBuf {
        self.scratch().join(format!(
            "serve-{}-{}-{tag}",
            std::process::id(),
            self.rec.run_id()
        ))
    }

    fn phase<T>(&self, name: &str, f: impl FnOnce(u64) -> T) -> T {
        self.rec.scope(self.root_span, name, f)
    }

    /// One set-up repetition: seed to first verdict on fresh objects.
    fn setup_rep(&self, k: usize, parent: u64) -> Result<f64, String> {
        let opts = self.opts;
        self.rec.scope(parent, &format!("setup {k}"), |span| {
            self.rec.set_ambient(span);
            let took = if opts.workload == Workload::CpuSeuServe {
                let dir = self.serve_dir(&format!("setup{k}"));
                fleet::first_verdict(opts.seed, opts.shrink, &self.rec, &dir)
            } else {
                adapter::first_verdict(opts.workload, opts.seed, opts.shrink, &self.rec)
            };
            took.map(|d| d.as_secs_f64())
        })
    }

    /// How many set-up repetitions the run makes, and how many of them up
    /// front. A measuring in-process run keeps one for after each of the
    /// first 8 timed passes: the host's slow spells last seconds, so
    /// repetitions spread over the run are far likelier to include an
    /// undisturbed one than 15 made within a fifth of a second. (A serve
    /// repetition starts a fleet of its own, which must not run beside the
    /// timed one.)
    fn setup_plan(&self) -> (usize, usize) {
        let opts = self.opts;
        match (opts.shrink, opts.trace) {
            (true, _) => (2, 2),
            // The traced run does not report `setup_s`; a few repetitions
            // are enough to put the phase in the span file.
            (false, true) => (3, 3),
            (false, false) if opts.workload == Workload::CpuSeuServe => (SETUP_REPS, SETUP_REPS),
            (false, false) => (SETUP_REPS, SETUP_REPS - MIN_PASSES),
        }
    }

    /// Runs passes back to back until `seconds` have gone and the pass
    /// minimum is met. `one_pass(k, traced, pass_span)` makes pass `k`;
    /// pass spans tile the timed interval.
    fn pass_loop(
        &self,
        alternate_tracing: bool,
        mut one_pass: impl FnMut(usize, bool, u64) -> Result<Pass, String>,
    ) -> Result<(Vec<Pass>, f64), String> {
        let share = match (self.opts.trace, self.opts.workload) {
            (false, _) => 1.0,
            (true, Workload::CpuSeuServe) => TRACED_SERVE_PASS_SHARE,
            (true, _) => TRACED_PASS_SHARE,
        };
        let budget = Duration::from_secs_f64(self.opts.seconds * share);
        let started = Instant::now();
        let mut passes: Vec<Pass> = Vec::new();
        let mut peak_rss_mb = 0.0;
        let mut open = self.rec.open();
        while started.elapsed() < budget || passes.len() < self.min_passes() {
            let k = passes.len();
            // A traced run alternates traced and plain passes, so one run
            // yields both the layer numbers and what tracing costs.
            let traced = self.opts.trace && (!alternate_tracing || k.is_multiple_of(2));
            self.rec.set_case_level(traced);
            let mut pass = one_pass(k, traced, open.0)?;
            let next = self.rec.open();
            pass.window = (open.1, next.1);
            self.rec
                .close_at(open, self.root_span, format!("pass {k}"), next.1);
            open = next;
            passes.push(pass);
            // How many passes fit in `--seconds` depends on the host's speed
            // that day, and memory grows a little with every pass (a worker
            // thread's allocator arena, the coordinator's merged campaigns).
            // Reading the high-water mark after a fixed amount of work keeps
            // it a property of the program.
            if passes.len() == self.min_passes() {
                peak_rss_mb = sys::peak_rss_mb().unwrap_or(0.0);
            }
        }
        self.rec.set_case_level(false);
        Ok((passes, peak_rss_mb))
    }

    fn engine_pass(
        &self,
        prepared: &Prepared,
        traced: bool,
        parent: u64,
    ) -> Result<PassReport, String> {
        self.rec.scope(parent, "engine.run", |span| {
            self.rec.set_ambient(span);
            adapter::run_pass(prepared, EnginePath::Workload, traced)
        })
    }

    fn timed_in_process(
        &self,
        prepared: &Prepared,
        setups: &mut Vec<f64>,
    ) -> Result<Timed, String> {
        let setup_reps = self.setup_plan().0;
        self.phase("warm-up", |span| self.engine_pass(prepared, false, span))?;
        let mut verdicts = Verdicts::default();
        let (passes, peak_rss_mb) = self.pass_loop(true, |k, traced, span| {
            let mut report = self.engine_pass(prepared, traced, span)?;
            if self.opts.corrupt && k == 1 {
                report.csv = corrupt_one_verdict(&report.csv);
            }
            verdicts.push(report.attempted, report.failed, report.csv);
            if setups.len() < setup_reps {
                setups.push(self.setup_rep(setups.len(), span)?);
            }
            Ok(Pass {
                wall: report.wall,
                cpu: report.cpu,
                traced,
                window: (0, 0),
                stage_ns: report.stage_ns,
                counters: report.counters,
            })
        })?;
        Ok(Timed {
            passes,
            peak_rss_mb,
            verdicts,
            serve: None,
        })
    }

    /// `cpu-seu-serve`: two submissions stay outstanding, so the worker
    /// always finds the next campaign's first shard the moment it finishes
    /// the last one; a pass is the interval between successive campaign
    /// completions (leases are granted lowest campaign first, so
    /// completions do not interleave).
    fn timed_serve(&self, reference: &Prepared) -> Result<Timed, String> {
        let opts = self.opts;
        let dir = self.serve_dir("timed");
        let fleet = Fleet::start(opts.seed, opts.shrink, &self.rec, &dir, None)?;
        let outcome = self.drive_fleet(&fleet, reference);
        let stopped = fleet.stop();
        let timed = outcome?;
        stopped?;
        Ok(timed)
    }

    fn drive_fleet(&self, fleet: &Fleet, reference: &Prepared) -> Result<Timed, String> {
        let completed = |n: u64| move |c: &ServeCounters| c.campaigns_completed >= n;
        let mut ids = vec![fleet.submit(None)?, fleet.submit(None)?];
        let mut last = self.phase("warm-up", |span| {
            self.rec.set_ambient(span);
            fleet.wait(SERVE_POLL, SERVE_TIMEOUT, completed(1))
        })?;
        let before = fleet.counters();
        let mut last_cpu = sys::process_cpu();
        // The traced serve run keeps closure spans on throughout: passes
        // hand over inside the worker, where the harness cannot toggle.
        let (passes, peak_rss_mb) = self.pass_loop(false, |k, traced, span| {
            self.rec.set_ambient(span);
            ids.push(fleet.submit(None)?);
            let at = fleet.wait(SERVE_POLL, SERVE_TIMEOUT, completed(k as u64 + 2))?;
            let cpu_now = sys::process_cpu();
            let wall = at.duration_since(last);
            let cpu = match (last_cpu, cpu_now) {
                (Some(a), Some(b)) => b.saturating_sub(a),
                _ => wall,
            };
            (last, last_cpu) = (at, cpu_now);
            Ok(Pass {
                wall,
                cpu,
                traced,
                window: (0, 0),
                stage_ns: [0; 3],
                counters: None,
            })
        })?;
        let after = fleet.counters();
        let mut serve = ServeExtras {
            counters: ServeCounters {
                frames_rx: after.frames_rx - before.frames_rx,
                frames_tx: after.frames_tx - before.frames_tx,
                ..after
            },
            cases_merged: after.cases_merged - before.cases_merged,
            ..ServeExtras::default()
        };
        if self.opts.trace {
            self.phase("idle pickup", |span| {
                self.rec.set_ambient(span);
                self.idle_pickup(fleet, ids.len() as u64, &mut serve)
            })?;
            serve.reference = Some(self.phase("reference passes", |span| {
                self.reference_passes(reference, span)
            })?);
        }
        // Completed submissions are read back only now, so that rendering
        // them never competes with a timed pass for the second core.
        let mut verdicts = Verdicts::default();
        for (k, id) in ids.iter().skip(1).take(passes.len()).enumerate() {
            let (mut csv, merged, failed) = fleet.merged_csv(*id)?;
            if self.opts.corrupt && k == 1 {
                csv = corrupt_one_verdict(&csv);
            }
            verdicts.push(merged, failed, csv);
        }
        Ok(Timed {
            passes,
            peak_rss_mb,
            verdicts,
            serve: Some(serve),
        })
    }

    /// Submit on an idle fleet to first merged record, five times. Each
    /// probe submission is capped at one case so the fleet is idle again
    /// at once; a stagger walks the submissions across the poll period.
    fn idle_pickup(
        &self,
        fleet: &Fleet,
        submitted: u64,
        serve: &mut ServeExtras,
    ) -> Result<(), String> {
        // Let the submission still outstanding finish: the fleet must idle.
        fleet.wait(SERVE_POLL, SERVE_TIMEOUT, |c| {
            c.campaigns_completed >= submitted
        })?;
        for k in 0..5u64 {
            std::thread::sleep(Duration::from_millis(20 + (k * 53) % 250));
            let merged = fleet.counters().cases_merged;
            let t0 = Instant::now();
            fleet.submit(Some(1))?;
            let at = fleet.wait(Duration::from_micros(100), SERVE_TIMEOUT, |c| {
                c.cases_merged > merged
            })?;
            serve
                .idle_pickup_ms
                .push(at.duration_since(t0).as_secs_f64() * 1e3);
            fleet.wait(SERVE_POLL, SERVE_TIMEOUT, |c| {
                c.campaigns_completed > submitted + k
            })?;
        }
        Ok(())
    }

    /// The serve list run in process on the same single engine thread: one
    /// traced pass (counters, stage shares, spans) and a few plain ones.
    fn reference_passes(
        &self,
        prepared: &Prepared,
        parent: u64,
    ) -> Result<(Pass, Duration), String> {
        self.rec.set_case_level(true);
        let start = self.rec.now_ns();
        let traced = self.engine_pass(prepared, true, parent);
        self.rec.set_case_level(false);
        let traced = traced?;
        let window = (start, self.rec.now_ns());
        let mut fastest = Duration::MAX;
        let plain = if self.opts.shrink {
            1
        } else {
            REFERENCE_PASSES
        };
        for _ in 0..plain {
            fastest = fastest.min(self.engine_pass(prepared, false, parent)?.wall);
        }
        Ok((
            Pass {
                wall: traced.wall,
                cpu: traced.cpu,
                traced: true,
                window,
                stage_ns: traced.stage_ns,
                counters: traced.counters,
            },
            fastest,
        ))
    }

    /// Verification: every pass equal to the first, the scalar second
    /// opinion, and the checked-in reference. Returns the cases failed and
    /// what went wrong; every failed check fails all the cases of a pass.
    fn verify(
        &self,
        prepared: &Prepared,
        timed: &Timed,
        study: &Study,
    ) -> Result<(u64, Vec<String>), String> {
        let opts = self.opts;
        let cases = prepared.cases();
        let mut problems = Vec::new();
        let first = &timed.verdicts.first_csv;
        for (k, (attempted, _, same)) in timed.verdicts.passes.iter().enumerate() {
            if *attempted != cases {
                problems.push(format!("pass {k} settled {attempted} of {cases} cases"));
            } else if !same {
                problems.push(format!("pass {k}: cases.csv differs from pass 0"));
            }
        }
        if opts.workload.has_scalar_oracle() {
            let path = EnginePath::Oracle {
                stride: ORACLE_STRIDE,
            };
            let oracle = self.rec.scope(self.rec.ambient(), "oracle", |span| {
                self.rec.set_ambient(span);
                adapter::run_pass(prepared, path, false)
            })?;
            let expected: Vec<&str> = first.lines().skip(1).step_by(ORACLE_STRIDE).collect();
            let got: Vec<&str> = oracle.csv.lines().skip(1).collect();
            if expected != got {
                let at = expected.iter().zip(&got).position(|(a, b)| a != b);
                problems.push(format!(
                    "scalar from-scratch run disagrees (first at sampled case {at:?} of {})",
                    expected.len()
                ));
            }
        }
        if REFERENCE_SEEDS.contains(&opts.seed) && !opts.shrink {
            let found = Reference {
                digest: study.verdict_digest,
                tally: study.tally.clone(),
            };
            match Reference::load(&crate::root(), opts.workload, opts.seed) {
                Ok(reference) if reference == found => {}
                Ok(reference) => problems.push(format!(
                    "verdicts differ from benchmark/reference: expected {reference:?}, found {found:?}"
                )),
                Err(e) => problems.push(e),
            }
        }
        let engine_failed: usize = timed.verdicts.passes.iter().map(|p| p.1).sum();
        Ok(((engine_failed + problems.len() * cases) as u64, problems))
    }
}

/// Flips the first `failure` (or, failing that, `no-effect`) verdict.
fn corrupt_one_verdict(csv: &str) -> String {
    if csv.contains(",failure,") {
        csv.replacen(",failure,", ",no-effect,", 1)
    } else {
        csv.replacen(",no-effect,", ",failure,", 1)
    }
}

/// The checked-in verdicts of one `(workload, seed)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// FNV-1a of `cases.csv`.
    pub digest: u64,
    /// Non-zero class counts, by class name.
    pub tally: BTreeMap<String, usize>,
}

impl Reference {
    /// The digest and class tally (third column) of a `cases.csv`.
    pub fn of_csv(csv: &str) -> Self {
        let mut tally = BTreeMap::new();
        for line in csv.lines().skip(1) {
            if let Some(class) = line.split(',').nth(2) {
                *tally.entry(class.to_owned()).or_default() += 1;
            }
        }
        Reference {
            digest: fnv1a(csv.as_bytes()),
            tally,
        }
    }

    /// Where the reference of `(workload, seed)` lives under `root`.
    pub fn path(root: &std::path::Path, workload: Workload, seed: u64) -> PathBuf {
        root.join("reference")
            .join(format!("{}.seed{seed}.txt", workload.name()))
    }

    /// `digest <hex>` then one `<class> <count>` line per class.
    pub fn render(&self) -> String {
        let mut out = format!("digest {:016x}\n", self.digest);
        for (class, n) in &self.tally {
            out.push_str(&format!("{class} {n}\n"));
        }
        out
    }

    /// Reads a reference back.
    pub fn load(root: &std::path::Path, workload: Workload, seed: u64) -> Result<Self, String> {
        let path = Self::path(root, workload, seed);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reference {}: {e}", path.display()))?;
        let mut digest = None;
        let mut tally = BTreeMap::new();
        for line in text.lines() {
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("reference {}: bad line {line:?}", path.display()))?;
            if key == "digest" {
                digest = u64::from_str_radix(value, 16).ok();
            } else {
                let n = value
                    .parse()
                    .map_err(|_| format!("reference {}: bad count {line:?}", path.display()))?;
                tally.insert(key.to_owned(), n);
            }
        }
        Ok(Reference {
            digest: digest.ok_or_else(|| format!("reference {}: no digest", path.display()))?,
            tally,
        })
    }
}

/// Per-case time as seen at the harness-owned closures, from the closure
/// spans inside `window`. A unit of work starts where the engine calls
/// `build` (scalar: one case; word: one group of up to 63) or, on the fork
/// path where only the golden run builds, where it calls `inject`; it ends
/// where the next one starts, the last one at the end of the window. The
/// golden run (a build with no injection) is not a case.
fn case_times_us(spans: &[Span], window: (u64, u64), fork_path: bool) -> Vec<f64> {
    let starts_unit = if fork_path { "inject" } else { "build" };
    let mut inside: Vec<&Span> = spans
        .iter()
        .filter(|s| matches!(s.name.as_ref(), "build" | "inject"))
        .filter(|s| s.start_ns >= window.0 && s.start_ns < window.1)
        .collect();
    inside.sort_by_key(|s| s.start_ns);
    let mut units: Vec<(u64, usize)> = Vec::new();
    for span in inside {
        if span.name == starts_unit {
            units.push((span.start_ns, 0));
        }
        if span.name == "inject" {
            if let Some(unit) = units.last_mut() {
                unit.1 += 1;
            }
        }
    }
    let ends = units
        .iter()
        .skip(1)
        .map(|u| u.0)
        .chain(std::iter::once(window.1));
    units
        .iter()
        .zip(ends)
        .filter(|((_, cases), _)| *cases > 0)
        .map(|((start, cases), end)| (end - start) as f64 / 1e3 / *cases as f64)
        .collect()
}

/// Worker-side shard timeline of the serve passes, from `lease`, `build`
/// and `inject` spans: how long each shard's cases kept the worker busy,
/// and the gaps between one shard's last case and the next one's first.
/// A shard's last case has no successor to end it, so its length is taken
/// as the shard's median case length.
fn shard_timeline(spans: &[Span], window: (u64, u64)) -> (f64, Vec<f64>) {
    let mut inside: Vec<&Span> = spans
        .iter()
        .filter(|s| matches!(s.name.as_ref(), "lease" | "build" | "inject"))
        .filter(|s| s.start_ns >= window.0 && s.start_ns < window.1)
        .collect();
    inside.sort_by_key(|s| s.start_ns);
    // Per shard: start instants of its cases (a build followed by an inject).
    let mut shards: Vec<Vec<u64>> = Vec::new();
    let mut pending_build = None;
    for span in inside {
        match span.name.as_ref() {
            "lease" => {
                shards.push(Vec::new());
                pending_build = None;
            }
            "build" => pending_build = Some(span.start_ns),
            _ => {
                if let (Some(shard), Some(start)) = (shards.last_mut(), pending_build.take()) {
                    shard.push(start);
                }
            }
        }
    }
    let mut busy_ns = 0.0;
    let mut gaps_ms = Vec::new();
    let mut previous_end: Option<f64> = None;
    for starts in shards.iter().filter(|s| s.len() >= 2) {
        let lengths: Vec<f64> = starts.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let typical = median(lengths);
        let (first, last) = (starts[0] as f64, starts[starts.len() - 1] as f64);
        if let Some(end) = previous_end {
            gaps_ms.push((first - end) / 1e6);
        }
        busy_ns += last - first + typical;
        previous_end = Some(last + typical);
    }
    (busy_ns, gaps_ms)
}

fn per_layer_metrics(
    opts: &Options,
    cases: usize,
    timed: &Timed,
    study: &Study,
    spans: &[Span],
    readings: &probes::Readings,
) -> Vec<Metric> {
    let workload = opts.workload;
    let mut values: BTreeMap<&str, f64> = readings.iter().copied().collect();
    let fastest = |traced: bool| {
        timed
            .passes
            .iter()
            .filter(|p| p.traced == traced)
            .min_by_key(|p| p.wall)
    };
    let serve_ref = timed.serve.as_ref().and_then(|s| s.reference.as_ref());
    // The pass the engine-side numbers come from: this workload's fastest
    // traced pass, or on serve (where the engine is inside the worker) the
    // in-process reference pass over the same list.
    let engine_pass = serve_ref.map(|r| &r.0).or_else(|| fastest(true));
    if let Some(pass) = engine_pass {
        let staged: u64 = pass.stage_ns.iter().sum();
        for (name, ns) in [
            ("engine.stage.build_share", pass.stage_ns[0]),
            ("engine.stage.simulate_share", pass.stage_ns[1]),
            ("engine.stage.classify_share", pass.stage_ns[2]),
        ] {
            values.insert(name, ratio(ns as f64, staged as f64));
        }
        values.insert(
            "engine.overhead_share",
            (1.0 - ratio(staged as f64, pass.wall.as_nanos() as f64)).max(0.0),
        );
        let times = case_times_us(spans, pass.window, workload == Workload::PllMixedFork);
        values.insert("engine.case_us_p50", percentile(times.clone(), 50.0));
        values.insert("engine.case_us_p99", percentile(times, 99.0));
        if let Some(c) = &pass.counters {
            let per_case = |n: u64| n as f64 / cases.max(1) as f64;
            let word = matches!(workload, Workload::CpuSeuWord | Workload::CpuSetWord);
            let scalar = matches!(workload, Workload::CpuSeuScalar | Workload::CpuSeuServe);
            values.insert("waves.trace.golden_bytes", c.golden_trace_bytes as f64);
            values.insert(
                "digital.scalar.events_per_case",
                if scalar {
                    per_case(c.digital_events)
                } else {
                    0.0
                },
            );
            values.insert(
                "digital.word.events_per_case",
                if word {
                    per_case(c.digital_events)
                } else {
                    0.0
                },
            );
            values.insert(
                "digital.word.seu_sealed_share",
                if workload == Workload::CpuSeuWord {
                    per_case(c.lane_seals)
                } else {
                    0.0
                },
            );
            values.insert(
                "digital.word.set_sealed_share",
                if workload == Workload::CpuSetWord {
                    per_case(c.lane_seals)
                } else {
                    0.0
                },
            );
            values.insert(
                "digital.word.lane_occupancy_p50",
                c.lane_occupancy_p50 as f64,
            );
            values.insert("analog.solver.steps_per_case", per_case(c.solver_steps));
            values.insert("mixed.sync.steps_per_case", per_case(c.sync_steps));
            values.insert(
                "engine.snapshot.hit_share",
                ratio(
                    c.snapshot_hits as f64,
                    (c.snapshot_hits + c.snapshot_misses) as f64,
                ),
            );
        }
    }
    // What tracing costs: fastest traced pass over fastest plain pass.
    let overhead = match serve_ref {
        Some((traced, plain)) => ratio(traced.wall.as_secs_f64(), plain.as_secs_f64()) - 1.0,
        None => match (fastest(true), fastest(false)) {
            (Some(t), Some(p)) => ratio(t.wall.as_secs_f64(), p.wall.as_secs_f64()) - 1.0,
            _ => 0.0,
        },
    };
    values.insert("telemetry.trace_overhead_share", overhead);
    if let Some(serve) = &timed.serve {
        let timed_window = (
            timed.passes.first().map_or(0, |p| p.window.0),
            timed.passes.last().map_or(0, |p| p.window.1),
        );
        let (busy_ns, gaps_ms) = shard_timeline(spans, timed_window);
        let wall_ns: f64 = timed.passes.iter().map(|p| p.wall.as_nanos() as f64).sum();
        values.insert("serve.worker_busy_share", ratio(busy_ns, wall_ns));
        values.insert("serve.lease_gap_ms_p50", percentile(gaps_ms, 50.0));
        values.insert("serve.idle_pickup_ms", median(serve.idle_pickup_ms.clone()));
        if let Some((_, plain)) = &serve.reference {
            values.insert(
                "serve.efficiency",
                ratio(plain.as_secs_f64(), study.fastest_pass_s),
            );
        }
        let c = &serve.counters;
        values.insert(
            "serve.frames_per_case",
            ratio(
                (c.frames_rx + c.frames_tx) as f64,
                serve.cases_merged as f64,
            ),
        );
        values.insert("serve.records_rejected", c.records_rejected as f64);
        values.insert("serve.shards_resharded", c.shards_resharded as f64);
        values.insert("serve.lease_timeouts", c.lease_timeouts as f64);
    }
    values.insert("bench.passes", study.passes as f64);
    values.insert(
        "bench.pass_spread",
        ratio(study.median_pass_s, study.fastest_pass_s) - 1.0,
    );
    values.insert("bench.loadavg1", study.loadavg1);
    // A layer the workload bypasses did no work here: it reads 0.
    PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: values.get(m.name).copied().unwrap_or(0.0),
            unit: m.unit,
        })
        .collect()
}

fn write_spans(opts: &Options, rec: &Recorder, metrics: &[Metric]) -> Result<PathBuf, String> {
    use crate::json::{obj, Value};
    let dir = crate::root().join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}-{:016x}.json",
        opts.workload.name(),
        opts.seed,
        rec.run_id()
    ));
    // One compact row per span; `span_fields` names the columns.
    let spans = rec
        .snapshot()
        .into_iter()
        .map(|s| {
            Value::Arr(vec![
                Value::Num(s.id as f64),
                Value::Num(s.parent as f64),
                Value::Str(s.name.into_owned()),
                Value::Num(s.start_ns as f64),
                Value::Num(s.end_ns as f64),
            ])
        })
        .collect();
    let fields = ["id", "parent", "name", "start_ns", "end_ns"];
    let doc = obj([
        ("run_id", Value::Str(format!("{:016x}", rec.run_id()))),
        ("workload", Value::Str(opts.workload.name().to_owned())),
        ("seed", Value::Num(opts.seed as f64)),
        (
            "per_layer",
            Value::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.to_owned(), Value::Num(m.value)))
                    .collect(),
            ),
        ),
        (
            "span_fields",
            Value::Arr(fields.iter().map(|f| Value::Str((*f).to_owned())).collect()),
        ),
        ("spans", Value::Arr(spans)),
    ]);
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Runs one workload once.
///
/// # Errors
///
/// Only when the run could not be carried out at all (a library call
/// failed, a directory could not be made). Wrong *answers* come back as an
/// [`Outcome`] with `correct == false`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let loadavg1 = sys::loadavg1().unwrap_or(0.0);
    let out = crate::root().join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    // Shared by every span of the run; distinct across runs in one process.
    let run_id = fnv1a(
        format!(
            "{}:{}:{}:{:?}",
            opts.workload.name(),
            opts.seed,
            std::process::id(),
            Instant::now()
        )
        .as_bytes(),
    );
    let rec = Arc::new(Recorder::new(run_id));
    let root_open = rec.open();
    let run = Run {
        opts,
        rec: Arc::clone(&rec),
        root_span: root_open.0,
    };

    let mut setups = (0..run.setup_plan().1)
        .map(|k| run.setup_rep(k, run.root_span))
        .collect::<Result<Vec<f64>, String>>()?;
    let prepared = Prepared::new(opts.workload, opts.seed, opts.shrink, &rec);
    let cases = prepared.cases();
    let timed = if opts.workload == Workload::CpuSeuServe {
        run.timed_serve(&prepared)?
    } else {
        run.timed_in_process(&prepared, &mut setups)?
    };
    // Pass spans tile the timed interval, bookkeeping between passes included.
    let timed_elapsed = timed
        .passes
        .first()
        .zip(timed.passes.last())
        .map_or(0.0, |(first, last)| {
            (last.window.1 - first.window.0) as f64 / 1e9
        });

    let walls: Vec<f64> = timed.passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let fastest_pass_s = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let least_cpu_s = timed
        .passes
        .iter()
        .map(|p| p.cpu.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let verdicts = Reference::of_csv(&timed.verdicts.first_csv);
    let study = Study {
        passes: timed.passes.len(),
        cases,
        fastest_pass_s,
        median_pass_s: median(walls.clone()),
        pass_walls_s: walls,
        total_rate: ratio((cases * timed.passes.len()) as f64, timed_elapsed),
        setup_min_s: setups.iter().copied().fold(f64::INFINITY, f64::min),
        setup_median_s: median(setups),
        loadavg1,
        case_list_digest: fnv1a(prepared.case_list().join("\n").as_bytes()),
        verdict_digest: verdicts.digest,
        tally: verdicts.tally,
    };

    let readings = if opts.trace {
        run.phase("probes", |_| probes::run_all(&run.scratch(), opts.shrink))?
    } else {
        Vec::new()
    };
    let (failed, problems) = run.phase("verify", |span| {
        rec.set_ambient(span);
        run.verify(&prepared, &timed, &study)
    })?;
    rec.close(root_open, 0, "run");

    let metrics = if opts.trace {
        per_layer_metrics(opts, cases, &timed, &study, &rec.snapshot(), &readings)
    } else {
        let value = |name: &str| match name {
            "cases_per_s" => ratio(cases as f64, fastest_pass_s),
            "cpu_s_per_kcase" => ratio(least_cpu_s * 1e3, cases as f64),
            "peak_rss_mb" => timed.peak_rss_mb,
            "setup_s" => study.setup_min_s,
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: value(m.name),
                unit: m.unit,
            })
            .collect()
    };
    let span_file = if opts.trace {
        Some(write_spans(opts, &rec, &metrics)?)
    } else {
        None
    };
    let attempted: u64 = timed.verdicts.passes.iter().map(|p| p.0 as u64).sum();
    Ok(Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        study,
        problems,
        span_file,
    })
}
