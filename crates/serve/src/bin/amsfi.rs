//! `amsfi` — the campaign driver CLI.
//!
//! ```text
//! amsfi list
//! amsfi run <campaign> [--workers N] [--shard I/C] [--journal PATH]
//!           [--resume] [--checkpoint] [--batch] [--early-abort]
//!           [--timeout-ms N] [--retries N]
//!           [--backoff-ms N] [--policy fail-fast|skip] [--progress-secs N]
//!           [--max-steps N] [--min-dt-fs N] [--quarantine]
//!           [--events PATH] [--metrics PATH] [--limit N] [--out DIR]
//! amsfi merge <journal>... [--out DIR]
//! amsfi report <journal> [--events PATH]... [--top N]
//! amsfi report --distributed <journal-dir> [--events PATH]... [--top N]
//! amsfi serve [--bind ADDR] [--campaign NAME]... [--shards N] [...]
//! amsfi worker <addr> [--threads N] [--exit-when-done] [...]
//! amsfi submit <addr> <campaign> [--shards N] [...]
//! amsfi status <addr>
//! amsfi top <addr> [--interval-ms N] [--once]
//! amsfi drain <addr>
//! ```
//!
//! `run` executes a named campaign (see `amsfi list`) through the engine:
//! sharded with `--shard I/C`, checkpointed with `--journal`, resumable
//! with `--resume`, traced with `--events` (JSONL) and `--metrics`
//! (Prometheus text). `merge` combines shard journals into one report.
//! `report` joins a journal with its event stream into a per-case
//! latency/retry/guard breakdown. `serve`/`worker`/`submit`/`status`
//! distribute campaigns over TCP: the coordinator leases shards to
//! workers and live-merges the records they stream back into one journal
//! whose merged report is byte-identical to a single-process run.
//!
//! A `run` that completes but leaves quarantined poison cases exits with
//! code 3 (distinct from success 0, engine failure 2 and usage error
//! 64); a `merge` across journals of *different* campaigns exits with
//! code 4 so scripts can tell "wrong journals" from "broken journals";
//! `submit`/`status`/`drain` against a coordinator that is not listening
//! exit with code 5 so scripts can tell "service down" from "service
//! refused".

use amsfi_core::report;
use amsfi_engine::{
    campaigns, journal, Engine, EngineConfig, EngineReport, ErrorPolicy, Event, JournalEntry,
    JournalError, Shard, StatsSnapshot, Telemetry,
};
use amsfi_serve::{catalog_source, proto, Coordinator, CoordinatorConfig, Frame, WorkerConfig};
use amsfi_waves::Time;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
amsfi — resumable, sharded fault-injection campaign driver

USAGE:
  amsfi list
        Show the available campaigns.

  amsfi run <campaign> [options]
        Execute a campaign through the engine.
          --workers N        worker threads (default: one per core)
          --shard I/C        run only shard I of C (default 0/1)
          --journal PATH     stream results to PATH (checkpoint file)
          --resume           continue an existing journal
          --checkpoint       fork cases from golden-prefix checkpoints
          --batch            bit-parallel digital simulation: workers
                             claim groups of up to 504 cases and run them
                             through word-parallel event wheels
                             (plane-valued signals, 63 mutant lanes + an
                             in-word golden lane; a lane whose case seals
                             takes the next), with per-lane verdicts
                             byte-identical to scalar runs (campaigns
                             without batch support fall back to scalar
                             runs)
          --early-abort      classify each case while it simulates and
                             abort it the moment its verdict is sealed;
                             journal records gain sealed_at=<t_fs>
          --timeout-ms N     per-attempt wall-clock timeout
          --retries N        extra attempts per failing case (default 0)
          --backoff-ms N     base retry backoff, doubled per retry (default 50)
          --policy P         fail-fast | skip (default skip)
          --progress-secs N  progress cadence in seconds, decimals allowed
                             (default 2, 0 = off); each tick goes to stderr
                             and, with --events, to the JSONL stream as a
                             `progress` record
          --events PATH      stream structured JSONL events (spans, guard
                             trips, retries, quarantines, worker lifecycle)
                             to PATH
          --metrics PATH     dump engine + kernel metrics to PATH in
                             Prometheus text format at exit (also written
                             when the run fails or is cancelled)
          --max-steps N      per-attempt simulation step budget
          --min-dt-fs N      adaptive-timestep floor in femtoseconds;
                             a kernel proposing a smaller step is stopped
                             (timestep collapse)
          --quarantine       journal poison cases (retry budget exhausted)
                             as quarantined; --resume never re-runs them
          --limit N          truncate the campaign to its first N cases
          --out DIR          write cases.csv and stages.csv under DIR

  amsfi merge <journal>... [--out DIR]
        Merge shard journals of one campaign into a single report.
        Journals written by a different campaign (name, case count or
        fingerprint) are refused with exit code 4.

  amsfi report <journal> [--events PATH]... [--top N]
        Join a journal with its `--events` JSONL stream(s) into a
        per-case latency/retry/guard breakdown and a top-N slowest
        listing (default top 10).

  amsfi report --distributed <journal-dir> [--events PATH]... [--top N]
        Report every campaign journal in a coordinator's --journal-dir,
        joining the event streams of *multiple* processes (coordinator
        and workers, one --events file each). Worker events carry
        campaign/shard/worker trace context, so each campaign's
        breakdown attributes cases to the worker that ran them and
        lists straggler flags raised by the coordinator.

  amsfi serve [options]
        Run the distributed-campaign coordinator: accept submissions,
        lease shards to workers, live-merge streamed records into one
        journal per campaign. Survives worker death: a silent lease is
        reclaimed and its remaining cases re-leased. Survives its own
        death too: at startup it replays the submissions and journals
        found in --journal-dir, invalidates every pre-crash lease, and
        re-leases only the unfinished cases (--no-recover disables this).
          --bind ADDR            listen address (default 127.0.0.1:7171)
          --campaign NAME        submit NAME at startup (repeatable)
          --shards N             shards per submitted campaign (default 2)
          --limit N              case cap for submitted campaigns
          --checkpoint           workers fork cases from checkpoints
          --early-abort          workers classify online and abort early
          --journal-dir DIR      merged journals (default amsfi-journals)
          --no-recover           do not replay submissions found in the
                                 journal dir at startup
          --lease-timeout-ms N   silent-lease reclaim (default 10000)
          --retry-ms N           worker poll hint when idle (default 250)
          --io-timeout-ms N      per-socket read/write deadline
                                 (default 30000, 0 = none)
          --until-drained        exit once every campaign completes
          --progress-secs N      progress cadence (0 = off; counts
                                 remotely merged cases)
          --metrics PATH         fleet Prometheus text snapshot: service
                                 gauges plus every worker's shipped
                                 kernel metrics, labelled per worker
                                 (per tick and at exit)
          --events PATH          structured JSONL event stream
          --straggler-factor F   flag a lease whose case rate is below
                                 F × the campaign's median lane rate
                                 (default 0.5, 0 disables; observation
                                 only — the lease is never touched)

  amsfi worker <addr> [options]
        Lease shards from the coordinator at <addr>, execute them through
        the engine, stream each finished case back as it completes.
          --name NAME            display name (default worker-<pid>)
          --threads N            engine threads (default: one per core)
          --heartbeat-ms N       lease keep-alive cadence (default 1000)
          --poll-ms N            idle poll cap (default 250)
          --backoff-ms N         base reconnect backoff, doubled per
                                 attempt with jitter (default 100)
          --backoff-cap-ms N     reconnect backoff ceiling (default 5000)
          --max-reconnects N     give up after N reconnect attempts
                                 (default 8, 0 = retry forever)
          --io-timeout-ms N      per-socket read/write deadline
                                 (default 10000, 0 = none)
          --exit-when-done       exit when the coordinator drains
          --max-shards N         stop after N shards (testing)
          --events PATH          structured JSONL event stream
          --no-ship-metrics      do not ship kernel metrics snapshots in
                                 heartbeat/shard_done frames (they feed
                                 the coordinator's fleet metrics and
                                 `amsfi top`; shipping is on by default)

  amsfi submit <addr> <campaign> [--shards N] [--limit N]
              [--checkpoint] [--early-abort]
        Submit a campaign to a running coordinator.

  amsfi status <addr>
        Print a running coordinator's campaigns (with merged/total case
        counts, percent complete, observed case rate and ETA), shards,
        leases and worker health (read-only).

  amsfi top <addr> [--interval-ms N] [--once]
        Live fleet view: per-campaign progress bar, case rate and ETA,
        per-worker health (last heartbeat, leases, case latency
        percentiles, replayed records, reconnects) and straggler flags,
        re-rendered every N ms (default 2000). --once prints a single
        frame and exits.

  amsfi drain <addr>
        Ask a running coordinator to drain: stop handing out leases,
        finish merging the records already in flight, flush every
        journal and exit cleanly. Prints the status snapshot taken the
        moment draining began.

EXIT CODES:
  0   success
  2   engine, journal, report or service failure
  3   the run completed but quarantined poison case(s) remain
  4   merge refused: the journals belong to different campaigns
  5   submit/status/drain could not reach the coordinator
  64  usage error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            list();
            ExitCode::SUCCESS
        }
        Some("run") => run(&args[1..]),
        Some("merge") => merge(&args[1..]),
        Some("report") => report_cmd(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("worker") => worker(&args[1..]),
        Some("submit") => submit(&args[1..]),
        Some("status") => status(&args[1..]),
        Some("top") => top_cmd(&args[1..]),
        Some("drain") => drain(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("amsfi: unknown command {other:?}\n");
            eprint!("{USAGE}");
            ExitCode::from(64)
        }
    }
}

fn list() {
    println!("available campaigns:");
    for (name, description) in campaigns::catalog() {
        // Execution paths this campaign supports, so operators can see
        // whether --batch will engage before launching (every campaign runs
        // scalar and forked), and how many cases the scalar and fork plans
        // book unrun (`BatchSpec::inert`).
        let (paths, inert) = campaigns::build(name, None).map_or_else(Default::default, |c| {
            let mut paths = vec!["scalar", "forked"];
            let inert = c.batch.map_or_else(String::new, |batch| {
                paths.push("batch");
                let n = c.cases.len();
                let booked = (0..n).filter(|&i| (batch.inert)(i)).count();
                format!("inert {booked}/{n}")
            });
            (format!("[{}]", paths.join(", ")), inert)
        });
        println!("  {name:<12} {paths:<24} {inert:<16} {description}");
    }
}

/// Pulls the value of `--flag VALUE` style options; returns `Err` on a
/// flag with a missing or unparsable value.
struct Options<'a> {
    args: &'a [String],
    pos: usize,
}

impl<'a> Options<'a> {
    fn new(args: &'a [String]) -> Self {
        Options { args, pos: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.pos)?;
        self.pos += 1;
        Some(arg)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let value = self.value(flag)?;
        value
            .parse()
            .map_err(|e| format!("bad value for {flag}: {e}"))
    }

    /// A progress cadence in (possibly fractional) seconds; `0` is off.
    fn progress(&mut self, flag: &str) -> Result<Option<Duration>, String> {
        let secs: f64 = self.parse(flag)?;
        let every =
            Duration::try_from_secs_f64(secs).map_err(|e| format!("bad value for {flag}: {e}"))?;
        Ok((!every.is_zero()).then_some(every))
    }
}

fn run(args: &[String]) -> ExitCode {
    let mut name: Option<&str> = None;
    let mut config = EngineConfig {
        // The CLI defaults to a 2-second progress cadence; `--progress-secs 0`
        // switches it off.
        progress: Some(Duration::from_secs(2)),
        ..EngineConfig::default()
    };
    let mut limit = None;
    let mut out: Option<PathBuf> = None;
    let mut events: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;

    let mut opts = Options::new(args);
    let parsed: Result<(), String> = (|| {
        while let Some(arg) = opts.next() {
            match arg {
                "--workers" => config.workers = opts.parse(arg)?,
                "--shard" => config.shard = opts.parse::<Shard>(arg)?,
                "--journal" => config.journal = Some(PathBuf::from(opts.value(arg)?)),
                "--resume" => config.resume = true,
                "--checkpoint" => config.checkpoint = true,
                "--batch" => config.batch = true,
                "--early-abort" => config.early_abort = true,
                "--timeout-ms" => {
                    config.timeout = Some(Duration::from_millis(opts.parse(arg)?));
                }
                "--retries" => config.retries = opts.parse(arg)?,
                "--backoff-ms" => {
                    config.backoff = Duration::from_millis(opts.parse(arg)?);
                }
                "--policy" => {
                    config.error_policy = match opts.value(arg)? {
                        "fail-fast" => ErrorPolicy::FailFast,
                        "skip" | "skip-and-record" => ErrorPolicy::SkipAndRecord,
                        other => return Err(format!("bad value for --policy: {other:?}")),
                    };
                }
                "--progress-secs" => config.progress = opts.progress(arg)?,
                "--events" => events = Some(PathBuf::from(opts.value(arg)?)),
                "--metrics" => metrics_out = Some(PathBuf::from(opts.value(arg)?)),
                "--max-steps" => config.max_steps = Some(opts.parse(arg)?),
                "--min-dt-fs" => {
                    config.min_dt = Some(Time::from_fs(opts.parse(arg)?));
                }
                "--quarantine" => config.quarantine = true,
                "--limit" => limit = Some(opts.parse(arg)?),
                "--out" => out = Some(PathBuf::from(opts.value(arg)?)),
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown option {flag:?}"));
                }
                positional if name.is_none() => name = Some(positional),
                extra => return Err(format!("unexpected argument {extra:?}")),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("amsfi run: {e}");
        return ExitCode::from(64);
    }
    let Some(name) = name else {
        eprintln!("amsfi run: missing campaign name (try `amsfi list`)");
        return ExitCode::from(64);
    };
    let Some(campaign) = campaigns::build(name, limit) else {
        eprintln!("amsfi run: unknown campaign {name:?} (try `amsfi list`)");
        return ExitCode::from(64);
    };

    // Telemetry is enabled as soon as either export is requested:
    // `--metrics` alone runs metrics-only (no event queue, no drainer).
    let telemetry = if events.is_some() || metrics_out.is_some() {
        let mut builder = Telemetry::builder();
        if let Some(path) = &events {
            builder = builder.events_path(path);
        }
        match builder.build() {
            Ok(telemetry) => telemetry,
            Err(e) => {
                eprintln!("amsfi run: opening events stream: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        Telemetry::disabled()
    };
    config.telemetry = telemetry.clone();

    println!(
        "campaign {name}: {} case(s), shard {}, {}",
        campaign.cases.len(),
        config.shard,
        match config.workers {
            0 => "one worker per core".to_owned(),
            n => format!("{n} worker(s)"),
        }
    );
    let report = match Engine::new(config).run(&campaign) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("amsfi run: {e}");
            // A failed (or cooperatively cancelled) run still dumps the
            // kernel metrics gathered so far.
            finish_telemetry(&telemetry, metrics_out.as_deref(), None);
            return ExitCode::from(2);
        }
    };
    print_report(&report);
    finish_telemetry(&telemetry, metrics_out.as_deref(), Some(&report.stats));
    if let Err(e) = write_outputs(out.as_deref(), &report) {
        eprintln!("amsfi run: {e}");
        return ExitCode::from(2);
    }
    if report.quarantined.is_empty() {
        ExitCode::SUCCESS
    } else {
        // Distinct from hard failure (2): the campaign completed, but some
        // cases are poisoned and permanently excluded from resumes.
        ExitCode::from(3)
    }
}

fn merge(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut opts = Options::new(args);
    let parsed: Result<(), String> = (|| {
        while let Some(arg) = opts.next() {
            match arg {
                "--out" => out = Some(PathBuf::from(opts.value(arg)?)),
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown option {flag:?}"));
                }
                path => paths.push(PathBuf::from(path)),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("amsfi merge: {e}");
        return ExitCode::from(64);
    }
    if paths.is_empty() {
        eprintln!("amsfi merge: no journal files given");
        return ExitCode::from(64);
    }

    let (meta, entries) = match journal::merge(&paths) {
        Ok(merged) => merged,
        Err(e @ JournalError::CampaignMismatch { .. }) => {
            eprintln!("amsfi merge: {e}");
            eprintln!(
                "amsfi merge: refusing to mix campaigns — shard journals merge only when \
                 their headers agree on name, case count and fingerprint (the distributed \
                 coordinator enforces the same rule on every lease)"
            );
            return ExitCode::from(4);
        }
        Err(e) => {
            eprintln!("amsfi merge: {e}");
            return ExitCode::from(2);
        }
    };
    let (result, skipped, quarantined) = journal::assemble(entries.values());
    println!(
        "campaign {}: {} of {} case(s) across {} journal(s)",
        meta.name,
        entries.len(),
        meta.cases,
        paths.len()
    );
    print!("{}", report::summary_table(&result));
    print!("{}", report::per_target_table(&result));
    print_skips(&skipped);
    print_quarantine(&quarantined);
    if let Some(dir) = out.as_deref() {
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join("cases.csv"), report::cases_csv(&result)))
        {
            eprintln!("amsfi merge: writing {}: {e}", dir.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", dir.join("cases.csv").display());
    }
    ExitCode::SUCCESS
}

fn print_report(report: &EngineReport) {
    print!("{}", report::summary_table(&report.result));
    print!("{}", report::per_target_table(&report.result));
    print_skips(&report.skipped);
    print_quarantine(&report.quarantined);
    if report.resumed > 0 {
        println!("resumed {} case(s) from the journal", report.resumed);
    }
    println!("{}", report.stats);
    print!("{}", report.stats.stage_table());
    let stats = &report.stats;
    let (followed, fallbacks, inert) = (stats.followed, stats.fallbacks, stats.inert);
    println!(
        "path: {}, followed: {followed}, fallbacks: {fallbacks}, inert: {inert}",
        report.path
    );
}

fn print_skips(skipped: &[amsfi_engine::SkippedCase]) {
    if skipped.is_empty() {
        return;
    }
    println!("skipped cases:");
    for skip in skipped {
        println!(
            "  #{} {} after {} attempt(s): {}",
            skip.index, skip.case.label, skip.attempts, skip.error
        );
    }
}

fn print_quarantine(quarantined: &[amsfi_engine::QuarantinedCase]) {
    if quarantined.is_empty() {
        return;
    }
    println!("quarantined (poison) cases — excluded from --resume:");
    for q in quarantined {
        println!(
            "  #{} {} after {} attempt(s): {}",
            q.index, q.case.label, q.attempts, q.reason
        );
    }
}

/// Flushes the telemetry sinks at the end of a run: writes the Prometheus
/// dump (engine gauges + kernel registry) when `--metrics` was given, then
/// closes the event drainer so the JSONL stream is complete on disk.
fn finish_telemetry(
    telemetry: &Telemetry,
    metrics_out: Option<&Path>,
    stats: Option<&StatsSnapshot>,
) {
    if let Some(path) = metrics_out {
        let mut text = String::new();
        if let Some(stats) = stats {
            text.push_str(&stats.prometheus());
        }
        if let Some(metrics) = telemetry.metrics() {
            text.push_str(&metrics.to_prometheus());
        }
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("amsfi run: writing {}: {e}", path.display());
        } else {
            println!("wrote {}", path.display());
        }
    }
    telemetry.close();
}

/// Per-case aggregate joined from the event stream.
#[derive(Default)]
struct CaseBreakdown {
    total_us: u64,
    simulate_us: u64,
    retries: u64,
    timeouts: u64,
    guards: Vec<String>,
    attempts: u64,
    /// Workers whose events mention this case (trace context; a case
    /// re-leased after a worker death legitimately names several).
    workers: std::collections::BTreeSet<String>,
}

/// Looks up an event field (explicit or stamped trace context).
fn event_field<'a>(event: &'a Event, key: &str) -> Option<&'a str> {
    event
        .fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn report_cmd(args: &[String]) -> ExitCode {
    let mut journal_path: Option<PathBuf> = None;
    let mut events_paths: Vec<PathBuf> = Vec::new();
    let mut top = 10usize;
    let mut distributed = false;
    let mut opts = Options::new(args);
    let parsed: Result<(), String> = (|| {
        while let Some(arg) = opts.next() {
            match arg {
                "--events" => events_paths.push(PathBuf::from(opts.value(arg)?)),
                "--top" => top = opts.parse(arg)?,
                "--distributed" => distributed = true,
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown option {flag:?}"));
                }
                path if journal_path.is_none() => journal_path = Some(PathBuf::from(path)),
                extra => return Err(format!("unexpected argument {extra:?}")),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("amsfi report: {e}");
        return ExitCode::from(64);
    }
    let Some(journal_path) = journal_path else {
        eprintln!(
            "amsfi report: missing journal path{}",
            if distributed {
                " (the coordinator's --journal-dir)"
            } else {
                ""
            }
        );
        return ExitCode::from(64);
    };

    // Journals to report: one file, or every `*.journal` in the
    // coordinator's journal dir.
    let journals: Vec<PathBuf> = if distributed {
        let mut found = Vec::new();
        match std::fs::read_dir(&journal_path) {
            Ok(entries) => {
                for entry in entries.filter_map(Result::ok) {
                    let path = entry.path();
                    if path.extension().is_some_and(|ext| ext == "journal") {
                        found.push(path);
                    }
                }
            }
            Err(e) => {
                eprintln!("amsfi report: reading {}: {e}", journal_path.display());
                return ExitCode::from(2);
            }
        }
        found.sort();
        if found.is_empty() {
            eprintln!(
                "amsfi report: no *.journal files in {}",
                journal_path.display()
            );
            return ExitCode::from(2);
        }
        found
    } else {
        vec![journal_path]
    };

    // Parse every event stream once; the per-campaign join below filters
    // by the campaign trace-context field the emitting process stamped.
    let mut all_events: Vec<Event> = Vec::new();
    let mut malformed = 0u64;
    for path in &events_paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("amsfi report: reading {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match Event::parse(line) {
                Ok(event) => all_events.push(event),
                Err(_) => malformed += 1,
            }
        }
    }
    if !events_paths.is_empty() {
        println!(
            "events: {} parsed from {} file(s), {malformed} malformed",
            all_events.len(),
            events_paths.len()
        );
    }

    let mut exit = ExitCode::SUCCESS;
    for (i, path) in journals.iter().enumerate() {
        if i > 0 {
            println!();
        }
        let (meta, entries) = match journal::merge(std::slice::from_ref(path)) {
            Ok(merged) => merged,
            Err(e) => {
                eprintln!("amsfi report: {}: {e}", path.display());
                exit = ExitCode::from(2);
                continue;
            }
        };
        let (result, skipped, quarantined) = journal::assemble(entries.values());
        println!(
            "campaign {}: {} of {} case(s) journaled",
            meta.name,
            entries.len(),
            meta.cases
        );
        print!("{}", report::summary_table(&result));

        // In distributed mode an event belongs to this campaign when its
        // trace context says so; a lone journal takes the whole stream.
        let selected: Vec<&Event> = all_events
            .iter()
            .filter(|event| {
                !distributed || event_field(event, "campaign") == Some(meta.name.as_str())
            })
            .collect();

        let mut cases: BTreeMap<u64, CaseBreakdown> = BTreeMap::new();
        let mut worker_cases: BTreeMap<String, u64> = BTreeMap::new();
        let mut stragglers: Vec<String> = Vec::new();
        for event in &selected {
            if distributed && event.kind == "serve" && event.name == "straggler" {
                stragglers.push(format!(
                    "shard {} on {} ({} vs median {} mcases/s)",
                    event_field(event, "shard").unwrap_or("?"),
                    event_field(event, "worker").unwrap_or("?"),
                    event_field(event, "rate_mcps").unwrap_or("?"),
                    event_field(event, "median_mcps").unwrap_or("?"),
                ));
            }
            let Some(case) = event.case else { continue };
            let slot = cases.entry(case).or_default();
            if let Some(worker) = event_field(event, "worker") {
                slot.workers.insert(worker.to_owned());
            }
            match (event.kind.as_str(), event.name.as_str()) {
                ("span", "case") => {
                    slot.total_us = slot.total_us.max(event.dur_us.unwrap_or(0));
                    if let Some(attempts) = event_field(event, "attempts") {
                        slot.attempts = slot.attempts.max(attempts.parse().unwrap_or(0));
                    }
                    if let Some(worker) = event_field(event, "worker") {
                        *worker_cases.entry(worker.to_owned()).or_default() += 1;
                    }
                }
                ("span", "case/simulate") => {
                    slot.simulate_us += event.dur_us.unwrap_or(0);
                }
                ("retry", _) => slot.retries += 1,
                ("timeout", _) => slot.timeouts += 1,
                ("guard", _) => slot.guards.push(event.name.clone()),
                _ => {}
            }
        }

        if !cases.is_empty() {
            let mut ranked: Vec<(&u64, &CaseBreakdown)> = cases.iter().collect();
            ranked.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));
            ranked.truncate(top);
            println!("top {} slowest case(s):", ranked.len());
            println!(
                "  {:>6} {:<24} {:<12} {:>8} {:>10} {:>10} {:>7} {:>8} guards{}",
                "case",
                "label",
                "class",
                "attempts",
                "total_us",
                "sim_us",
                "retries",
                "timeouts",
                if distributed { " worker" } else { "" }
            );
            for (index, breakdown) in ranked {
                let (label, class) = match entries.get(&(*index as usize)) {
                    Some(JournalEntry::Done(r)) => {
                        (r.case.label.clone(), r.outcome.class.to_string())
                    }
                    Some(JournalEntry::Skipped(s)) => (s.case.label.clone(), "skipped".to_owned()),
                    Some(JournalEntry::Quarantined(q)) => {
                        (q.case.label.clone(), "quarantined".to_owned())
                    }
                    None => ("?".into(), "?".to_owned()),
                };
                let workers = if distributed {
                    let names: Vec<&str> = breakdown.workers.iter().map(String::as_str).collect();
                    format!(
                        " {}",
                        if names.is_empty() {
                            "-".to_owned()
                        } else {
                            names.join(",")
                        }
                    )
                } else {
                    String::new()
                };
                println!(
                    "  {:>6} {:<24} {:<12} {:>8} {:>10} {:>10} {:>7} {:>8} {}{workers}",
                    index,
                    label,
                    class,
                    breakdown.attempts,
                    breakdown.total_us,
                    breakdown.simulate_us,
                    breakdown.retries,
                    breakdown.timeouts,
                    if breakdown.guards.is_empty() {
                        "-".to_owned()
                    } else {
                        breakdown.guards.join(",")
                    }
                );
            }
        }
        if distributed && !worker_cases.is_empty() {
            let parts: Vec<String> = worker_cases
                .iter()
                .map(|(name, count)| format!("{name} ({count})"))
                .collect();
            println!("cases by worker: {}", parts.join(", "));
        }
        if !stragglers.is_empty() {
            println!("straggler flags:");
            for s in &stragglers {
                println!("  {s}");
            }
        }
        print_skips(&skipped);
        print_quarantine(&quarantined);
    }
    exit
}

/// Builds a telemetry handle for the service subcommands: enabled as soon
/// as an events stream or a metrics dump is requested.
fn service_telemetry(events: Option<&Path>, metrics: bool) -> Result<Telemetry, String> {
    if events.is_none() && !metrics {
        return Ok(Telemetry::disabled());
    }
    let mut builder = Telemetry::builder();
    if let Some(path) = events {
        builder = builder.events_path(path);
    }
    builder
        .build()
        .map_err(|e| format!("opening events stream: {e}"))
}

/// True when `dir` holds at least one persisted `.submit` manifest a
/// recovering coordinator could replay.
fn has_submissions(dir: &Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries
            .filter_map(Result::ok)
            .any(|e| e.path().extension().is_some_and(|ext| ext == "submit"))
    })
}

fn serve(args: &[String]) -> ExitCode {
    let mut bind = "127.0.0.1:7171".to_owned();
    let mut names: Vec<String> = Vec::new();
    let mut shards = 2usize;
    let mut limit: Option<usize> = None;
    let mut checkpoint = false;
    let mut early_abort = false;
    let mut events: Option<PathBuf> = None;
    let mut cfg = CoordinatorConfig::new("amsfi-journals", catalog_source());

    let mut opts = Options::new(args);
    let parsed: Result<(), String> = (|| {
        while let Some(arg) = opts.next() {
            match arg {
                "--bind" => bind = opts.value(arg)?.to_owned(),
                "--campaign" => names.push(opts.value(arg)?.to_owned()),
                "--shards" => shards = opts.parse(arg)?,
                "--limit" => limit = Some(opts.parse(arg)?),
                "--checkpoint" => checkpoint = true,
                "--early-abort" => early_abort = true,
                "--journal-dir" => cfg.journal_dir = PathBuf::from(opts.value(arg)?),
                "--no-recover" => cfg.recover = false,
                "--io-timeout-ms" => {
                    let ms: u64 = opts.parse(arg)?;
                    cfg.io_timeout = (ms > 0).then(|| Duration::from_millis(ms));
                }
                "--lease-timeout-ms" => {
                    cfg.lease_timeout = Duration::from_millis(opts.parse(arg)?);
                    // Keep reap latency proportional to short test timeouts.
                    cfg.reap_interval = (cfg.lease_timeout / 4).max(Duration::from_millis(10));
                }
                "--retry-ms" => cfg.retry_ms = opts.parse(arg)?,
                "--until-drained" => cfg.until_drained = true,
                "--progress-secs" => cfg.progress = opts.progress(arg)?,
                "--metrics" => cfg.metrics_path = Some(PathBuf::from(opts.value(arg)?)),
                "--events" => events = Some(PathBuf::from(opts.value(arg)?)),
                "--straggler-factor" => cfg.straggler_factor = opts.parse(arg)?,
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown option {flag:?}"));
                }
                extra => return Err(format!("unexpected argument {extra:?}")),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("amsfi serve: {e}");
        return ExitCode::from(64);
    }
    // `--until-drained` with no `--campaign` is still meaningful when
    // recovery will replay submissions persisted by a previous run.
    if cfg.until_drained && names.is_empty() && !(cfg.recover && has_submissions(&cfg.journal_dir))
    {
        eprintln!(
            "amsfi serve: --until-drained needs at least one --campaign to drain \
             (or a journal dir with recoverable submissions)"
        );
        return ExitCode::from(64);
    }
    cfg.telemetry = match service_telemetry(events.as_deref(), cfg.metrics_path.is_some()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("amsfi serve: {e}");
            return ExitCode::from(2);
        }
    };
    let telemetry = cfg.telemetry.clone();

    let coordinator = match Coordinator::bind(&bind, cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("amsfi serve: binding {bind}: {e}");
            return ExitCode::from(2);
        }
    };
    match coordinator.local_addr() {
        Ok(addr) => println!("amsfi serve: listening on {addr}"),
        Err(_) => println!("amsfi serve: listening on {bind}"),
    }
    for name in &names {
        match coordinator.submit(name, shards, limit, checkpoint, early_abort) {
            Ok(info) => println!(
                "amsfi serve: campaign [{}] {} — {} case(s), {} shard(s), \
                 fingerprint {:016x}, journal {}",
                info.id,
                info.name,
                info.cases,
                info.shards,
                info.fingerprint,
                info.journal.display(),
            ),
            Err(e) => {
                eprintln!("amsfi serve: submitting {name:?}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let result = coordinator.run();
    telemetry.close();
    match result {
        Ok(()) => {
            println!("amsfi serve: drained, shutting down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("amsfi serve: {e}");
            ExitCode::from(2)
        }
    }
}

fn worker(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut name: Option<String> = None;
    let mut threads = 0usize;
    let mut heartbeat = Duration::from_millis(1000);
    let mut poll = Duration::from_millis(250);
    let mut backoff: Option<Duration> = None;
    let mut backoff_cap: Option<Duration> = None;
    let mut max_reconnects: Option<Option<usize>> = None;
    let mut io_timeout: Option<Option<Duration>> = None;
    let mut exit_when_done = false;
    let mut max_shards: Option<usize> = None;
    let mut events: Option<PathBuf> = None;
    let mut ship_metrics = true;

    let mut opts = Options::new(args);
    let parsed: Result<(), String> = (|| {
        while let Some(arg) = opts.next() {
            match arg {
                "--name" => name = Some(opts.value(arg)?.to_owned()),
                "--no-ship-metrics" => ship_metrics = false,
                "--threads" => threads = opts.parse(arg)?,
                "--heartbeat-ms" => heartbeat = Duration::from_millis(opts.parse(arg)?),
                "--poll-ms" => poll = Duration::from_millis(opts.parse(arg)?),
                "--backoff-ms" => backoff = Some(Duration::from_millis(opts.parse(arg)?)),
                "--backoff-cap-ms" => {
                    backoff_cap = Some(Duration::from_millis(opts.parse(arg)?));
                }
                "--max-reconnects" => {
                    let n: usize = opts.parse(arg)?;
                    // 0 = retry forever.
                    max_reconnects = Some((n > 0).then_some(n));
                }
                "--io-timeout-ms" => {
                    let ms: u64 = opts.parse(arg)?;
                    io_timeout = Some((ms > 0).then(|| Duration::from_millis(ms)));
                }
                "--exit-when-done" => exit_when_done = true,
                "--max-shards" => max_shards = Some(opts.parse(arg)?),
                "--events" => events = Some(PathBuf::from(opts.value(arg)?)),
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown option {flag:?}"));
                }
                positional if addr.is_none() => addr = Some(positional.to_owned()),
                extra => return Err(format!("unexpected argument {extra:?}")),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("amsfi worker: {e}");
        return ExitCode::from(64);
    }
    let Some(addr) = addr else {
        eprintln!("amsfi worker: missing coordinator address");
        return ExitCode::from(64);
    };
    let telemetry = match service_telemetry(events.as_deref(), false) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("amsfi worker: {e}");
            return ExitCode::from(2);
        }
    };
    let mut cfg = WorkerConfig::new(addr, catalog_source());
    if let Some(name) = name {
        cfg.name = name;
    }
    cfg.threads = threads;
    cfg.heartbeat = heartbeat;
    cfg.poll = poll;
    if let Some(backoff) = backoff {
        cfg.backoff = backoff;
    }
    if let Some(cap) = backoff_cap {
        cfg.backoff_cap = cap;
    }
    if let Some(max) = max_reconnects {
        cfg.max_reconnects = max;
    }
    if let Some(io_timeout) = io_timeout {
        cfg.io_timeout = io_timeout;
    }
    cfg.exit_when_done = exit_when_done;
    cfg.max_shards = max_shards;
    cfg.ship_metrics = ship_metrics;
    cfg.telemetry = telemetry.clone();

    let result = amsfi_serve::worker::run(cfg);
    telemetry.close();
    match result {
        Ok(report) => {
            let resilience = if report.reconnects > 0 || report.records_replayed > 0 {
                format!(
                    ", {} reconnect(s), {} record(s) replayed",
                    report.reconnects, report.records_replayed,
                )
            } else {
                String::new()
            };
            println!(
                "amsfi worker: {} shard(s) completed, {} case(s) executed, \
                 {} record(s) streamed{resilience}",
                report.shards_completed, report.cases_executed, report.records_streamed,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("amsfi worker: {e}");
            ExitCode::from(2)
        }
    }
}

/// Why a one-shot coordinator exchange failed: an unreachable service is
/// distinguished (exit code 5) from a mid-exchange protocol failure (2).
enum CallError {
    /// The TCP connect itself failed — nothing is listening at the
    /// address (or it is filtered): the coordinator is unreachable.
    Unreachable(String),
    /// The connection opened but the exchange broke afterwards.
    Exchange(String),
}

/// Prints the one-line diagnostic for a failed coordinator call and maps
/// it to the exit code contract: 5 = unreachable, 2 = broken exchange.
fn report_call_error(cmd: &str, addr: &str, e: CallError) -> ExitCode {
    match e {
        CallError::Unreachable(e) => {
            eprintln!("amsfi {cmd}: coordinator at {addr} is unreachable ({e}) — is `amsfi serve` running?");
            ExitCode::from(5)
        }
        CallError::Exchange(e) => {
            eprintln!("amsfi {cmd}: {e}");
            ExitCode::from(2)
        }
    }
}

/// One request/reply exchange with a coordinator, for
/// `submit`/`status`/`drain`.
fn coordinator_call(addr: &str, request: &Frame) -> Result<Frame, CallError> {
    let mut stream = TcpStream::connect(addr).map_err(|e| CallError::Unreachable(e.to_string()))?;
    // A one-shot exchange should never hang on a half-open socket.
    let deadline = Some(Duration::from_secs(10));
    let _ = stream.set_read_timeout(deadline);
    let _ = stream.set_write_timeout(deadline);
    proto::write_frame(&mut stream, request).map_err(|e| CallError::Exchange(e.to_string()))?;
    loop {
        match proto::read_frame(&mut stream).map_err(|e| CallError::Exchange(e.to_string()))? {
            // Frames from a newer coordinator we don't understand are
            // skipped, like everywhere else in the protocol.
            Frame::Unknown { .. } => {}
            reply => return Ok(reply),
        }
    }
}

fn submit(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut campaign: Option<String> = None;
    let mut shards = 2usize;
    let mut limit: Option<usize> = None;
    let mut checkpoint = false;
    let mut early_abort = false;

    let mut opts = Options::new(args);
    let parsed: Result<(), String> = (|| {
        while let Some(arg) = opts.next() {
            match arg {
                "--shards" => shards = opts.parse(arg)?,
                "--limit" => limit = Some(opts.parse(arg)?),
                "--checkpoint" => checkpoint = true,
                "--early-abort" => early_abort = true,
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown option {flag:?}"));
                }
                positional if addr.is_none() => addr = Some(positional.to_owned()),
                positional if campaign.is_none() => campaign = Some(positional.to_owned()),
                extra => return Err(format!("unexpected argument {extra:?}")),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("amsfi submit: {e}");
        return ExitCode::from(64);
    }
    let (Some(addr), Some(campaign)) = (addr, campaign) else {
        eprintln!("amsfi submit: usage: amsfi submit <addr> <campaign> [options]");
        return ExitCode::from(64);
    };
    let request = Frame::Submit {
        campaign,
        shards,
        limit,
        checkpoint,
        early_abort,
    };
    match coordinator_call(&addr, &request) {
        Ok(Frame::Submitted {
            id,
            name,
            cases,
            shards,
            fingerprint,
        }) => {
            println!(
                "submitted campaign [{id}] {name}: {cases} case(s), {shards} shard(s), \
                 fingerprint {fingerprint:016x}"
            );
            ExitCode::SUCCESS
        }
        Ok(Frame::Error { reason }) => {
            eprintln!("amsfi submit: coordinator refused: {reason}");
            ExitCode::from(2)
        }
        Ok(other) => {
            eprintln!("amsfi submit: unexpected reply {:?}", other.kind());
            ExitCode::from(2)
        }
        Err(e) => report_call_error("submit", &addr, e),
    }
}

fn status(args: &[String]) -> ExitCode {
    let [addr] = args else {
        eprintln!("amsfi status: usage: amsfi status <addr>");
        return ExitCode::from(64);
    };
    match coordinator_call(addr, &Frame::StatusRequest) {
        Ok(Frame::Status { body, .. }) => {
            print!("{body}");
            ExitCode::SUCCESS
        }
        Ok(Frame::Error { reason }) => {
            eprintln!("amsfi status: coordinator refused: {reason}");
            ExitCode::from(2)
        }
        Ok(other) => {
            eprintln!("amsfi status: unexpected reply {:?}", other.kind());
            ExitCode::from(2)
        }
        Err(e) => report_call_error("status", addr, e),
    }
}

/// Renders one `amsfi top` frame from a coordinator's fleet view.
fn render_top(view: &amsfi_serve::view::TopView) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "amsfi top — epoch {}, up {:.0}s{}",
        view.epoch,
        view.uptime_ms as f64 / 1000.0,
        if view.drained { ", drained" } else { "" }
    );
    if view.campaigns.is_empty() {
        let _ = writeln!(out, "no campaigns submitted");
    }
    for c in &view.campaigns {
        let percent = if c.cases > 0 {
            c.merged as f64 * 100.0 / c.cases as f64
        } else {
            100.0
        };
        // 20-cell progress bar: full cases, then the fractional remainder.
        let filled = ((percent / 5.0) as usize).min(20);
        let bar: String = "#".repeat(filled) + &"-".repeat(20 - filled);
        let _ = write!(
            out,
            "[{}] {} [{bar}] {}/{} ({percent:.1}%)  shards {}/{}/{} done/leased/idle",
            c.id, c.name, c.merged, c.cases, c.shards_done, c.shards_leased, c.shards_idle
        );
        if c.rate_mcps > 0 {
            let _ = write!(out, "  {:.1} case/s", c.rate_mcps as f64 / 1000.0);
        }
        if let Some(eta_ms) = c.eta_ms {
            let _ = write!(out, "  ETA {:.1}s", eta_ms as f64 / 1000.0);
        }
        if !c.stragglers.is_empty() {
            let shards: Vec<String> = c.stragglers.iter().map(usize::to_string).collect();
            let _ = write!(out, "  STRAGGLER shard(s) {}", shards.join(","));
        }
        if c.resharded > 0 {
            let _ = write!(out, "  resharded {}", c.resharded);
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "workers ({} connected):",
        view.workers.iter().filter(|w| w.connected).count()
    );
    for w in &view.workers {
        // Word-parallel lane utilization only renders once the worker has
        // reported `--batch` activity.
        let lanes = if w.lane_p50 > 0 {
            format!(", ~{}/63 mutant lanes live", w.lane_p50)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  {:<20} {}{} lease(s), last seen {:.1}s ago, {} case(s), \
             p50 {}us, p99 {}us, {} replayed, {} reconnect(s){lanes}",
            w.name,
            if w.connected { "" } else { "disconnected, " },
            w.leases,
            w.last_seen_ms as f64 / 1000.0,
            w.cases,
            w.p50_us,
            w.p99_us,
            w.replay_hits,
            w.reconnects
        );
    }
    out
}

fn top_cmd(args: &[String]) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut interval = Duration::from_millis(2000);
    let mut once = false;
    let mut opts = Options::new(args);
    let parsed: Result<(), String> = (|| {
        while let Some(arg) = opts.next() {
            match arg {
                "--interval-ms" => {
                    interval = Duration::from_millis(opts.parse::<u64>(arg)?.max(100));
                }
                "--once" => once = true,
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown option {flag:?}"));
                }
                positional if addr.is_none() => addr = Some(positional.to_owned()),
                extra => return Err(format!("unexpected argument {extra:?}")),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("amsfi top: {e}");
        return ExitCode::from(64);
    }
    let Some(addr) = addr else {
        eprintln!("amsfi top: usage: amsfi top <addr> [--interval-ms N] [--once]");
        return ExitCode::from(64);
    };
    loop {
        match coordinator_call(&addr, &Frame::TopRequest) {
            Ok(Frame::Top { view }) => {
                if !once {
                    // Clear screen and home the cursor between frames.
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", render_top(&view));
                use std::io::Write as _;
                std::io::stdout().flush().ok();
                if once {
                    return ExitCode::SUCCESS;
                }
            }
            Ok(Frame::Error { reason }) => {
                eprintln!("amsfi top: coordinator refused: {reason}");
                return ExitCode::from(2);
            }
            Ok(other) => {
                eprintln!("amsfi top: unexpected reply {:?}", other.kind());
                return ExitCode::from(2);
            }
            Err(CallError::Exchange(e)) => {
                eprintln!(
                    "amsfi top: {e} (a coordinator from before `top` existed ignores the \
                     request — this read then times out)"
                );
                return ExitCode::from(2);
            }
            Err(e) => return report_call_error("top", &addr, e),
        }
        std::thread::sleep(interval);
    }
}

fn drain(args: &[String]) -> ExitCode {
    let [addr] = args else {
        eprintln!("amsfi drain: usage: amsfi drain <addr>");
        return ExitCode::from(64);
    };
    match coordinator_call(addr, &Frame::Drain) {
        Ok(Frame::Status { body, .. }) => {
            println!("amsfi drain: coordinator is draining");
            print!("{body}");
            ExitCode::SUCCESS
        }
        Ok(Frame::Error { reason }) => {
            eprintln!("amsfi drain: coordinator refused: {reason}");
            ExitCode::from(2)
        }
        Ok(other) => {
            eprintln!("amsfi drain: unexpected reply {:?}", other.kind());
            ExitCode::from(2)
        }
        Err(e) => report_call_error("drain", addr, e),
    }
}

fn write_outputs(out: Option<&std::path::Path>, report: &EngineReport) -> std::io::Result<()> {
    let Some(dir) = out else { return Ok(()) };
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("cases.csv"), report::cases_csv(&report.result))?;
    std::fs::write(dir.join("stages.csv"), report.stats.stage_csv())?;
    println!(
        "wrote {} and {}",
        dir.join("cases.csv").display(),
        dir.join("stages.csv").display()
    );
    Ok(())
}
