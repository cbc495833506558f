//! The command line: one run (the driver's contract), `all`, `agree`,
//! `benchmark-json` and `regen-reference`.

use crate::adapter::{self, Path as EnginePath, Prepared};
use crate::catalog::{self, Better, END_TO_END, RUN_SECONDS};
use crate::harness::{self, Options, Outcome, Reference, Study, REFERENCE_SEEDS};
use crate::json::{self, obj, Value};
use crate::spans::Recorder;
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

const USAGE: &str = "\
usage:
  amsfi-benchmark --workload W --seed N --seconds S --trace 0|1 [--shrink]
      one run; the last stdout line is the result object
  amsfi-benchmark all [--seeds 1,2,..] [--seconds S] [--trace 0|1] [--out FILE]
      every workload once per seed, each in its own process; FILE gets one
      line per run for `agree`
  amsfi-benchmark agree A B
      do two result sets agree within the bounds of BENCHMARK.json?
  amsfi-benchmark benchmark-json [--write]
      print (or rewrite) BENCHMARK.json from the metric catalog
  amsfi-benchmark regen-reference
      rewrite benchmark/reference/ after a full scalar cross-check
workloads: cpu-seu-scalar cpu-seu-word cpu-set-word pll-mixed-fork cpu-seu-serve";

fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)?
        .map(|v| v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")))
        .transpose()
}

fn trace_flag(args: &[String]) -> Result<bool, String> {
    match flag(args, "--trace")? {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("--trace takes 0 or 1, not {other:?}")),
    }
}

fn run_options(args: &[String]) -> Result<Options, String> {
    let name = flag(args, "--workload")?.ok_or("--workload is required")?;
    let seconds: f64 = parse_flag(args, "--seconds")?.unwrap_or(RUN_SECONDS as f64);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds {seconds} is not a length of time"));
    }
    Ok(Options {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: parse_flag(args, "--seed")?.unwrap_or(1),
        seconds,
        trace: trace_flag(args)?,
        shrink: args.iter().any(|a| a == "--shrink"),
        corrupt: false,
    })
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    obj([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        (
            "metrics",
            Value::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_owned(),
                            obj([
                                ("value", Value::Num(m.value)),
                                ("unit", Value::Str(m.unit.to_owned())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

fn study_line(study: &Study) -> String {
    obj([
        ("passes", Value::Num(study.passes as f64)),
        ("cases", Value::Num(study.cases as f64)),
        ("fastest_pass_s", Value::Num(study.fastest_pass_s)),
        ("median_pass_s", Value::Num(study.median_pass_s)),
        ("total_rate", Value::Num(study.total_rate)),
        ("setup_min_s", Value::Num(study.setup_min_s)),
        ("setup_median_s", Value::Num(study.setup_median_s)),
        ("loadavg1", Value::Num(study.loadavg1)),
        (
            "pass_walls_s",
            Value::Arr(study.pass_walls_s.iter().map(|w| Value::Num(*w)).collect()),
        ),
        (
            "case_list_digest",
            Value::Str(format!("{:016x}", study.case_list_digest)),
        ),
        (
            "verdict_digest",
            Value::Str(format!("{:016x}", study.verdict_digest)),
        ),
    ])
    .render()
}

fn print_outcome(opts: &Options, outcome: &Outcome) {
    let study = &outcome.study;
    println!(
        "{} seed {} ({} cases/pass): {} timed passes, fastest {:.4} s, median {:.4} s \
         (pass_spread {:.1}%), loadavg1 {:.2}",
        opts.workload.name(),
        opts.seed,
        study.cases,
        study.passes,
        study.fastest_pass_s,
        study.median_pass_s,
        (study.median_pass_s / study.fastest_pass_s - 1.0) * 100.0,
        study.loadavg1,
    );
    let tally: Vec<String> = study
        .tally
        .iter()
        .map(|(class, n)| format!("{class} {n}"))
        .collect();
    println!(
        "  verdicts: {} (cases.csv {:016x}); attempted {}, failed {}",
        tally.join(", "),
        study.verdict_digest,
        outcome.attempted,
        outcome.failed
    );
    for m in &outcome.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for problem in &outcome.problems {
        println!("  INCORRECT: {problem}");
    }
    if let Some(path) = &outcome.span_file {
        println!("  spans: {}", path.display());
    }
    println!("study: {}", study_line(study));
}

fn run_once(args: &[String]) -> Result<i32, String> {
    let opts = run_options(args)?;
    let outcome = harness::run(&opts)?;
    print_outcome(&opts, &outcome);
    println!("{}", result_line(&outcome));
    Ok(if outcome.correct { 0 } else { 1 })
}

/// `all`: every workload, one process each, so that `peak_rss_mb` and
/// warm-up state are each run's own.
fn run_all(args: &[String]) -> Result<i32, String> {
    let seeds: Vec<u64> = match flag(args, "--seeds")? {
        None => vec![1],
        Some(list) => list
            .split(',')
            .map(|s| s.parse().map_err(|_| format!("--seeds: bad seed {s:?}")))
            .collect::<Result<_, _>>()?,
    };
    let seconds = flag(args, "--seconds")?.unwrap_or("20");
    let trace = if trace_flag(args)? { "1" } else { "0" };
    let out = flag(args, "--out")?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut lines = String::new();
    let mut worst = 0;
    for &seed in &seeds {
        for workload in Workload::ALL {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", seconds])
                .args(["--trace", trace]);
            if args.iter().any(|a| a == "--shrink") {
                cmd.arg("--shrink");
            }
            let output = cmd
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut tail = stdout.lines().rev();
            let result = tail.next().unwrap_or("");
            let study = tail
                .next()
                .and_then(|l| l.strip_prefix("study: "))
                .unwrap_or("null");
            for line in stdout.lines().filter(|l| !l.starts_with("study: ")) {
                println!("{line}");
            }
            let code = output.status.code().unwrap_or(2);
            if code != 0 {
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                worst = worst.max(code);
                continue;
            }
            lines.push_str(&format!(
                "{{\"workload\": \"{}\", \"seed\": {seed}, \"result\": {result}, \"study\": {study}}}\n",
                workload.name()
            ));
        }
    }
    if let Some(path) = out {
        std::fs::write(path, lines).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(worst)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let len = x.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    Some([1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    }))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

type ResultSet = BTreeMap<(String, String), Vec<f64>>;

fn load_set(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = ResultSet::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: a line has no workload"))?;
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{path}: a line has no metrics"))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                set.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

/// `agree`: for every (workload, end-to-end metric), neither set's median
/// may be worse than the other's by more than the metric's bound.
fn agree(args: &[String]) -> Result<i32, String> {
    let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
        return Err("agree takes two result-set files".to_owned());
    };
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    let mut disagreements = 0;
    println!(
        "{:<16} {:<18} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "B vs A", "IQR A", "IQR B", "bound"
    );
    for workload in Workload::ALL {
        for m in END_TO_END {
            let key = (workload.name().to_owned(), m.name.to_owned());
            let (Some(va), Some(vb)) = (set_a.get(&key), set_b.get(&key)) else {
                println!("{:<16} {:<18} missing from a set", workload.name(), m.name);
                disagreements += 1;
                continue;
            };
            let (ma, mb) = (harness::median(va.clone()), harness::median(vb.clone()));
            // Positive = B is worse than A.
            let worse = match m.better {
                Better::Higher => (ma - mb) / ma,
                Better::Lower => (mb - ma) / ma,
            };
            let ok = worse.abs() <= m.bound;
            let pct = |s: Option<f64>| s.map_or("-".to_owned(), |s| format!("{:.2}%", s * 100.0));
            println!(
                "{:<16} {:<18} {:>12.5} {:>12.5} {:>7.2}% {:>8} {:>8} {:>5.0}%{}",
                workload.name(),
                m.name,
                ma,
                mb,
                worse * 100.0,
                pct(spread(va)),
                pct(spread(vb)),
                m.bound * 100.0,
                if ok { "" } else { "  DISAGREE" },
            );
            if !ok {
                disagreements += 1;
            }
        }
    }
    println!(
        "{}",
        if disagreements == 0 {
            "the two sets agree within every bound".to_owned()
        } else {
            format!("{disagreements} metric(s) outside their bound")
        }
    );
    Ok(i32::from(disagreements > 0))
}

fn benchmark_json(args: &[String]) -> Result<i32, String> {
    let text = catalog::benchmark_json();
    if args.iter().any(|a| a == "--write") {
        let path = crate::root().join("..").join("BENCHMARK.json");
        std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        print!("{text}");
    }
    Ok(0)
}

/// Rewrites `benchmark/reference/`: for each workload and reference seed,
/// the verdicts of a scalar from-scratch run over *every* case, which the
/// workload's own path must reproduce byte for byte first.
fn regen_reference(root: &Path) -> Result<i32, String> {
    let dir = root.join("reference");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let rec = Arc::new(Recorder::new(0));
    for workload in Workload::ALL {
        for seed in REFERENCE_SEEDS {
            let prepared = Prepared::new(workload, seed, false, &rec);
            let scalar = adapter::run_pass(&prepared, EnginePath::Oracle { stride: 1 }, false)?;
            let own = adapter::run_pass(&prepared, EnginePath::Workload, false)?;
            if own.csv != scalar.csv {
                return Err(format!(
                    "{} seed {seed}: the workload's path and the scalar run disagree",
                    workload.name()
                ));
            }
            let reference = Reference::of_csv(&scalar.csv);
            let path = Reference::path(root, workload, seed);
            std::fs::write(&path, reference.render())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("{}: {} cases", path.display(), prepared.cases());
        }
    }
    Ok(0)
}

/// Dispatches the command line; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        Some("all") => run_all(&args[1..]),
        Some("agree") => agree(&args[1..]),
        Some("benchmark-json") => benchmark_json(&args[1..]),
        Some("regen-reference") => regen_reference(&crate::root()),
        Some("run") => run_once(&args[1..]),
        Some(flag) if flag.starts_with("--") && flag != "--help" => run_once(args),
        _ => {
            eprintln!("{USAGE}");
            return 64;
        }
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("amsfi-benchmark: {e}");
            2
        }
    }
}
