//! The benchmark's self-test: every workload, shrunk to a tiny case list
//! and two passes, through the same `harness::run` the driver reaches.
//!
//! Checks the contract rather than the numbers: the result line parses,
//! the names printed are exactly those of `BENCHMARK.json` (which the
//! catalog regenerates byte for byte), the oracle catches a corrupted
//! verdict, and a seed fixes the case list and every *exact* count.

use amsfi_benchmark::catalog::{self, END_TO_END, PER_LAYER};
use amsfi_benchmark::cli;
use amsfi_benchmark::harness::{self, Options, Outcome};
use amsfi_benchmark::json::{self, Value};
use amsfi_benchmark::workload::Workload;
use std::collections::BTreeSet;

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        shrink: true,
        corrupt: false,
    }
}

fn run(opts: &Options) -> Outcome {
    harness::run(opts).unwrap_or_else(|e| panic!("{}: {e}", opts.workload.name()))
}

fn checked_in_benchmark_json() -> String {
    let path = amsfi_benchmark::root().join("..").join("BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names_in(doc: &Value, key: &str) -> BTreeSet<String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("every entry has a name")
                .to_owned()
        })
        .collect()
}

fn legal_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Parses the contract line back and returns the metric names it carries.
fn printed_names(outcome: &Outcome) -> BTreeSet<String> {
    let line = cli::result_line(outcome);
    assert!(!line.contains('\n'), "the result object is one line");
    let doc = json::parse(&line).expect("the result line is JSON");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        doc.get("correct").and_then(Value::as_bool),
        Some(outcome.correct)
    );
    let attempted = doc
        .get("attempted")
        .and_then(Value::as_f64)
        .expect("a number");
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("an object");
    for (name, m) in metrics {
        assert!(legal_name(name), "{name}");
        let value = m.get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name}: {value:?}");
        assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
    }
    metrics.iter().map(|(name, _)| name.clone()).collect()
}

#[test]
fn benchmark_json_is_the_catalog_byte_for_byte() {
    let text = checked_in_benchmark_json();
    assert_eq!(
        text,
        catalog::benchmark_json(),
        "run `amsfi-benchmark benchmark-json --write`"
    );
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    let keys: BTreeSet<&str> = doc
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let expected = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    assert_eq!(keys, BTreeSet::from(expected));
    let (e2e, layers) = (names_in(&doc, "end_to_end"), names_in(&doc, "per_layer"));
    assert!(e2e.len() == END_TO_END.len() && e2e.len() <= 16);
    assert!(layers.len() == PER_LAYER.len() && layers.len() <= 128);
    assert!(e2e.iter().chain(&layers).all(|n| legal_name(n)));
    assert_eq!(
        names_in(&doc, "workloads"),
        Workload::ALL.iter().map(|w| w.name().to_owned()).collect()
    );
}

#[test]
fn plain_runs_print_exactly_the_end_to_end_metrics() {
    let doc = json::parse(&checked_in_benchmark_json()).expect("BENCHMARK.json is JSON");
    let expected = names_in(&doc, "end_to_end");
    for workload in Workload::ALL {
        let outcome = run(&options(workload, false));
        assert!(
            outcome.correct,
            "{}: {:?}",
            workload.name(),
            outcome.problems
        );
        assert_eq!(outcome.failed, 0, "{}", workload.name());
        assert_eq!(printed_names(&outcome), expected, "{}", workload.name());
        for m in &outcome.metrics {
            assert!(m.value > 0.0, "{}: {} is never 0", workload.name(), m.name);
        }
        assert!(outcome.study.passes >= 2);
    }
}

/// Pass spans must tile the timed interval: each ends where the next
/// starts, so their lengths sum to it.
fn assert_pass_spans_tile(outcome: &Outcome) {
    let path = outcome
        .span_file
        .as_ref()
        .expect("a traced run writes spans");
    let doc = json::parse(&std::fs::read_to_string(path).expect("span file")).expect("JSON");
    let mut passes: Vec<(f64, f64)> = doc
        .get("spans")
        .and_then(Value::as_arr)
        .expect("spans")
        .iter()
        .map(|row| row.as_arr().expect("a span row"))
        // id, parent, name, start_ns, end_ns
        .filter(|row| row[2].as_str().is_some_and(|n| n.starts_with("pass ")))
        .map(|row| {
            let at = |i: usize| row[i].as_f64().expect("a time");
            (at(3), at(4))
        })
        .collect();
    passes.sort_by(|a, b| a.0.total_cmp(&b.0));
    assert_eq!(passes.len(), outcome.study.passes);
    assert!(passes.windows(2).all(|w| w[0].1 == w[1].0), "{passes:?}");
    let sum: f64 = passes.iter().map(|p| p.1 - p.0).sum();
    assert_eq!(sum, passes[passes.len() - 1].1 - passes[0].0);
    std::fs::remove_file(path).ok();
}

#[test]
fn traced_runs_print_exactly_the_per_layer_metrics_and_exact_counts_repeat() {
    let doc = json::parse(&checked_in_benchmark_json()).expect("BENCHMARK.json is JSON");
    let expected = names_in(&doc, "per_layer");
    for workload in Workload::ALL {
        let first = run(&options(workload, true));
        let second = run(&options(workload, true));
        assert!(first.correct, "{}: {:?}", workload.name(), first.problems);
        assert_eq!(printed_names(&first), expected, "{}", workload.name());
        assert_eq!(
            first.study.case_list_digest,
            second.study.case_list_digest,
            "{}: same seed, same case list",
            workload.name()
        );
        assert_eq!(first.study.verdict_digest, second.study.verdict_digest);
        for (layer, (a, b)) in PER_LAYER
            .iter()
            .zip(first.metrics.iter().zip(&second.metrics))
        {
            assert_eq!((a.name, b.name), (layer.name, layer.name));
            if layer.exact {
                assert_eq!(a.value, b.value, "{}: {} is exact", workload.name(), a.name);
            }
        }
        assert_pass_spans_tile(&first);
        assert_pass_spans_tile(&second);
    }
}

#[test]
fn a_different_seed_gives_a_different_case_list() {
    let a = options(Workload::CpuSetWord, false);
    let b = Options {
        seed: 6,
        ..a.clone()
    };
    assert_ne!(
        run(&a).study.case_list_digest,
        run(&b).study.case_list_digest
    );
}

#[test]
fn the_oracle_catches_a_corrupted_verdict() {
    for workload in [Workload::CpuSeuScalar, Workload::CpuSeuServe] {
        let opts = Options {
            corrupt: true,
            ..options(workload, false)
        };
        let outcome = run(&opts);
        assert!(!outcome.correct, "{}", workload.name());
        assert!(
            outcome.failed >= outcome.study.cases as u64,
            "{}: every case of the corrupted pass counts as failed",
            workload.name()
        );
        assert!(!outcome.problems.is_empty());
    }
}
