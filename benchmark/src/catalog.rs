//! The metric catalog and `BENCHMARK.json`.
//!
//! This table is the single source of every metric name, unit, direction
//! and regression bound: the run prints exactly these names, `agree`
//! checks against exactly these bounds, and `benchmark-json` regenerates
//! `BENCHMARK.json` from it byte for byte (the self-test checks all three).

use crate::workload::Workload;

/// How long one run's timed passes last, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Bigger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see; every workload reports all.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen. Set
    /// from the noise study in benchmark/README.md: at least three times
    /// the spread (inter-quartile distance over median of ten runs) seen
    /// while the host was quiet, and no more than the contract's 0.25.
    pub bound: f64,
}

/// The end-to-end metrics (host time; printed by `--trace 0`).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "cases_per_s",
        unit: "cases/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_kcase",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer (printed by `--trace 1`; no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `layer.what`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Repeats bit for bit for a given seed and workload.
    pub exact: bool,
}

const fn measured(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

const fn share(name: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit: "share",
        better,
        exact: false,
    }
}

/// The per-layer metrics, layer by layer.
pub const PER_LAYER: [PerLayer; 49] = [
    measured("waves.planes.ns_per_op", "ns"),
    measured("waves.stream.digital_ns_per_edge", "ns"),
    measured("waves.stream.analog_ns_per_sample", "ns"),
    count("waves.trace.golden_bytes", "bytes", Better::Lower),
    measured("faults.pulse.eval_ns", "ns"),
    measured("faults.pulse.fit_us", "us"),
    measured("digital.scalar.ns_per_event", "ns"),
    count("digital.scalar.events_per_case", "count", Better::Lower),
    measured("digital.word.seu_group_ms", "ms"),
    measured("digital.word.set_group_ms", "ms"),
    count("digital.word.seu_sealed_share", "share", Better::Higher),
    count("digital.word.set_sealed_share", "share", Better::Higher),
    count("digital.word.lane_occupancy_p50", "count", Better::Higher),
    count("digital.word.events_per_case", "count", Better::Lower),
    measured("digital.fork.restore_us", "us"),
    measured("analog.solver.ns_per_step", "ns"),
    count("analog.solver.steps_per_case", "count", Better::Lower),
    measured("mixed.sync.ns_per_sync", "ns"),
    count("mixed.sync.steps_per_case", "count", Better::Lower),
    measured("mixed.fork.capture_us", "us"),
    measured("mixed.fork.restore_us", "us"),
    measured("core.classify.cpu_us_per_case", "us"),
    measured("core.classify.pll_us_per_case", "us"),
    measured("circuits.cpu.build_us", "us"),
    measured("circuits.pll.build_us", "us"),
    measured("circuits.cpu.golden_ms", "ms"),
    measured("circuits.pll.golden_ms", "ms"),
    share("engine.stage.build_share", Better::Lower),
    share("engine.stage.simulate_share", Better::Higher),
    share("engine.stage.classify_share", Better::Lower),
    share("engine.overhead_share", Better::Lower),
    measured("engine.case_us_p50", "us"),
    measured("engine.case_us_p99", "us"),
    count("engine.snapshot.hit_share", "share", Better::Higher),
    measured("engine.journal.write_us_per_record", "us"),
    count("engine.journal.bytes_per_case", "bytes", Better::Lower),
    share("serve.efficiency", Better::Higher),
    share("serve.worker_busy_share", Better::Higher),
    measured("serve.lease_gap_ms_p50", "ms"),
    measured("serve.idle_pickup_ms", "ms"),
    measured("serve.proto.us_per_record_frame", "us"),
    measured("serve.frames_per_case", "count"),
    measured("serve.records_rejected", "count"),
    measured("serve.shards_resharded", "count"),
    measured("serve.lease_timeouts", "count"),
    share("telemetry.trace_overhead_share", Better::Lower),
    PerLayer {
        name: "bench.passes",
        unit: "count",
        better: Better::Higher,
        exact: false,
    },
    share("bench.pass_spread", Better::Lower),
    measured("bench.loadavg1", "load"),
];

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

fn quoted(s: &str) -> String {
    crate::json::Value::Str(s.to_owned()).render()
}

/// The exact contents of `/BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|s| quoted(s)).collect();
    out.push_str(&format!("  \"command\": [{}],\n", command.join(", ")));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name()),
                quoted(w.why())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_legal_unique_and_within_the_contract_counts() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        assert!(names.iter().all(|n| legal_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
    }

    #[test]
    fn benchmark_json_parses_back_to_the_catalog() {
        let doc = crate::json::parse(&benchmark_json()).expect("valid json");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(crate::json::Value::as_arr)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("end_to_end").len(), END_TO_END.len());
        assert_eq!(names("per_layer").len(), PER_LAYER.len());
        assert_eq!(names("workloads").len(), Workload::ALL.len());
        assert_eq!(
            doc.get("run_seconds").and_then(crate::json::Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
    }
}
