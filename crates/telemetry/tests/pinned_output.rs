//! Pins the Prometheus text and the snapshot wire line of fully populated
//! registries, byte for byte, so a change to how a registry lists its
//! series cannot silently rename, reorder or drop one.

use amsfi_telemetry::{GuardKind, KernelMetrics, ServeMetrics};

/// Every counter, guard kind and histogram holds a distinct non-zero value.
fn populated_kernel() -> KernelMetrics {
    let m = KernelMetrics::new();
    let counters = [
        &m.solver_steps,
        &m.digital_events,
        &m.sync_steps,
        &m.snapshot_hits,
        &m.snapshot_misses,
        &m.journal_records,
        &m.journal_bytes,
        &m.events_dropped,
        &m.early_aborts,
        &m.saved_sim_fs,
        &m.saved_steps,
        &m.golden_trace_bytes,
        &m.lane_seals,
    ];
    for (i, counter) in counters.into_iter().enumerate() {
        counter.add(101 + i as u64);
    }
    for (i, kind) in GuardKind::ALL.into_iter().enumerate() {
        for _ in 0..=i {
            m.guard_trip(kind);
        }
    }
    let hists = [
        &m.proposed_dt_fs,
        &m.steps_used,
        &m.stage_latency_us[0],
        &m.stage_latency_us[1],
        &m.stage_latency_us[2],
        &m.case_latency_us,
        &m.lane_occupancy,
    ];
    for (i, hist) in hists.into_iter().enumerate() {
        let i = i as u64;
        hist.observe(i);
        hist.observe(3 * i + 5);
    }
    m
}

fn populated_serve() -> ServeMetrics {
    let m = ServeMetrics::new();
    m.workers_connected.set(7);
    let counters = [
        &m.workers_total,
        &m.campaigns_submitted,
        &m.campaigns_completed,
        &m.shards_leased,
        &m.shards_completed,
        &m.shards_resharded,
        &m.lease_timeouts,
        &m.cases_merged,
        &m.records_rejected,
        &m.frames_rx,
        &m.frames_tx,
        &m.campaigns_recovered,
        &m.cases_recovered,
        &m.drain_requests,
        &m.stragglers_flagged,
    ];
    for (i, counter) in counters.into_iter().enumerate() {
        counter.add(11 + i as u64);
    }
    m
}

const KERNEL_PROM: &str = r#"# TYPE amsfi_solver_steps_total counter
amsfi_solver_steps_total 101
# TYPE amsfi_digital_events_total counter
amsfi_digital_events_total 102
# TYPE amsfi_sync_steps_total counter
amsfi_sync_steps_total 103
# TYPE amsfi_guard_trips_total counter
amsfi_guard_trips_total{kind="non-finite"} 1
amsfi_guard_trips_total{kind="step-budget"} 2
amsfi_guard_trips_total{kind="timestep-collapse"} 3
amsfi_guard_trips_total{kind="deadline"} 4
# TYPE amsfi_snapshot_cache_total counter
amsfi_snapshot_cache_total{outcome="hit"} 104
amsfi_snapshot_cache_total{outcome="miss"} 105
# TYPE amsfi_journal_records_total counter
amsfi_journal_records_total 106
# TYPE amsfi_journal_bytes_total counter
amsfi_journal_bytes_total 107
# TYPE amsfi_events_dropped_total counter
amsfi_events_dropped_total 108
# TYPE amsfi_early_aborts_total counter
amsfi_early_aborts_total 109
# TYPE amsfi_saved_sim_femtoseconds_total counter
amsfi_saved_sim_femtoseconds_total 110
# TYPE amsfi_saved_steps_total counter
amsfi_saved_steps_total 111
# TYPE amsfi_golden_trace_bytes gauge
amsfi_golden_trace_bytes 112
# TYPE amsfi_lane_seals_total counter
amsfi_lane_seals_total 113
# TYPE amsfi_lane_occupancy histogram
amsfi_lane_occupancy_bucket{le="0"} 0
amsfi_lane_occupancy_bucket{le="1"} 0
amsfi_lane_occupancy_bucket{le="3"} 0
amsfi_lane_occupancy_bucket{le="7"} 1
amsfi_lane_occupancy_bucket{le="15"} 1
amsfi_lane_occupancy_bucket{le="31"} 2
amsfi_lane_occupancy_bucket{le="+Inf"} 2
amsfi_lane_occupancy_sum 29
amsfi_lane_occupancy_count 2
# TYPE amsfi_proposed_dt_femtoseconds histogram
amsfi_proposed_dt_femtoseconds_bucket{le="0"} 1
amsfi_proposed_dt_femtoseconds_bucket{le="1"} 1
amsfi_proposed_dt_femtoseconds_bucket{le="3"} 1
amsfi_proposed_dt_femtoseconds_bucket{le="7"} 2
amsfi_proposed_dt_femtoseconds_bucket{le="+Inf"} 2
amsfi_proposed_dt_femtoseconds_sum 5
amsfi_proposed_dt_femtoseconds_count 2
# TYPE amsfi_budget_steps_used histogram
amsfi_budget_steps_used_bucket{le="0"} 0
amsfi_budget_steps_used_bucket{le="1"} 1
amsfi_budget_steps_used_bucket{le="3"} 1
amsfi_budget_steps_used_bucket{le="7"} 1
amsfi_budget_steps_used_bucket{le="15"} 2
amsfi_budget_steps_used_bucket{le="+Inf"} 2
amsfi_budget_steps_used_sum 9
amsfi_budget_steps_used_count 2
# TYPE amsfi_stage_latency_microseconds histogram
amsfi_stage_latency_microseconds_bucket{stage="build",le="0"} 0
amsfi_stage_latency_microseconds_bucket{stage="build",le="1"} 0
amsfi_stage_latency_microseconds_bucket{stage="build",le="3"} 1
amsfi_stage_latency_microseconds_bucket{stage="build",le="7"} 1
amsfi_stage_latency_microseconds_bucket{stage="build",le="15"} 2
amsfi_stage_latency_microseconds_bucket{stage="build",le="+Inf"} 2
amsfi_stage_latency_microseconds_sum{stage="build"} 13
amsfi_stage_latency_microseconds_count{stage="build"} 2
amsfi_stage_latency_microseconds_bucket{stage="simulate",le="0"} 0
amsfi_stage_latency_microseconds_bucket{stage="simulate",le="1"} 0
amsfi_stage_latency_microseconds_bucket{stage="simulate",le="3"} 1
amsfi_stage_latency_microseconds_bucket{stage="simulate",le="7"} 1
amsfi_stage_latency_microseconds_bucket{stage="simulate",le="15"} 2
amsfi_stage_latency_microseconds_bucket{stage="simulate",le="+Inf"} 2
amsfi_stage_latency_microseconds_sum{stage="simulate"} 17
amsfi_stage_latency_microseconds_count{stage="simulate"} 2
amsfi_stage_latency_microseconds_bucket{stage="classify",le="0"} 0
amsfi_stage_latency_microseconds_bucket{stage="classify",le="1"} 0
amsfi_stage_latency_microseconds_bucket{stage="classify",le="3"} 0
amsfi_stage_latency_microseconds_bucket{stage="classify",le="7"} 1
amsfi_stage_latency_microseconds_bucket{stage="classify",le="15"} 1
amsfi_stage_latency_microseconds_bucket{stage="classify",le="31"} 2
amsfi_stage_latency_microseconds_bucket{stage="classify",le="+Inf"} 2
amsfi_stage_latency_microseconds_sum{stage="classify"} 21
amsfi_stage_latency_microseconds_count{stage="classify"} 2
# TYPE amsfi_case_latency_microseconds histogram
amsfi_case_latency_microseconds_bucket{le="0"} 0
amsfi_case_latency_microseconds_bucket{le="1"} 0
amsfi_case_latency_microseconds_bucket{le="3"} 0
amsfi_case_latency_microseconds_bucket{le="7"} 1
amsfi_case_latency_microseconds_bucket{le="15"} 1
amsfi_case_latency_microseconds_bucket{le="31"} 2
amsfi_case_latency_microseconds_bucket{le="+Inf"} 2
amsfi_case_latency_microseconds_sum 25
amsfi_case_latency_microseconds_count 2
"#;

const KERNEL_SNAPSHOT: &str = "digital_events=102;\
    early_aborts=109;\
    events_dropped=108;\
    golden_trace_bytes=112;\
    guard_deadline=4;\
    guard_non-finite=1;\
    guard_step-budget=2;\
    guard_timestep-collapse=3;\
    journal_bytes=107;\
    journal_records=106;\
    lane_seals=113;\
    saved_sim_fs=110;\
    saved_steps=111;\
    snapshot_hits=104;\
    snapshot_misses=105;\
    solver_steps=101;\
    sync_steps=103;\
    case_latency_us=h:25:3.1,5.1;\
    lane_occupancy=h:29:3.1,5.1;\
    proposed_dt_fs=h:5:0.1,3.1;\
    stage_latency_us_build=h:13:2.1,4.1;\
    stage_latency_us_classify=h:21:3.1,5.1;\
    stage_latency_us_simulate=h:17:2.1,4.1;\
    steps_used=h:9:1.1,4.1";

const SERVE_PROM: &str = r#"# TYPE amsfi_serve_workers_connected gauge
amsfi_serve_workers_connected 7
# TYPE amsfi_serve_workers_total counter
amsfi_serve_workers_total 11
# TYPE amsfi_serve_campaigns_total counter
amsfi_serve_campaigns_total{state="submitted"} 12
amsfi_serve_campaigns_total{state="completed"} 13
# TYPE amsfi_serve_shards_total counter
amsfi_serve_shards_total{state="leased"} 14
amsfi_serve_shards_total{state="completed"} 15
amsfi_serve_shards_total{state="resharded"} 16
# TYPE amsfi_serve_lease_timeouts_total counter
amsfi_serve_lease_timeouts_total 17
# TYPE amsfi_serve_cases_merged_total counter
amsfi_serve_cases_merged_total 18
# TYPE amsfi_serve_records_rejected_total counter
amsfi_serve_records_rejected_total 19
# TYPE amsfi_serve_frames_total counter
amsfi_serve_frames_total{dir="rx"} 20
amsfi_serve_frames_total{dir="tx"} 21
# TYPE amsfi_serve_campaigns_recovered_total counter
amsfi_serve_campaigns_recovered_total 22
# TYPE amsfi_serve_cases_recovered_total counter
amsfi_serve_cases_recovered_total 23
# TYPE amsfi_serve_drain_requests_total counter
amsfi_serve_drain_requests_total 24
# TYPE amsfi_serve_stragglers_flagged_total counter
amsfi_serve_stragglers_flagged_total 25
"#;

#[test]
fn kernel_metrics_render_byte_for_byte() {
    let m = populated_kernel();
    assert_eq!(m.to_prometheus(), KERNEL_PROM);
    assert_eq!(m.snapshot().encode(), KERNEL_SNAPSHOT);
}

#[test]
fn serve_metrics_render_byte_for_byte() {
    assert_eq!(populated_serve().to_prometheus(), SERVE_PROM);
}
