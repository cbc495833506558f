//! The campaign-execution engine: streams results instead of accumulating
//! them, so the paper's "instrument once, inject many" loop scales to
//! million-case campaigns that can be stopped, resumed, sharded across
//! machines, and observed while they run.
//!
//! What it adds over [`amsfi_core::run_campaign_parallel`]:
//!
//! * a work-stealing executor with per-case cooperative timeout, bounded
//!   retry with exponential backoff and an [`ErrorPolicy`] — one diverging
//!   simulation no longer kills the whole run ([`executor`]);
//! * per-attempt simulation budgets (step cap, timestep floor, deadline
//!   token) installed on every kernel, so guard trips come back as
//!   structured [`amsfi_waves::GuardViolation`] verdicts, and poison-case
//!   quarantine that keeps deterministic failures out of every `--resume`;
//! * an append-only, line-based results [`journal`] with checkpoint/resume:
//!   rerunning a campaign with an existing journal skips completed cases
//!   and merges deterministically;
//! * a [`Shard`] API that partitions the case list deterministically so
//!   shards run in separate processes or on separate machines, and their
//!   journals merge into one [`amsfi_core::CampaignResult`] ([`shard`]);
//! * an observability layer: atomic counters, periodic progress lines, a
//!   per-stage (build / simulate / classify) wall-clock breakdown with
//!   latency percentiles ([`stats`]), and structured [`telemetry`] — JSONL
//!   span/guard/retry/quarantine events plus kernel metrics (solver steps,
//!   proposed-`dt` distribution, snapshot-ladder hits) exportable as
//!   Prometheus text via [`EngineConfig::with_telemetry`].
//!
//! The `amsfi` CLI binary (in the `amsfi-serve` crate, which also adds
//! the distributed coordinator/worker service on top of this engine)
//! drives the named case-study [`campaigns`] through it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaigns;
pub mod executor;
pub mod journal;
pub mod shard;
pub mod stats;

pub use executor::{
    AnySnapshot, BatchSpec, Campaign, CaseCtx, CaseRunner, Engine, EngineConfig, EngineError,
    EngineReport, ErrorPolicy, ForkSpec, RecordSink, Snapshot, SnapshotSink, TapeSlot,
};
pub use journal::{Journal, JournalEntry, JournalError, JournalMeta, QuarantinedCase, SkippedCase};
pub use shard::Shard;
pub use stats::{EngineStats, Stage, StatsSnapshot};

/// Structured tracing and kernel metrics (re-export of `amsfi-telemetry`).
pub use amsfi_telemetry as telemetry;
pub use amsfi_telemetry::{Event, KernelMetrics, Telemetry};

/// The boxed error type run closures report, matching `amsfi_core`.
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;
