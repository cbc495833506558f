//! The repo's benchmark harness (see `benchmark/README.md`).
//!
//! Layout: [`workload`] draws the seeded inputs, [`adapter`] is the only
//! module that names the libraries under `crates/`, [`harness`] runs the
//! set-up / warm-up / timed-pass / verify shape and derives the metrics,
//! [`catalog`] names them (and generates `BENCHMARK.json`), [`spans`]
//! keeps the traced run's spans, and [`cli`] is the command line.

#![warn(missing_docs)]

pub mod adapter;
pub mod catalog;
pub mod cli;
pub mod harness;
pub mod json;
pub mod spans;
pub mod sys;
pub mod workload;

/// `benchmark/`, where this crate was built from: references are read from
/// `reference/`, scratch and span files go under `out/`.
pub fn root() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}
