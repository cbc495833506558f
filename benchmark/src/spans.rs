//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the harness's own code — round phases,
//! passes, `Engine::run` calls, submissions, and the campaign closures
//! (`build`, `inject`, the serve `CampaignSource`) the harness hands to the
//! libraries — kept in memory and written once, at exit.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, from 1.
    pub id: u64,
    /// The span that caused this one (0 for the root).
    pub parent: u64,
    /// What was timed.
    pub name: Cow<'static, str>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// Collects spans. One per run, shared by the harness thread, the engine
/// thread (through the campaign closures) and, on serve, the worker thread.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    run_id: u64,
    next_id: AtomicU64,
    /// Case-level spans (closures) are recorded only while this is set, so
    /// untraced passes pay one relaxed load per closure call.
    case_level: AtomicBool,
    /// Parent for spans opened on threads the harness does not own.
    ambient: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder with case-level spans off.
    pub fn new(run_id: u64) -> Self {
        Recorder {
            t0: Instant::now(),
            run_id,
            next_id: AtomicU64::new(1),
            case_level: AtomicBool::new(false),
            ambient: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The identifier every span of this run shares.
    pub fn run_id(&self) -> u64 {
        self.run_id
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Turns the closure spans on or off.
    pub fn set_case_level(&self, on: bool) {
        self.case_level.store(on, Ordering::Relaxed);
    }

    /// Whether closure spans are being recorded.
    pub fn case_level(&self) -> bool {
        self.case_level.load(Ordering::Relaxed)
    }

    /// Sets the parent that closure spans attach to.
    pub fn set_ambient(&self, parent: u64) {
        self.ambient.store(parent, Ordering::Relaxed);
    }

    /// The current closure-span parent.
    pub fn ambient(&self) -> u64 {
        self.ambient.load(Ordering::Relaxed)
    }

    /// Reserves an id for a span that is about to start.
    pub fn open(&self) -> (u64, u64) {
        (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
    }

    /// Records a span opened with [`Recorder::open`], ending now.
    pub fn close(&self, open: (u64, u64), parent: u64, name: impl Into<Cow<'static, str>>) {
        self.close_at(open, parent, name, self.now_ns());
    }

    /// Records a span opened with [`Recorder::open`], ending at `end_ns`
    /// (so that consecutive spans can share a boundary exactly).
    pub fn close_at(
        &self,
        (id, start_ns): (u64, u64),
        parent: u64,
        name: impl Into<Cow<'static, str>>,
        end_ns: u64,
    ) {
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        });
    }

    /// Times `f` (which is handed the new span's id) as a span under `parent`.
    pub fn scope<T>(&self, parent: u64, name: &str, f: impl FnOnce(u64) -> T) -> T {
        let open = self.open();
        let out = f(open.0);
        self.close(open, parent, name.to_owned());
        out
    }

    /// Times a campaign closure when case-level spans are on.
    pub fn closure<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.case_level() {
            return f();
        }
        let open = self.open();
        let out = f();
        self.close(open, self.ambient(), name);
        out
    }

    /// A copy of every span recorded so far, in completion order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}
