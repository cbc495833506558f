//! Allocation budget of booking a case.
//!
//! On a word group most lanes seal within a stop or two, so what the engine
//! does around a case — book its verdict, journal nothing, hand the report
//! back — costs as much as simulating it. Booking a case is a move: its
//! label and a repeated verdict's `affected` list are shared by reference
//! count, the report is built once by moving entries in case order, and a
//! lane's unarmed budget allocates nothing.
//!
//! Under `--early-abort` a lane's online classifier is a plain value of
//! the engine's, shown the lane at the machine's stops: it shares the spec,
//! the golden trace and their resolved names with every other classifier
//! of the run, and builds its outcome once, at the seal.
//!
//! The one test of this binary counts every thread's fresh allocations (the
//! engine runs its workers on threads of its own), so it must stay alone
//! here.

use amsfi_engine::{campaigns, Engine, EngineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts fresh allocations of every thread.
struct Counting;

static FRESH: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain atomic, so
// touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        FRESH.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        FRESH.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One word group of this many cases: the largest a lone worker takes.
const GROUP: usize = 8 * 63;

/// Everything one `Engine::run` of a `cpu-set` group of [`GROUP`] cases
/// allocates, golden run and word machines included, per case.
fn fresh_per_case(early_abort: bool) -> f64 {
    let campaign = campaigns::build("cpu-set", Some(GROUP)).expect("cpu-set is in the catalog");
    let config = EngineConfig::default()
        .with_workers(1)
        .with_batch(true)
        .with_early_abort(early_abort);
    let engine = Engine::new(config);
    let before = FRESH.load(Ordering::Relaxed);
    let report = engine.run(&campaign).expect("the batch run completes");
    let fresh = FRESH.load(Ordering::Relaxed) - before;

    assert_eq!(report.path, "batch");
    assert_eq!(report.result.cases.len(), GROUP);
    assert_eq!(
        report.stats.fallbacks, 0,
        "every lane booked from the word machine"
    );
    if early_abort {
        let cases = &report.result.cases;
        assert!(
            cases.iter().any(|c| c.outcome.sealed_at.is_some()),
            "some lane's classifier sealed"
        );
    }
    fresh as f64 / GROUP as f64
}

#[test]
fn booking_a_word_group_allocates_a_bounded_amount_per_case() {
    // Before booking became a move this read 11.8 per case (5 943
    // allocations); now 2.7 (1 381): about 2.0 per case on top of some
    // 360 the run pays whatever its size.
    let per_case = fresh_per_case(false);
    assert!(per_case <= 4.0, "{per_case:.1} fresh allocations per case");
    // Watched by their online classifiers (`--early-abort`). When each
    // lane's classifier copied the spec and its names, sat behind two
    // mutexes with an observer and a seal token, and built an `affected`
    // list at every permanent-seal check, this read 85.7 per case (43 194
    // allocations); 5.2 while a retired lane still formatted an error
    // string; now 5.0.
    let per_case = fresh_per_case(true);
    assert!(
        per_case <= 10.0,
        "{per_case:.1} fresh allocations per watched case"
    );
}
