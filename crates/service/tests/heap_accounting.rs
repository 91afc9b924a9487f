//! Heap accounting, measured with a counting global allocator.
//!
//! Two invariants of a long-lived server are pinned here on real
//! allocations, not on estimates:
//!
//! * the cache's tracked footprint (`STATS.approx_bytes`, the byte-budget
//!   enforcement input) stays within a factor of 2 of the live heap its
//!   entries really hold;
//! * a `DECIDE` that brings fresh relation names allocates as much at
//!   request 2 000 as at request 10 — its cost does not grow with what
//!   earlier requests registered.
//!
//! The allocator counts requested bytes per thread, so each test reads
//! only its own thread's allocations while the harness runs the others in
//! parallel.  Everything measured runs on the test's thread: `handle_line`
//! and `get_or_decide` decide inline.

use annot_core::registry::{decide_ucq_dyn, SemiringId};
use annot_query::{parser, Schema};
use annot_service::{Cache, CacheConfig, Service, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Bytes this thread has ever allocated (growth by `realloc` included).
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// Books `grown` bytes allocated and `freed` bytes released on this thread.
/// `try_with`: the allocator may run while the thread is being torn down.
fn book(grown: usize, freed: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + grown as i64 - freed as i64));
    let _ = ALLOCATED.try_with(|total| total.set(total.get() + grown as u64));
}

/// The system allocator, with every request booked on the calling thread.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the booking only
// touches const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(layout.size(), 0);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(0, layout.size());
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(
            new_size.saturating_sub(layout.size()),
            layout.size().saturating_sub(new_size),
        );
        // SAFETY: `ptr` was allocated by `System` with `layout`; the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

/// The `i`-th request pair: one of a few shapes (free variables, repeated
/// atoms, a two-member union) over relation names of its own.
fn request(i: usize) -> (String, String) {
    match i % 3 {
        0 => (
            format!("Q() :- A{i}(x, y), A{i}(y, z)"),
            format!("Q() :- A{i}(u, v)"),
        ),
        1 => (
            format!("Q(x) :- A{i}(x, y), B{i}(y)"),
            format!("Q(u) :- A{i}(u, v), B{i}(v), B{i}(v)"),
        ),
        _ => (
            format!("Q() :- A{i}(x, x) ; Q() :- B{i}(y)"),
            format!("Q() :- A{i}(u, v), B{i}(v)"),
        ),
    }
}

#[test]
fn tracked_bytes_stay_within_twice_the_live_heap_of_the_entries() {
    const ENTRIES: usize = 300;
    let b = SemiringId::from_name("B").expect("B is a registered semiring");
    let cache = Cache::new();
    let before = live();
    for i in 0..ENTRIES {
        // As the server does: a schema per request, dropped with the
        // request, so the entry alone keeps what it stores alive.
        let (q1, q2) = request(i);
        let mut schema = Schema::new();
        let u1 = parser::parse_ucq(&mut schema, &q1).expect("left query parses");
        let u2 = parser::parse_ucq(&mut schema, &q2).expect("right query parses");
        let (_, hit) = cache.get_or_decide(b, &u1, &u2, |x, y| decide_ucq_dyn(b, x, y));
        assert!(!hit, "request {i} has names of its own and must miss");
    }
    let held = live() - before;
    let stats = cache.stats();
    assert_eq!(stats.entries, ENTRIES as u64);
    let tracked = stats.approx_bytes as i64;
    assert!(
        held <= 2 * tracked && tracked <= 2 * held,
        "{ENTRIES} entries hold {held} live heap bytes, the cache tracks {tracked}"
    );
}

#[test]
fn a_fresh_name_decide_allocates_no_more_late_than_early() {
    let service = Service::with_config(ServiceConfig {
        cache: CacheConfig {
            byte_budget: Some(256 * 1024),
            ..CacheConfig::default()
        },
        ..ServiceConfig::default()
    });
    let (mut early, mut late) = (0, 0);
    for i in 1..=2_000 {
        // One request shape throughout, so only history could change its
        // cost: two relation names no earlier request used.
        let line =
            format!("DECIDE B Q() :- A{i}(x, y), B{i}(y, z) <= Q() :- A{i}(u, v), B{i}(v, w)");
        let start = allocated();
        let outcome = service.handle_line(&line);
        let cost = allocated() - start;
        assert!(outcome.reply().starts_with("OK "), "{}", outcome.reply());
        match i {
            10 => early = cost,
            2_000 => late = cost,
            _ => {}
        }
    }
    assert!(
        service.cache().stats().evictions() > 0,
        "the byte budget must be under pressure by request 2 000"
    );
    assert!(
        2 * late <= 3 * early,
        "request 2 000 allocated {late} bytes, request 10 only {early}"
    );
}
