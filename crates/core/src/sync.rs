//! The crate's single chokepoint for `std::sync` / `std::thread`.
//!
//! Every concurrency primitive `annot-core` touches — mutexes, atomics,
//! thread scopes — is imported from here rather than from `std` directly
//! (`annot-lint` enforces this).  By default the re-exports are exactly the
//! `std` types, so regular builds compile to the same code as before the
//! facade existed.
//!
//! With the `annot_loom` cargo feature enabled, the re-exports switch to the
//! vendored `loom` shim (`vendor/loom`): a model-checking runtime that
//! schedules every synchronisation operation and explores the possible
//! interleavings exhaustively.  The model-checked tests in
//! [`crate::steal`] and [`crate::brute_force`] run under
//! `cargo test -p annot-core --features annot_loom`; outside a
//! `loom::model` closure the shim passes straight through to `std`, so the
//! ordinary unit tests keep working under the feature too.

#[cfg(feature = "annot_loom")]
pub use loom::sync::{Arc, LockResult, Mutex, MutexGuard, PoisonError};
#[cfg(not(feature = "annot_loom"))]
pub use std::sync::{Arc, LockResult, Mutex, MutexGuard, PoisonError};

/// Atomic types and memory orderings (see the module docs for the swap).
pub mod atomic {
    #[cfg(feature = "annot_loom")]
    pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    #[cfg(not(feature = "annot_loom"))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// Thread spawning and yielding (see the module docs for the swap).
pub mod thread {
    #[cfg(feature = "annot_loom")]
    pub use loom::thread::{available_parallelism, scope, yield_now};
    #[cfg(not(feature = "annot_loom"))]
    pub use std::thread::{available_parallelism, scope, yield_now};
}
