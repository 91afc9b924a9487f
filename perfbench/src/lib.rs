//! End-to-end and per-layer benchmark of the `annot_serve` decision server
//! and the brute-force oracle.  See `README.md` beside `Cargo.toml` for the
//! workloads, the metrics and how to run it.

pub mod cpus;
pub mod gen;
pub mod load;
pub mod names;
pub mod oracle_walk;
pub mod referee;
pub mod report;
pub mod service;
pub mod trace;
