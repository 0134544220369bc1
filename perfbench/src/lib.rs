//! Daemon-level serving benchmark for SpecInfer-rs.
//!
//! `perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! serves a seeded workload through the real `ServerDaemon` with the
//! trained model suite, checks every output against a serial replay, and
//! prints the end-to-end metrics (`--trace 0`) or a per-layer breakdown
//! from a traced direct loop and a replay probe (`--trace 1`). The last
//! line of standard output is the result JSON; the line before it holds
//! the run's context. `perfbench prepare` trains the models first.

pub mod check;
pub mod drive;
pub mod models;
pub mod probe;
pub mod stats;
pub mod traced;
pub mod workload;
