//! The repository benchmark: seeded workloads driven through the public
//! runtime API by one generator thread, with checked outputs,
//! end-to-end metrics, and per-layer replay timings. See `README.md`.

pub mod follow;
pub mod metrics;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod workload;
