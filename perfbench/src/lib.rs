//! # perfbench
//!
//! The repository's benchmark: `CutExecutor::run` timed end to end on
//! three named workloads, plus a traced pass that times the calls into
//! each layer from outside the library. See `README.md` in this directory
//! for the workloads, the metrics, and which layer should move which
//! end-to-end number.

#![forbid(unsafe_code)]

pub mod report;
pub mod staged;
pub mod timed;
pub mod workload;
