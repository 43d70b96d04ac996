//! # geopriv-handoff-bench
//!
//! The benchmark's own building blocks, kept apart from the workloads so
//! they can be tested: statistics ([`stats`]), in-memory spans ([`trace`])
//! and the printed result ([`report`]). The workloads live in the
//! `geopriv-handoff-bench` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod stats;
pub mod trace;
