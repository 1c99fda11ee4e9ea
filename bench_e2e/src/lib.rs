//! End-to-end closed-loop benchmark for the LION workspace.
//!
//! See `README.md` in this directory for the workloads, metrics and the
//! A/B protocol.

#![forbid(unsafe_code)]

pub mod inputs;
mod kernels;
pub mod ledger;
pub mod probe;
pub mod run;
mod stats;
