//! # braidbench — the BrAID bridge's benchmark
//!
//! Oracle-checked workloads driven through the public API (see
//! [`workloads`]), an untraced run for the end-to-end metrics and a
//! separate traced run for the per-layer breakdown ([`report`]).

pub mod oracle;
pub mod report;
pub mod spans;
pub mod stats;
pub mod streams;
pub mod workloads;
