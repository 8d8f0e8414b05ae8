//! Host benchmark of the DySel runtime and launch service.
//!
//! Three workloads (`paper`, `select`, `service`) drive the public API
//! only; every output is checked against its host reference, and each
//! layer is timed from outside by wrapping the calls into it. See
//! `README.md` for the workloads, metrics and noise handling.

pub mod inputs;
pub mod passes;
pub mod probe;
pub mod report;
