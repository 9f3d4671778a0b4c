//! `cpi2perf`: the repository's benchmark. It times the CPI² stack end
//! to end on three workloads (`fleet_day`, `fleet_dense`,
//! `serve_mixed`) and, in a separate traced run, layer by layer through
//! the stack's public functions. See `README.md` in this directory.

#![warn(missing_docs)]

pub mod driver;
pub mod env;
pub mod load;
pub mod report;
pub mod run;
pub mod scenario;
pub mod serve;
