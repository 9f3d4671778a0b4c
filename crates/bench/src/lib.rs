//! Experiment harness for the CPI² reproduction.
//!
//! One binary per table/figure of the paper lives in `src/bin/`; this
//! library provides the shared pieces:
//!
//! * [`plot`] — ASCII tables, scatter plots and CDFs for terminal output.
//! * [`trials`] — the §7 large-scale trial protocol with ground truth
//!   (used by the Fig. 14–16 experiments).
//!
//! Criterion micro-benchmarks (correlation cost, detection throughput,
//! aggregation, simulator tick rate, query scans) live in `benches/`.

#![warn(missing_docs)]

pub mod accuracy;
pub mod args;
pub mod gate;
pub mod metrics;
pub mod plot;
pub mod probe;
pub mod sampling;
pub mod scenario;
pub mod serve_load;
pub mod svg;
pub mod trials;
