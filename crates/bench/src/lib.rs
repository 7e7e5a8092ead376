//! # rp-bench — regenerators of the paper's deterministic artifacts
//!
//! One binary under `src/bin/` per table/figure whose quantity repeats
//! exactly (memory-access counts, node counts, share ratios in simulated
//! time; see EXPERIMENTS.md); each exits non-zero when its artifact is
//! wrong. Everything timed lives in the benchmark of record
//! (`benchmark/`, `BENCHMARK.json`). This library hosts the shared
//! reporting helpers.

#![forbid(unsafe_code)]

pub mod report;
