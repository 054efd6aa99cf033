//! # linview-bench
//!
//! Shared experiment drivers for regenerating every table and figure of the
//! LINVIEW paper's evaluation (§7). Each `figNx`/`tableN` function in
//! [`experiments`] builds the paper's workload at laptop scale, measures the
//! strategies being compared, and returns a printable [`report::Table`]
//! whose rows mirror the paper's plot series.
//!
//! `cargo run -p linview-bench --release --bin harness -- <experiment>`
//! prints the tables. Regressions are not judged here: `bash
//! benchmark/run.sh` and its `compare` gate own that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

/// Scaling configuration shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Base square dimension for single-size experiments.
    pub n: usize,
    /// Iteration count for the iterative workloads.
    pub k: usize,
    /// Updates measured per data point (averaged).
    pub updates: usize,
    /// Calls behind each median point (`gemm`'s fold rows, `ablations`),
    /// after one untimed warm-up call.
    pub samples: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 192,
            k: 16,
            updates: 5,
            samples: 21,
        }
    }
}

impl Config {
    /// A fast configuration for smoke tests.
    pub fn quick() -> Self {
        Config {
            n: 96,
            k: 8,
            updates: 2,
            samples: 1,
        }
    }
}
