//! # linview
//!
//! A from-scratch Rust reproduction of **LINVIEW** — *Incremental View
//! Maintenance for Complex Analytical Queries* (Nikolic, ElSeidy, Koch;
//! SIGMOD 2014).
//!
//! LINVIEW maintains the results of (iterative) linear-algebra programs
//! under point updates to their input matrices. Instead of re-running
//! `O(nᵞ)` matrix products after every change, it derives *factored delta
//! expressions* `Δ = U Vᵀ` (products of low-rank blocks), propagates them
//! statement by statement, and applies them as `O(kn²)` low-rank view
//! updates — containing the "avalanche effect" by which a single-entry
//! change would otherwise pollute every downstream view.
//!
//! ## Crate map
//!
//! * [`matrix`] — dense kernels (packed parallel GEMM with rank-k and
//!   skinny fast paths, LU inverse, block stacking, FLOP accounting).
//! * [`expr`] — symbolic expressions, the delta rules of §4.1, factored
//!   deltas with common-factor extraction (§4.2–4.3), cost model, chain DP.
//! * [`compiler`] — Algorithm 1: programs → update triggers; optimizer;
//!   Octave code generator; APL-style text frontend.
//! * [`runtime`] — evaluation, trigger execution (incl. Sherman–Morrison),
//!   update streams, REEVAL/INCR view maintainers.
//! * [`dist`] — grid partitioning, the frame transport to thread or
//!   socket workers, and communication metering, standing in for the
//!   paper's Spark backend.
//! * [`sparse`] — CSR kernel and evolving graphs whose edge mutations are
//!   exposed as the factored rank-1 transition-matrix updates the paper's
//!   workload model assumes; exact sparse PageRank baseline.
//! * [`apps`] — the paper's workloads: matrix powers, sums of powers, the
//!   general form `Tᵢ₊₁ = A·Tᵢ + B` (REEVAL/INCR/HYBRID), OLS, gradient
//!   descent, PageRank.
//!
//! ## Quickstart
//!
//! ```
//! use linview::prelude::*;
//!
//! // The A⁴ program of the paper's Example 1.1.
//! let program = parse_program("B := A * A; C := B * B;").unwrap();
//! let mut cat = Catalog::new();
//! cat.declare("A", 64, 64);
//!
//! let a = Matrix::random_spectral(64, 7, 0.9);
//! let mut view = IncrementalView::build(&program, &[("A", a)], &cat).unwrap();
//!
//! // Stream a rank-1 row update through the compiled trigger.
//! let mut updates = UpdateStream::new(64, 64, 0.01, 42);
//! view.apply("A", &updates.next_rank_one()).unwrap();
//! assert_eq!(view.get("C").unwrap().shape(), (64, 64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use linview_apps as apps;
pub use linview_compiler as compiler;
pub use linview_dist as dist;
pub use linview_expr as expr;
pub use linview_matrix as matrix;
pub use linview_runtime as runtime;
pub use linview_sparse as sparse;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use linview_apps::convergence::ConvergentIteration;
    pub use linview_apps::expm::{IncrExpm, ReevalExpm};
    pub use linview_apps::gd::GradientDescentLR;
    pub use linview_apps::general::{GeneralForm, Strategy};
    pub use linview_apps::ols::{IncrOls, ReevalOls};
    pub use linview_apps::pagerank::PageRank;
    pub use linview_apps::powers::{IncrPowers, ReevalPowers};
    pub use linview_apps::reach::Reachability;
    pub use linview_apps::sums::{IncrSums, ReevalSums};
    pub use linview_apps::IterModel;
    pub use linview_compiler::parse::parse_program;
    pub use linview_compiler::{compile, CompileOptions, Program, StmtDag, TriggerProgram};
    pub use linview_dist::{dist_matmul, Cluster, DistMatrix};
    pub use linview_expr::{Catalog, Expr};
    pub use linview_matrix::{ApproxEq, Cholesky, Matrix};
    pub use linview_runtime::{
        sherman_morrison, woodbury, BatchUpdate, Env, Evaluator, ExecOptions, IncrementalView,
        RankOneUpdate, ReevalView, UpdateStream,
    };
    pub use linview_sparse::{pagerank, pagerank_warm, CsrMatrix, Graph, PageRankOptions};
}
