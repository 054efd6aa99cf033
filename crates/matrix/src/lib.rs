//! # linview-matrix
//!
//! Dense matrix substrate for the LINVIEW incremental view maintenance
//! framework (Nikolic, ElSeidy, Koch — SIGMOD 2014).
//!
//! The paper's evaluation runs on Octave/ATLAS and Spark/Jblas; this crate is
//! the from-scratch replacement substrate. It provides exactly the primitives
//! the paper's computational model needs:
//!
//! * `O(n^γ)` dense matrix multiplication — one packed, register-blocked
//!   GEMM microkernel on a persistent worker pool, with the naive oracle
//!   and an opt-in fused rendering beside it ([`GemmKernel`]) — the cost
//!   that re-evaluation pays per iteration;
//! * `O(n^γ)` LU-based inversion — the cost OLS re-evaluation pays;
//! * `O(kn^2)` skinny products (matvec, outer products, `(n×k)·(k×n)` block
//!   products, rank-k folds) — the cost incremental maintenance pays;
//! * block stacking (`hstack`/`vstack`) used to build the factored deltas
//!   `Δ = U Vᵀ` of §4.2–4.3;
//! * SVD recompression of those factors, and LU / Cholesky factorizations;
//! * global FLOP accounting so benchmarks can verify the asymptotic claims of
//!   Table 2 independently of wall-clock noise.
//!
//! All matrices are row-major `f64`. Fallible operations return
//! [`MatrixError`]; the arithmetic operator impls panic on dimension
//! mismatches (they are thin wrappers over the `try_*` APIs).
//!
//! ```
//! use linview_matrix::Matrix;
//! let a = Matrix::identity(3);
//! let b = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0]; 3]).unwrap();
//! let c = (&a * &b).unwrap();
//! assert_eq!(c.get(1, 2), 3.0);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod block;
mod cholesky;
mod compress;
mod decomp;
mod dense;
mod error;
pub mod flops;
pub mod gemm;
mod matmul;
mod norms;
mod ops;
mod pack;
mod pool;
mod random;
mod rankk;
mod skinny;
mod sparsity;
mod svd;

pub use cholesky::{random_spd, Cholesky};
pub use compress::{keeps_full_rank, recompress, Recompressed};
pub use decomp::Lu;
pub use dense::Matrix;
pub use error::MatrixError;
pub use gemm::{
    default_kernel, env_kernel_error, env_threads_error, exact_rendering, force_general_nest,
    gemm_threads, set_default_kernel, set_gemm_threads, set_rendering_cap, GemmKernel, Rendering,
};
pub use norms::ApproxEq;
pub use rankk::{RANK_K_MAX_FOLD_K, RANK_K_MAX_K};
pub use sparsity::{factor_nnz, fold_low_rank, FoldPath, SPARSE_FOLD_CROSSOVER};
pub use svd::{numerical_rank, Svd};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MatrixError>;
