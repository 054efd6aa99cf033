//! # linview-apps
//!
//! The paper's analytical workloads (§5, §7), each maintainable under the
//! evaluation strategies the paper compares:
//!
//! | Module | Paper section | Views maintained |
//! |---|---|---|
//! | [`models`] | §3.2 | the Linear / Exponential / Skip-s iterative models |
//! | [`powers`] | §5.2 | `Aᵏ` |
//! | [`sums`] | §5.2.3 | `I + A + … + Aᵏ⁻¹` |
//! | [`general`] | §5.3, App. A/B | `Tᵢ₊₁ = A Tᵢ + B` (REEVAL / INCR / HYBRID) |
//! | [`ols`] | §5.1 | `β* = (XᵀX)⁻¹XᵀY` with Sherman–Morrison |
//! | [`gd`] | §7 "General Form" | gradient-descent linear regression |
//! | [`pagerank`] | §5.2/§7 | PageRank power iteration over a link matrix |
//! | [`convergence`] | §3.1 (future work) | threshold-terminated iteration with adaptive horizon |
//! | [`expm`] | §5.2 (ODE motivation) | truncated-Taylor matrix exponential |
//!
//! Every INCR maintainer except [`convergence`]'s goes through the
//! *compiler*: the app generates its program with the `Expr` API, Algorithm 1
//! derives the triggers (for the general form, the Appendix A/B recurrences),
//! and `linview-runtime` fires them as an `IncrementalView`. Gradient descent
//! and PageRank reach that path through [`general::GeneralForm`]. Each REEVAL
//! baseline evaluates directly, without the compiler, and the test suites
//! check every INCR and HYBRID path against it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod expm;
pub mod gd;
pub mod general;
pub mod models;
pub mod ols;
pub mod pagerank;
pub mod powers;
pub mod reach;
pub mod sums;

pub use models::IterModel;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, linview_runtime::RuntimeError>;
