use linview_dist::ClusterError;
use linview_expr::ExprError;
use linview_matrix::MatrixError;
use std::fmt;

use crate::checkpoint::CheckpointError;

/// Errors produced while executing programs and triggers.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A matrix kernel failed (shape mismatch, singular matrix, …).
    Matrix(MatrixError),
    /// Symbolic analysis failed (unknown variable, non-conforming dims, …).
    Expr(ExprError),
    /// A variable was read before being bound in the environment.
    Unbound(String),
    /// The Sherman–Morrison denominator `1 + vᵀ W u` vanished — the updated
    /// matrix is (numerically) singular and the inverse view cannot be
    /// maintained incrementally for this update.
    ShermanMorrisonSingular {
        /// Which rank-1 step failed.
        step: usize,
        /// The offending denominator value.
        denominator: f64,
    },
    /// An update's shape does not match the target matrix.
    UpdateShape {
        /// Target matrix shape.
        target: (usize, usize),
        /// Update factor shapes `(u, v)`.
        update: ((usize, usize), (usize, usize)),
    },
    /// The threaded backend's message-passing transport failed (a worker
    /// thread died, or a reply frame was malformed).
    Transport(String),
    /// A checkpoint could not be saved, or a snapshot failed its integrity
    /// checks on restore.
    Checkpoint(CheckpointError),
    /// A worker count could not form the square cluster grid.
    Cluster(ClusterError),
    /// A convergence-threshold iteration exhausted its iteration budget.
    DidNotConverge {
        /// Iterations performed.
        iterations: usize,
        /// Residual at the last iteration.
        residual: f64,
    },
    /// A constructor or update was handed an argument outside its domain
    /// (a model/k pair the model rejects, an out-of-range node, …).
    InvalidArgument(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Wrapper variants print a short label only; the wrapped error
            // is exposed via `source()` so chain-walking renderers (the
            // CLI's `render_error`) print it exactly once as a cause.
            RuntimeError::Matrix(_) => write!(f, "matrix kernel error"),
            RuntimeError::Expr(_) => write!(f, "expression error"),
            RuntimeError::Unbound(v) => write!(f, "unbound matrix variable '{v}'"),
            RuntimeError::ShermanMorrisonSingular { step, denominator } => write!(
                f,
                "Sherman-Morrison step {step} hit a singular update (denominator {denominator:e})"
            ),
            RuntimeError::UpdateShape { target, update } => write!(
                f,
                "update factors {:?} do not conform to target ({}x{})",
                update, target.0, target.1
            ),
            RuntimeError::Transport(what) => write!(f, "transport error: {what}"),
            RuntimeError::Checkpoint(_) => write!(f, "checkpoint error"),
            RuntimeError::Cluster(_) => write!(f, "cluster layout error"),
            RuntimeError::DidNotConverge {
                iterations,
                residual,
            } => write!(
                f,
                "iteration did not converge after {iterations} steps (residual {residual:.3e})"
            ),
            RuntimeError::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Matrix(e) => Some(e),
            RuntimeError::Expr(e) => Some(e),
            RuntimeError::Checkpoint(e) => Some(e),
            RuntimeError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for RuntimeError {
    fn from(e: CheckpointError) -> Self {
        RuntimeError::Checkpoint(e)
    }
}

impl From<ClusterError> for RuntimeError {
    fn from(e: ClusterError) -> Self {
        RuntimeError::Cluster(e)
    }
}

impl From<MatrixError> for RuntimeError {
    fn from(e: MatrixError) -> Self {
        RuntimeError::Matrix(e)
    }
}

impl From<ExprError> for RuntimeError {
    fn from(e: ExprError) -> Self {
        RuntimeError::Expr(e)
    }
}
