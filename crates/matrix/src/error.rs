use std::fmt;

/// Errors produced by matrix construction and arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// Two operands had incompatible shapes for the attempted operation.
    DimMismatch {
        /// Human-readable operation name (e.g. `"matmul"`).
        op: &'static str,
        /// Shape of the left operand.
        lhs: (usize, usize),
        /// Shape of the right operand.
        rhs: (usize, usize),
    },
    /// A square matrix was required but a rectangular one was supplied.
    NotSquare {
        /// Shape of the offending matrix.
        shape: (usize, usize),
    },
    /// LU factorization hit a zero (or numerically negligible) pivot.
    Singular {
        /// Index of the pivot column where elimination failed.
        pivot: usize,
    },
    /// Construction from rows/values with inconsistent lengths.
    RaggedRows {
        /// Index of the first row whose length disagrees.
        row: usize,
        /// Expected row length.
        expected: usize,
        /// Observed row length.
        got: usize,
    },
    /// An empty matrix (zero rows or columns) where data was required.
    Empty,
    /// Index out of bounds.
    OutOfBounds {
        /// Requested index.
        index: (usize, usize),
        /// Matrix shape.
        shape: (usize, usize),
    },
    /// An iterative decomposition exhausted its sweep budget.
    DidNotConverge {
        /// Number of sweeps attempted.
        sweeps: usize,
    },
    /// A kernel name (from `LINVIEW_GEMM` or `--gemm`) matched no
    /// [`GemmKernel`](crate::GemmKernel).
    UnknownKernel {
        /// The unrecognized name, as supplied (trimmed).
        name: String,
    },
    /// A thread budget (from `LINVIEW_THREADS` or `--threads`) was zero or
    /// not a number.
    InvalidThreadBudget {
        /// The invalid value, as supplied (trimmed).
        value: String,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::DimMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: ({}x{}) vs ({}x{})",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            MatrixError::NotSquare { shape } => {
                write!(f, "square matrix required, got ({}x{})", shape.0, shape.1)
            }
            MatrixError::Singular { pivot } => {
                write!(f, "matrix is singular (zero pivot at column {pivot})")
            }
            MatrixError::RaggedRows { row, expected, got } => write!(
                f,
                "ragged rows: row {row} has length {got}, expected {expected}"
            ),
            MatrixError::Empty => write!(f, "empty matrix not allowed here"),
            MatrixError::OutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for ({}x{})",
                index.0, index.1, shape.0, shape.1
            ),
            MatrixError::DidNotConverge { sweeps } => {
                write!(f, "iteration did not converge after {sweeps} sweeps")
            }
            MatrixError::UnknownKernel { name } => {
                let valid = crate::GemmKernel::ALL.map(crate::GemmKernel::label);
                write!(
                    f,
                    "unknown GEMM kernel {name:?} (valid: {})",
                    valid.join(", ")
                )
            }
            MatrixError::InvalidThreadBudget { value } => {
                write!(f, "invalid thread budget {value:?} (need an integer >= 1)")
            }
        }
    }
}

impl std::error::Error for MatrixError {}
