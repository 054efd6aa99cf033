//! Block-partitioned dense matrices.

use crate::Result;
use linview_matrix::{Matrix, MatrixError};

/// A dense matrix split into a `grid_rows × grid_cols` grid of
/// equally-sized blocks, each conceptually owned by one worker.
///
/// Both matrix dimensions must divide evenly by the corresponding grid
/// dimension; [`DistMatrix::from_dense`] rejects anything else, which is
/// how indivisible layouts surface as errors instead of silent padding.
#[derive(Debug, Clone)]
pub struct DistMatrix {
    rows: usize,
    cols: usize,
    grid_rows: usize,
    grid_cols: usize,
    /// Row-major `grid_rows × grid_cols` blocks.
    blocks: Vec<Matrix>,
}

impl DistMatrix {
    /// Partitions `m` over a square `grid × grid` worker grid.
    pub fn from_dense(m: &Matrix, grid: usize) -> Result<DistMatrix> {
        DistMatrix::from_dense_grid(m, grid, grid)
    }

    /// Whether a `shape` matrix partitions evenly over a `grid_rows ×
    /// grid_cols` grid — the check [`DistMatrix::from_dense_grid`] makes,
    /// without partitioning anything.
    pub fn check_grid(shape: (usize, usize), grid_rows: usize, grid_cols: usize) -> Result<()> {
        if grid_rows == 0
            || grid_cols == 0
            || !shape.0.is_multiple_of(grid_rows)
            || !shape.1.is_multiple_of(grid_cols)
        {
            return Err(MatrixError::DimMismatch {
                op: "dist partition",
                lhs: shape,
                rhs: (grid_rows, grid_cols),
            });
        }
        Ok(())
    }

    /// Partitions `m` over an explicit `grid_rows × grid_cols` grid.
    pub fn from_dense_grid(m: &Matrix, grid_rows: usize, grid_cols: usize) -> Result<DistMatrix> {
        DistMatrix::check_grid(m.shape(), grid_rows, grid_cols)?;
        let bh = m.rows() / grid_rows;
        let bw = m.cols() / grid_cols;
        let mut blocks = Vec::with_capacity(grid_rows * grid_cols);
        for br in 0..grid_rows {
            for bc in 0..grid_cols {
                blocks.push(m.submatrix(br * bh, bc * bw, bh, bw)?);
            }
        }
        Ok(DistMatrix {
            rows: m.rows(),
            cols: m.cols(),
            grid_rows,
            grid_cols,
            blocks,
        })
    }

    /// Gathers the partitions back into one dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let (bh, bw) = self.block_shape();
        for br in 0..self.grid_rows {
            for bc in 0..self.grid_cols {
                out.set_submatrix(br * bh, bc * bw, self.block(br, bc))
                    .expect("block geometry is consistent by construction");
            }
        }
        out
    }

    /// Total rows of the full matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total columns of the full matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape of the full matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of block rows in the grid.
    pub fn grid_rows(&self) -> usize {
        self.grid_rows
    }

    /// Number of block columns in the grid.
    pub fn grid_cols(&self) -> usize {
        self.grid_cols
    }

    /// Shape of every block: `(rows/grid_rows, cols/grid_cols)`.
    pub fn block_shape(&self) -> (usize, usize) {
        (self.rows / self.grid_rows, self.cols / self.grid_cols)
    }

    /// The block at grid position `(br, bc)`.
    pub fn block(&self, br: usize, bc: usize) -> &Matrix {
        &self.blocks[br * self.grid_cols + bc]
    }

    /// Serialized size of one block in bytes (the unit of shuffle traffic).
    pub fn block_bytes(&self) -> u64 {
        let (bh, bw) = self.block_shape();
        (bh * bw * std::mem::size_of::<f64>()) as u64
    }
}
