//! The REEVAL baseline kernel over partitioned matrices, with metered
//! shuffle traffic.

use crate::{Cluster, DistMatrix, Result};
use linview_matrix::{Matrix, MatrixError};

/// Block-SUMMA distributed product `C = A · B`.
///
/// Worker `(i, j)` computes `C_ij = Σ_k A_ik · B_kj`. It owns `A_ij` and
/// `B_ij`, so every `A_ik` with `k ≠ j` and every `B_kj` with `k ≠ i`
/// must be shuffled to it from a peer — `2(g−1)` block transfers per
/// result block. This is the `O(n²)`-bytes-per-product cost distributed
/// re-evaluation pays on every refresh (§6), and it is recorded on
/// `cluster.comm()` as shuffle traffic.
///
/// Requires conforming shapes and identical inner grid splits.
pub fn dist_matmul(a: &DistMatrix, b: &DistMatrix, cluster: &Cluster) -> Result<DistMatrix> {
    if a.cols() != b.rows() || a.grid_cols() != b.grid_rows() {
        return Err(MatrixError::DimMismatch {
            op: "dist_matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    check_geometry("dist_matmul", a, cluster)?;
    check_geometry("dist_matmul", b, cluster)?;
    let inner = a.grid_cols();
    let (bh, _) = a.block_shape();
    let (_, bw) = b.block_shape();
    let mut blocks = Vec::with_capacity(a.grid_rows() * b.grid_cols());
    for i in 0..a.grid_rows() {
        for j in 0..b.grid_cols() {
            let mut acc = Matrix::zeros(bh, bw);
            for k in 0..inner {
                if k != j {
                    cluster.comm().record_shuffle(a.block_bytes());
                }
                if k != i {
                    cluster.comm().record_shuffle(b.block_bytes());
                }
                let prod = a.block(i, k).try_matmul(b.block(k, j))?;
                acc.add_assign_from(&prod)?;
            }
            blocks.push(acc);
        }
    }
    DistMatrix::from_parts(a.rows(), b.cols(), a.grid_rows(), b.grid_cols(), blocks)
}

/// The metering model assumes one worker per block, so a product fed a
/// matrix whose grid disagrees with the cluster's would charge traffic for
/// a different cluster than the one it reports on. Reject the mix-up.
fn check_geometry(op: &'static str, m: &DistMatrix, cluster: &Cluster) -> Result<()> {
    if m.grid_rows() != cluster.grid_rows() || m.grid_cols() != cluster.grid_cols() {
        return Err(MatrixError::DimMismatch {
            op,
            lhs: (m.grid_rows(), m.grid_cols()),
            rhs: (cluster.grid_rows(), cluster.grid_cols()),
        });
    }
    Ok(())
}

impl DistMatrix {
    /// Assembles a `DistMatrix` from already-partitioned blocks (row-major).
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        grid_rows: usize,
        grid_cols: usize,
        blocks: Vec<Matrix>,
    ) -> Result<DistMatrix> {
        let dense = {
            // Validate geometry by round-tripping through the dense form;
            // blocks are small and this is a simulation, not a hot path.
            let mut out = Matrix::zeros(rows, cols);
            let bh = rows / grid_rows;
            let bw = cols / grid_cols;
            for (idx, b) in blocks.iter().enumerate() {
                let (br, bc) = (idx / grid_cols, idx % grid_cols);
                if b.shape() != (bh, bw) {
                    return Err(MatrixError::DimMismatch {
                        op: "dist blocks",
                        lhs: (bh, bw),
                        rhs: b.shape(),
                    });
                }
                out.set_submatrix(br * bh, bc * bw, b)?;
            }
            out
        };
        DistMatrix::from_dense_grid(&dense, grid_rows, grid_cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linview_matrix::ApproxEq;

    #[test]
    fn dist_matmul_matches_dense_kernel() {
        for grid in [1usize, 2, 3] {
            let cluster = Cluster::new(grid * grid);
            let a = Matrix::random_spectral(12, 3, 0.9);
            let b = Matrix::random_spectral(12, 4, 0.9);
            let da = DistMatrix::from_dense(&a, grid).unwrap();
            let db = DistMatrix::from_dense(&b, grid).unwrap();
            let dc = dist_matmul(&da, &db, &cluster).unwrap();
            let dense = a.try_matmul(&b).unwrap();
            assert!(
                dc.to_dense().approx_eq(&dense, 1e-9),
                "grid {grid} diverged from the dense kernel"
            );
        }
    }

    #[test]
    fn dist_matmul_rectangular_shapes() {
        // (12×8)·(8×20) over a 2×2 inner-compatible grid.
        let cluster = Cluster::new(4);
        let a = Matrix::random_uniform(12, 8, 5);
        let b = Matrix::random_uniform(8, 20, 6);
        let da = DistMatrix::from_dense_grid(&a, 2, 2).unwrap();
        let db = DistMatrix::from_dense_grid(&b, 2, 2).unwrap();
        let dc = dist_matmul(&da, &db, &cluster).unwrap();
        assert_eq!(dc.shape(), (12, 20));
        assert!(dc.to_dense().approx_eq(&a.try_matmul(&b).unwrap(), 1e-9));
    }

    #[test]
    fn matmul_shuffle_accounting_matches_model() {
        // Per result block: (g-1) A-blocks + (g-1) B-blocks of n²/g² doubles.
        let n = 24;
        for grid in [1usize, 2, 3] {
            let cluster = Cluster::new(grid * grid);
            let a = Matrix::random_uniform(n, n, 21);
            let da = DistMatrix::from_dense(&a, grid).unwrap();
            dist_matmul(&da, &da, &cluster).unwrap();
            let snap = cluster.comm().snapshot();
            let g = grid as u64;
            let block_bytes = ((n / grid) * (n / grid) * 8) as u64;
            assert_eq!(snap.shuffle_msgs, g * g * 2 * (g - 1));
            assert_eq!(snap.shuffle_bytes, snap.shuffle_msgs * block_bytes);
            assert_eq!(snap.broadcast_bytes, 0);
            assert_eq!(snap.broadcast_msgs, 0);
        }
    }

    #[test]
    fn reset_returns_previous_snapshot_and_zeroes() {
        let cluster = Cluster::new(4);
        let a = Matrix::random_uniform(8, 8, 41);
        let da = DistMatrix::from_dense(&a, 2).unwrap();
        dist_matmul(&da, &da, &cluster).unwrap();
        let before = cluster.comm().reset();
        assert!(before.shuffle_bytes > 0);
        assert_eq!(cluster.comm().snapshot(), crate::CommSnapshot::default());
    }

    #[test]
    fn indivisible_partition_is_rejected() {
        let m = Matrix::random_uniform(10, 10, 51);
        assert!(DistMatrix::from_dense(&m, 3).is_err());
        assert!(DistMatrix::from_dense(&m, 0).is_err());
        assert!(DistMatrix::from_dense_grid(&m, 2, 3).is_err());
    }

    #[test]
    fn mismatched_shapes_are_rejected() {
        let cluster = Cluster::new(4);
        let a = DistMatrix::from_dense(&Matrix::random_uniform(8, 8, 61), 2).unwrap();
        let b = DistMatrix::from_dense(&Matrix::random_uniform(10, 10, 62), 2).unwrap();
        assert!(dist_matmul(&a, &b, &cluster).is_err());
    }

    #[test]
    fn non_square_worker_counts_are_fallible_not_fatal() {
        assert!(Cluster::try_new(8).is_err());
        assert!(Cluster::try_new(0).is_err());
        assert_eq!(Cluster::try_new(9).unwrap().grid(), 3);
    }

    #[test]
    fn cluster_grid_mismatch_is_rejected() {
        // A 3×3-partitioned matrix fed to a 2×2 cluster would meter
        // traffic for the wrong cluster; the kernel must refuse.
        let cluster = Cluster::new(4);
        let m = Matrix::random_uniform(12, 12, 81);
        let dm = DistMatrix::from_dense(&m, 3).unwrap();
        assert!(dist_matmul(&dm, &dm, &cluster).is_err());
        assert_eq!(cluster.comm().snapshot(), crate::CommSnapshot::default());
    }

    #[test]
    fn to_dense_roundtrips() {
        let m = Matrix::random_uniform(12, 18, 71);
        let dm = DistMatrix::from_dense_grid(&m, 3, 2).unwrap();
        assert_eq!(dm.block_shape(), (4, 9));
        assert!(dm.to_dense().approx_eq(&m, 0.0));
    }
}
