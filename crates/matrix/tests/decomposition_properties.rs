//! Property-based tests for the decomposition kernels (SVD, recompression,
//! Cholesky, LU) — the numerical invariants every LINVIEW maintenance path
//! leans on.

use linview_matrix::{numerical_rank, recompress, ApproxEq, Cholesky, Matrix, Svd};
use proptest::prelude::*;

/// Strategy: shape plus seed for a random dense matrix.
fn shaped() -> impl Strategy<Value = (usize, usize, u64)> {
    (2usize..10, 2usize..10, 0u64..10_000)
}

proptest! {
    #[test]
    fn svd_reconstructs((m, n, seed) in shaped()) {
        let a = Matrix::random_uniform(m, n, seed);
        let svd = Svd::factorize(&a).unwrap();
        prop_assert!(svd.reconstruct().approx_eq(&a, 1e-8));
    }

    #[test]
    fn svd_values_sorted_nonnegative((m, n, seed) in shaped()) {
        let a = Matrix::random_uniform(m, n, seed);
        let svd = Svd::factorize(&a).unwrap();
        let s = svd.singular_values();
        prop_assert!(s.windows(2).all(|w| w[0] >= w[1]));
        prop_assert!(s.iter().all(|&x| x >= 0.0));
        prop_assert_eq!(s.len(), m.min(n));
    }

    #[test]
    fn svd_spectral_norm_bounds_frobenius((m, n, seed) in shaped()) {
        // σ_max <= ‖A‖_F <= √rank · σ_max.
        let a = Matrix::random_uniform(m, n, seed);
        let svd = Svd::factorize(&a).unwrap();
        let fro = a.frobenius_norm();
        let smax = svd.spectral_norm();
        prop_assert!(smax <= fro + 1e-9);
        prop_assert!(fro <= smax * (m.min(n) as f64).sqrt() + 1e-9);
    }

    #[test]
    fn svd_transpose_has_same_singular_values((m, n, seed) in shaped()) {
        let a = Matrix::random_uniform(m, n, seed);
        let s1 = Svd::factorize(&a).unwrap();
        let s2 = Svd::factorize(&a.transpose()).unwrap();
        for (x, y) in s1.singular_values().iter().zip(s2.singular_values()) {
            prop_assert!((x - y).abs() < 1e-8 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn rank_of_outer_product_sum_is_bounded(
        (n, seed) in (4usize..12, 0u64..10_000),
        k in 1usize..4
    ) {
        let mut a = Matrix::zeros(n, n);
        for i in 0..k {
            let u = Matrix::random_col(n, seed + 2 * i as u64);
            let v = Matrix::random_col(n, seed + 2 * i as u64 + 1);
            a.add_outer(&u, &v).unwrap();
        }
        prop_assert!(numerical_rank(&a, 1e-9).unwrap() <= k);
    }

    #[test]
    fn recompress_preserves_product((m, n, seed) in shaped(), k in 1usize..6) {
        let u = Matrix::random_uniform(m, k, seed);
        let v = Matrix::random_uniform(n, k, seed + 1);
        let rc = recompress(&u, &v, 1e-11).unwrap();
        prop_assert!(rc.rank_after <= rc.rank_before);
        let before = u.try_matmul(&v.transpose()).unwrap();
        let after = rc.u.try_matmul(&rc.v.transpose()).unwrap();
        prop_assert!(after.approx_eq(&before, 1e-7));
    }

    #[test]
    fn recompress_collapses_duplicate_columns((m, n, seed) in shaped()) {
        let ucol = Matrix::random_col(m, seed);
        let vcol = Matrix::random_col(n, seed + 1);
        let u = Matrix::hstack(&[&ucol, &ucol]).unwrap();
        let v = Matrix::hstack(&[&vcol, &vcol]).unwrap();
        let rc = recompress(&u, &v, 1e-9).unwrap();
        prop_assert_eq!(rc.rank_after, 1);
    }

    #[test]
    fn cholesky_update_then_downdate_roundtrips((n, seed) in (3usize..10, 0u64..10_000)) {
        let a = linview_matrix::random_spd(n, seed);
        let mut ch = Cholesky::factorize(&a).unwrap();
        let before = ch.factor().clone();
        let v = Matrix::random_col(n, seed + 1);
        ch.update(&v).unwrap();
        ch.downdate(&v).unwrap();
        prop_assert!(ch.factor().approx_eq(&before, 1e-7));
    }

    #[test]
    fn lu_solve_satisfies_system((n, seed) in (2usize..10, 0u64..10_000)) {
        let a = Matrix::random_diag_dominant(n, seed);
        let b = Matrix::random_uniform(n, 2, seed + 1);
        let x = a.solve(&b).unwrap();
        let residual = a.try_matmul(&x).unwrap().try_sub(&b).unwrap();
        prop_assert!(residual.max_abs() < 1e-8);
    }

    #[test]
    fn inverse_is_two_sided((n, seed) in (2usize..9, 0u64..10_000)) {
        let a = Matrix::random_diag_dominant(n, seed);
        let inv = a.inverse().unwrap();
        let eye = Matrix::identity(n);
        prop_assert!(a.try_matmul(&inv).unwrap().approx_eq(&eye, 1e-8));
        prop_assert!(inv.try_matmul(&a).unwrap().approx_eq(&eye, 1e-8));
    }
}
