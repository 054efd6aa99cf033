//! Exact assertions over the process-global FLOP counter.
//!
//! `flops::read()` deltas are only exact while nothing else in the process
//! multiplies matrices, and `cargo test` runs a binary's tests on parallel
//! threads. So every exact-count check of this crate lives in the ONE test
//! below: its own process, no siblings. Add new exact-count checks to that
//! test, not as new `#[test]` functions.

use linview_matrix::{flops, fold_low_rank, FoldPath, GemmKernel, Matrix};

#[test]
fn kernels_report_exact_flop_counts() {
    // Every kernel accounts exactly 2·m·k·n per product.
    let a = Matrix::random_uniform(13, 21, 9);
    let b = Matrix::random_uniform(21, 7, 10);
    for kernel in GemmKernel::ALL {
        let before = flops::read();
        a.matmul_with(&b, kernel).unwrap();
        assert_eq!(flops::read() - before, 2 * 13 * 21 * 7, "{kernel}");
    }

    // A sparse fold meters nnz-scaled work: 2·nnz·m multiply-adds plus one
    // accumulation per touched entry.
    let n = 200;
    let mut u = Matrix::zeros(n, 4);
    for (c, r) in [7, 50, 123, 199].into_iter().enumerate() {
        u.set(r, c, 0.25 + c as f64);
    }
    let v = Matrix::random_uniform(n, 4, 22);
    let mut t = Matrix::zeros(n, n);
    let before = flops::read();
    let path = fold_low_rank(&mut t, &u, &v, true).unwrap();
    let spent = flops::read() - before;
    let FoldPath::Sparse { nnz, rows_touched } = path else {
        panic!("expected the sparse path");
    };
    assert_eq!(spent, (2 * nnz * n + rows_touched * n) as u64);
    // Far below the dense fold's 2·n·k·m + n·m.
    assert!(spent < (2 * n * 4 * n + n * n) as u64 / 10);
}
