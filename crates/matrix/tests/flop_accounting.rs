//! Exact assertions over the process-global FLOP counter.
//!
//! `flops::read()` deltas are only exact while nothing else in the process
//! multiplies matrices, and `cargo test` runs a binary's tests on parallel
//! threads. So every exact-count check of this crate lives in the ONE test
//! below: its own process, no siblings. Add new exact-count checks to that
//! test, not as new `#[test]` functions.

use linview_matrix::{flops, fold_low_rank, set_default_kernel, FoldPath, GemmKernel, Matrix};

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

    // A streaming product whose block passes the same density test meters
    // the rows it reads: 2·(output rows)·(nonzero rows)·k. `u` has two
    // nonzero rows (7 and 90) among 200.
    set_default_kernel(Some(GemmKernel::Packed));
    let charge = |f: &dyn Fn()| {
        let before = flops::read();
        f();
        flops::read() - before
    };
    let mut u = Matrix::zeros(n, 3);
    u.set(7, 0, 1.0);
    u.set(90, 1, -2.0);
    u.set(90, 2, 0.5);
    let p = Matrix::random_uniform(300, n, 31);
    let q = Matrix::random_uniform(n, 120, 32);
    let wide = Matrix::random_uniform(n, 40, 33);
    assert_eq!(charge(&|| drop(p.try_matmul(&u))), 2 * 300 * 2 * 3, "P·U");
    assert_eq!(
        charge(&|| drop(q.try_matmul_tn(&u))),
        2 * 120 * 2 * 3,
        "Pᵀ·V"
    );
    // A short output's transposed problem skips the same rows.
    assert_eq!(
        charge(&|| drop(u.try_matmul_tn(&wide))),
        2 * 40 * 2 * 3,
        "short"
    );
    // 200×2 holds 400 entries: 20 nonzero rows are the crossover and skip,
    // 21 run dense.
    for (count, inner) in [(20, 20), (21, n)] {
        let mut s = Matrix::zeros(n, 2);
        for i in 0..count {
            s.set(i * 9, i % 2, 1.0 + i as f64);
        }
        assert_eq!(
            charge(&|| drop(p.try_matmul(&s))),
            (2 * 300 * inner * 2) as u64,
            "{count} nonzeros"
        );
    }
    set_default_kernel(None);
}
