//! Exact assertions over the process-global FLOP counter.
//!
//! `flops::read()` deltas are only exact while nothing else in the process
//! multiplies matrices, and `cargo test` runs a binary's tests on parallel
//! threads. So every exact-count check of this crate lives in the ONE test
//! below: its own process, no siblings. Add new exact-count checks to that
//! test, not as new `#[test]` functions.

use linview_matrix::{flops, Matrix};
use linview_sparse::{CooBuilder, CsrMatrix};

#[test]
fn spmm_charges_only_nonzero_stored_entries() {
    // [1 0 2]
    // [0 0 0]
    // [3 4 0]
    let mut b = CooBuilder::new(3, 3);
    for (r, c, v) in [(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)] {
        b.push(r, c, v).unwrap();
    }
    let m: CsrMatrix = b.build();
    let x = Matrix::random_uniform(3, 5, 8);

    // 2 flops per stored nonzero and output column.
    let before = flops::read();
    m.spmm(&x).unwrap();
    assert_eq!(flops::read() - before, 2 * 4 * 5);

    // Scaling by zero keeps the structure: four explicitly stored zeros,
    // which contribute nothing and are charged nothing.
    let zeros = m.scale(0.0);
    assert_eq!(zeros.nnz(), 4);
    let before = flops::read();
    let got = zeros.spmm(&x).unwrap();
    assert_eq!(flops::read() - before, 0);
    assert_eq!(got, Matrix::zeros(3, 5));
}
