//! Panel packing for the register-blocked GEMM kernel.
//!
//! The packed kernel (BLIS/GotoBLAS layout) never walks the operands in
//! their row-major form inside the hot loop. Instead, `A` is repacked into
//! `MR`-tall *column-major micro-panels* (all `MR` values of one `k` step
//! adjacent) and `B` into `NR`-wide *row-major micro-panels* (all `NR`
//! values of one `k` step adjacent), so the microkernel streams both with
//! unit stride and zero index arithmetic. Ragged edges are zero-padded to
//! the full panel height/width — padding multiplies against implicit zero
//! rows/columns, which keeps the microkernel free of edge branches without
//! changing any output value.

use crate::Matrix;

/// Packs `a[r0+i][p0+p]` for `i < mc`, `p < kc` into `MR`-tall panels.
///
/// Layout: panel `i/MR` occupies `kc·mr` consecutive values; within a
/// panel, step `p` stores the `mr` column values `a[r0 + panel·mr + 0..mr][p0+p]`
/// contiguously (zero-padded when the last panel is short of `mr` rows).
pub(crate) fn pack_a(
    a: &Matrix,
    r0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    mr: usize,
    buf: &mut Vec<f64>,
) {
    let panels = mc.div_ceil(mr);
    buf.clear();
    buf.resize(panels * kc * mr, 0.0);
    for panel in 0..panels {
        let i0 = panel * mr;
        let h = mr.min(mc - i0);
        let dst = &mut buf[panel * kc * mr..(panel + 1) * kc * mr];
        for i in 0..h {
            let row = &a.row(r0 + i0 + i)[p0..p0 + kc];
            for (p, &v) in row.iter().enumerate() {
                dst[p * mr + i] = v;
            }
        }
    }
}

/// [`pack_a`] for the operand `aᵀ`, read straight from `a`: packs
/// `a[p0+p][r0+i]` for `i < mc`, `p < kc` into the same `MR`-tall panel
/// layout, so the nest multiplies by `aᵀ` without ever forming it. Step
/// `p` of a panel is `mr` *adjacent* values of row `p0+p` of `a`.
pub(crate) fn pack_a_transposed(
    a: &Matrix,
    r0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    mr: usize,
    buf: &mut Vec<f64>,
) {
    let panels = mc.div_ceil(mr);
    buf.clear();
    buf.resize(panels * kc * mr, 0.0);
    for p in 0..kc {
        let row = &a.row(p0 + p)[r0..r0 + mc];
        for (panel, vals) in row.chunks(mr).enumerate() {
            let at = panel * kc * mr + p * mr;
            buf[at..at + vals.len()].copy_from_slice(vals);
        }
    }
}

/// Packs `b[p0+p][c0+j]` for `p < kc`, `j < nc` into `NR`-wide panels.
///
/// Layout: panel `j/NR` occupies `kc·nr` consecutive values; within a
/// panel, step `p` stores the `nr` row values `b[p0+p][c0 + panel·nr + 0..nr]`
/// contiguously (zero-padded when the last panel is short of `nr` columns).
pub(crate) fn pack_b(
    b: &Matrix,
    p0: usize,
    kc: usize,
    c0: usize,
    nc: usize,
    nr: usize,
    buf: &mut Vec<f64>,
) {
    let panels = nc.div_ceil(nr);
    buf.clear();
    buf.resize(panels * kc * nr, 0.0);
    pack_b_panels(b, p0, kc, c0, nc, nr, 0, panels, buf);
}

/// Packs the panel subrange `[panel0, panel0 + panels)` of the slab that
/// [`pack_b`] lays out, into `dst` (exactly `panels·kc·nr` values, already
/// zeroed). Panel ranges are disjoint slices of the full slab buffer, so
/// disjoint ranges can be packed concurrently by different workers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_b_panels(
    b: &Matrix,
    p0: usize,
    kc: usize,
    c0: usize,
    nc: usize,
    nr: usize,
    panel0: usize,
    panels: usize,
    dst: &mut [f64],
) {
    debug_assert_eq!(dst.len(), panels * kc * nr);
    for p in 0..kc {
        let row = &b.row(p0 + p)[c0..c0 + nc];
        for panel in 0..panels {
            let j0 = (panel0 + panel) * nr;
            let w = nr.min(nc - j0);
            let at = panel * kc * nr + p * nr;
            dst[at..at + w].copy_from_slice(&row[j0..j0 + w]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_a_is_panelwise_column_major_with_zero_padding() {
        // 3×4 block of a 5×6 matrix, MR = 2 -> two panels, second half-full.
        let a = Matrix::from_vec(5, 6, (0..30).map(|x| x as f64).collect()).unwrap();
        let mut buf = Vec::new();
        pack_a(&a, 1, 3, 2, 4, 2, &mut buf);
        assert_eq!(buf.len(), 2 * 4 * 2);
        // Panel 0, k-step 0: a[1][2], a[2][2].
        assert_eq!(&buf[0..2], &[8.0, 14.0]);
        // Panel 0, k-step 3: a[1][5], a[2][5].
        assert_eq!(&buf[6..8], &[11.0, 17.0]);
        // Panel 1, k-step 0: a[3][2], padding.
        assert_eq!(&buf[8..10], &[20.0, 0.0]);
        // Panel 1, k-step 3: a[3][5], padding.
        assert_eq!(&buf[14..16], &[23.0, 0.0]);
    }

    #[test]
    fn pack_a_transposed_matches_packing_the_materialized_transpose() {
        let a = Matrix::random_uniform(7, 9, 3);
        let at = a.transpose();
        let (mut direct, mut via) = (Vec::new(), Vec::new());
        for (r0, mc, p0, kc, mr) in [(0, 9, 0, 7, 4), (2, 5, 1, 4, 2), (1, 7, 3, 3, 6)] {
            pack_a_transposed(&a, r0, mc, p0, kc, mr, &mut direct);
            pack_a(&at, r0, mc, p0, kc, mr, &mut via);
            assert_eq!(direct, via, "r0={r0} mc={mc} p0={p0} kc={kc} mr={mr}");
        }
    }

    #[test]
    fn pack_b_is_panelwise_row_major_with_zero_padding() {
        // 2×5 block of a 4×6 matrix, NR = 4 -> two panels, second 1-wide.
        let b = Matrix::from_vec(4, 6, (0..24).map(|x| x as f64).collect()).unwrap();
        let mut buf = Vec::new();
        pack_b(&b, 1, 2, 1, 5, 4, &mut buf);
        assert_eq!(buf.len(), 2 * 2 * 4);
        // Panel 0, k-step 0: b[1][1..5].
        assert_eq!(&buf[0..4], &[7.0, 8.0, 9.0, 10.0]);
        // Panel 0, k-step 1: b[2][1..5].
        assert_eq!(&buf[4..8], &[13.0, 14.0, 15.0, 16.0]);
        // Panel 1, k-step 0: b[1][5], then padding.
        assert_eq!(&buf[8..12], &[11.0, 0.0, 0.0, 0.0]);
        // Panel 1, k-step 1: b[2][5], then padding.
        assert_eq!(&buf[12..16], &[17.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn packing_reuses_the_buffer_allocation() {
        let a = Matrix::random_uniform(16, 16, 1);
        let mut buf = Vec::new();
        pack_a(&a, 0, 16, 0, 16, 4, &mut buf);
        let cap = buf.capacity();
        pack_a(&a, 0, 8, 0, 8, 4, &mut buf);
        assert_eq!(buf.capacity(), cap, "second pack must not reallocate");
        assert_eq!(buf.len(), 2 * 8 * 4);
    }

    #[test]
    fn empty_ranges_pack_to_empty_buffers() {
        let a = Matrix::random_uniform(4, 4, 2);
        let mut buf = vec![1.0; 8];
        pack_a(&a, 0, 0, 0, 4, 4, &mut buf);
        assert!(buf.is_empty());
        pack_b(&a, 0, 4, 0, 0, 8, &mut buf);
        assert!(buf.is_empty());
    }
}
