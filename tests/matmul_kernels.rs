//! Differential GEMM kernel-equivalence suite.
//!
//! Every [`GemmKernel`] variant is an independent implementation of the
//! same product, and every variant changes the floating-point accumulation
//! *grouping* — exactly the kind of rewrite that silently corrupts a hot
//! path. This suite locks the family together:
//!
//! 1. **Oracle differencing** — each kernel vs a textbook `i-j-p` f64
//!    oracle *and* a Kahan-compensated oracle, over proptest-randomized
//!    adversarial shapes (0/1-sized dims, skinny/tall, odd sizes,
//!    non-multiples of the `MR`/`NR` register tiles and `KC`/`MC` cache
//!    blocks, inner dimensions past `2·KC`), to ≤ 1e-10 relative error —
//!    and the exact kernels `==` the plain oracle.
//! 2. **Exact accounting** — output shapes always `(m, n)`, and every
//!    kernel adds exactly `2·m·k·n` to the FLOP counter.
//! 3. **Determinism** — the packed kernel is bit-identical across thread
//!    counts and run-to-run; every kernel is repeatable on identical
//!    inputs.
//! 4. **Rendering equivalence** — every kernel (the packed register
//!    tile, the rank-k tiles, the skinny `P·U` / `Pᵀ·V` products) is
//!    bitwise identical whether its body is compiled for AVX2 or forced
//!    to the portable rendering, at every thread count, and whether a
//!    skinny product takes the rank-k fast path or the general nest. Only
//!    the opt-in `packed-fma` kernel may differ, and it is held to the
//!    same 1e-10 Kahan budget as everything else.
//!
//! 5. **Transpose-free and skinny entry points** — `try_matmul_tn` (and
//!    the `n×n · n×k` products `try_matmul` hands to the tall-skinny
//!    kernel) equal the product over the *formed* transpose through the
//!    naive kernel, bit for bit, on degenerate, ragged and `n < k` shapes
//!    at one and two threads, into a fresh matrix or a column block.
//!
//! Tests mutate process-wide kernel state (thread budget, default
//! kernel, forced rendering), so each takes the `SUITE` lock — the binary
//! is internally serialized and safe under any `RUST_TEST_THREADS`.
//!
//! `tests/matmul_kernels_portable.rs` compiles this file a second time as
//! a module; there every test runs with the portable rendering forced, so
//! a host with AVX2 still differences the baseline code path against the
//! oracles.

use linview::matrix::gemm::{MR, NR};
use linview::matrix::{
    flops, fold_low_rank, force_general_nest, force_portable_microkernel, set_default_kernel,
    set_gemm_threads, GemmKernel, Matrix, RANK_K_MAX_FOLD_K, RANK_K_MAX_K,
};
use proptest::prelude::*;
use std::sync::Mutex;

static SUITE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    let guard = SUITE.lock().unwrap_or_else(|e| e.into_inner());
    // At the root of its own test crate the suite runs on the host's best
    // rendering; as a module of `matmul_kernels_portable` on the portable
    // one. Tests that flip the knob themselves leave it off, so it is set
    // again for each test.
    force_portable_microkernel(module_path!() != "matmul_kernels");
    guard
}

/// Textbook f64 oracle: `i-j-p`, one sequential sum per output entry.
fn naive_oracle(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a.get(i, p) * b.get(p, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Kahan-compensated oracle: the same sums with error compensation, i.e.
/// a strictly more accurate reference that calibrates how much of the
/// 1e-10 budget is kernel reordering vs plain f64 rounding.
fn kahan_oracle(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0.0f64;
            let mut comp = 0.0f64;
            for p in 0..k {
                let y = a.get(i, p) * b.get(p, j) - comp;
                let t = sum + y;
                comp = (t - sum) - y;
                sum = t;
            }
            out.set(i, j, sum);
        }
    }
    out
}

/// Adversarial dimension strategy: degenerate, tiny, register-tile and
/// cache-block straddling, skinny and moderately large sizes.
fn dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        2 => 0usize..2,          // empty and scalar dims
        3 => 1usize..10,         // tiny and odd
        2 => (1usize..4).prop_map(|x| x * MR + 1),     // off the MR grid
        2 => (1usize..4).prop_map(|x| x * NR - 1),     // off the NR grid
        2 => 120usize..140,      // straddles MC = 128
        1 => 250usize..260,      // straddles KC = 256
        1 => 513usize..530,      // past 2·KC: three KC blocks
        2 => 30usize..70,        // generic mid-size
    ]
}

fn operands() -> impl Strategy<Value = (Matrix, Matrix)> {
    (dim(), dim(), dim(), 0u64..1u64 << 32).prop_map(|(m, k, n, seed)| {
        (
            Matrix::random_uniform(m, k, seed),
            Matrix::random_uniform(k, n, seed.wrapping_add(1)),
        )
    })
}

/// Skinny rank-k operands: outer dims well past the register grid with
/// `k ≤ RANK_K_MAX_K`, i.e. exactly the shapes the dedicated rank-k fast
/// path claims from the packed nest.
fn skinny_operands() -> impl Strategy<Value = (Matrix, Matrix)> {
    (
        20usize..300,
        1usize..RANK_K_MAX_K + 1,
        20usize..300,
        0u64..1u64 << 32,
    )
        .prop_map(|(m, k, n, seed)| {
            (
                Matrix::random_uniform(m, k, seed),
                Matrix::random_uniform(k, n, seed.wrapping_add(1)),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: every kernel within 1e-10 relative error of both
    /// oracles, with exact output shapes, on adversarial shapes; the exact
    /// kernels `==` the plain oracle.
    #[test]
    fn every_kernel_matches_both_oracles((a, b) in operands()) {
        let _guard = lock();
        let plain = naive_oracle(&a, &b);
        let kahan = kahan_oracle(&a, &b);
        // Calibration: the two oracles must themselves agree far inside
        // the kernel budget, or the budget measures nothing.
        prop_assert!(plain.rel_diff(&kahan) <= 1e-12);
        for kernel in GemmKernel::ALL {
            let c = a.matmul_with(&b, kernel).unwrap();
            prop_assert_eq!(c.shape(), (a.rows(), b.cols()));
            if !kernel.fuses() {
                prop_assert!(
                    c == plain,
                    "{} != naive oracle on {}x{}x{}", kernel, a.rows(), a.cols(), b.cols()
                );
            }
            prop_assert!(
                c.rel_diff(&plain) <= 1e-10,
                "{} vs naive oracle: {:e} on {}x{}x{}",
                kernel, c.rel_diff(&plain), a.rows(), a.cols(), b.cols()
            );
            prop_assert!(
                c.rel_diff(&kahan) <= 1e-10,
                "{} vs kahan oracle: {:e}",
                kernel, c.rel_diff(&kahan)
            );
        }
    }

    /// Property 2: every kernel accounts exactly 2·m·k·n FLOPs per
    /// product.
    #[test]
    fn cubic_kernels_count_exact_flops((a, b) in operands()) {
        let _guard = lock();
        let expected = (2 * a.rows() * a.cols() * b.cols()) as u64;
        for kernel in GemmKernel::ALL {
            let before = flops::read();
            a.matmul_with(&b, kernel).unwrap();
            prop_assert_eq!(flops::read() - before, expected, "{}", kernel);
        }
    }

    /// Property 4: the fused FMA kernel holds the same 1e-10 budget
    /// against the Kahan oracle on skinny rank-k shapes — the shapes where
    /// the dedicated rank-k path (not the packed nest) renders it.
    #[test]
    fn fma_matches_the_kahan_oracle_on_skinny_shapes((a, b) in skinny_operands()) {
        let _guard = lock();
        let kahan = kahan_oracle(&a, &b);
        let c = a.matmul_with(&b, GemmKernel::PackedFma).unwrap();
        prop_assert!(
            c.rel_diff(&kahan) <= 1e-10,
            "packed-fma vs kahan on {}x{}x{}: {:e}",
            a.rows(), a.cols(), b.cols(), c.rel_diff(&kahan)
        );
    }

    /// Property 5: the rank-k fast path is bit-identical to the general
    /// packed nest on every skinny shape (both replay the ascending-k
    /// single-accumulator chain, so `==` must hold exactly).
    #[test]
    fn rank_k_path_is_bit_identical_to_the_general_nest((a, b) in skinny_operands()) {
        let _guard = lock();
        let fast = a.matmul_packed(&b).unwrap();
        force_general_nest(true);
        let nest = a.matmul_packed(&b).unwrap();
        force_general_nest(false);
        prop_assert_eq!(
            &fast, &nest,
            "rank-k vs nest on {}x{}x{}", a.rows(), a.cols(), b.cols()
        );
    }

    /// Property 3: the packed kernel is bit-identical for every thread
    /// budget, including counts that do not divide the row count.
    #[test]
    fn packed_is_bit_identical_across_thread_counts((a, b) in operands()) {
        let _guard = lock();
        set_gemm_threads(Some(1));
        let serial = a.matmul_packed(&b).unwrap();
        for threads in [2usize, 3, 8] {
            set_gemm_threads(Some(threads));
            let parallel = a.matmul_packed(&b).unwrap();
            prop_assert_eq!(&serial, &parallel, "threads = {}", threads);
        }
        set_gemm_threads(None);
    }
}

/// Explicit regression shapes: the exact boundaries the proptest strategy
/// samples around, pinned so a strategy change can never lose them.
#[test]
fn pinned_adversarial_shapes_match_the_oracle() {
    let _guard = lock();
    let shapes = [
        (0, 0, 0),
        (0, 4, 3),
        (3, 0, 4),
        (4, 3, 0),
        (1, 1, 1),
        (1, 257, 1),         // skinny straddling KC
        (2, 1, 64),          // outer-product-like
        (MR, 5, NR),         // one exact register tile
        (MR - 1, 5, NR - 1), // one ragged register tile
        (MR + 1, 7, NR + 1),
        (6 * MR + 1, 13, 3 * NR + 5), // ragged panel grids
        (129, 257, 17),               // straddles MC and KC together
        (65, 31, 130),
    ];
    for (m, k, n) in shapes {
        let a = Matrix::random_uniform(m, k, (m * 1000 + k) as u64);
        let b = Matrix::random_uniform(k, n, (k * 1000 + n) as u64);
        let oracle = naive_oracle(&a, &b);
        for kernel in GemmKernel::ALL {
            let c = a.matmul_with(&b, kernel).unwrap();
            assert_eq!(c.shape(), (m, n), "{kernel} shape on {m}x{k}x{n}");
            assert!(
                c.rel_diff(&oracle) <= 1e-10,
                "{kernel} on {m}x{k}x{n}: {:e}",
                c.rel_diff(&oracle)
            );
        }
    }
}

/// The packed nest past one `KC = 256` block of inner dimension: each
/// element stays one ascending chain across the block boundaries, so
/// `matmul_with(Packed)`, a wide `try_matmul_tn` (panels packed from the
/// transposed operand) and an exact-fit `matmul_into` are `==` to the
/// naive oracle at k ∈ {258, 300, 513, 600} — on both exact renderings, at
/// one and two threads — and `packed-fma` stays within the 1e-10 budget.
/// 130×70 crosses `MC` and the parallel threshold at every k; 6×8 has a
/// single ragged register tile (its transposed and into products stream
/// through the skinny kernels instead).
#[test]
fn packed_nest_is_exact_across_kc_blocks() {
    let _guard = lock();
    set_default_kernel(Some(GemmKernel::Packed));
    for k in [258, 300, 513, 600] {
        for (m, n) in [(6, 8), (20, 24), (130, 70)] {
            let a = Matrix::random_uniform(m, k, (m * k) as u64);
            let at = Matrix::random_uniform(k, m, (m * k) as u64 + 1);
            let b = Matrix::random_uniform(k, n, (k * n) as u64 + 2);
            let ab = naive_oracle(&a, &b);
            let atb = naive_oracle(&at.transpose(), &b);
            for portable in [true, false] {
                force_portable_microkernel(portable);
                for threads in [1, 2] {
                    set_gemm_threads(Some(threads));
                    let label =
                        format!("{m}x{k}x{n}, portable forced: {portable}, {threads} thread(s)");
                    let c = a.matmul_with(&b, GemmKernel::Packed).unwrap();
                    assert_eq!(c, ab, "matmul_with, {label}");
                    assert_eq!(at.try_matmul_tn(&b).unwrap(), atb, "try_matmul_tn, {label}");
                    let mut fit = Matrix::filled(m, n, 9.0);
                    a.matmul_into(&b, &mut fit, 0).unwrap();
                    assert_eq!(fit, ab, "matmul_into, {label}");
                    let fused = a.matmul_with(&b, GemmKernel::PackedFma).unwrap();
                    assert!(fused.rel_diff(&ab) <= 1e-10, "packed-fma, {label}");
                }
            }
        }
    }
    force_portable_microkernel(false);
    set_gemm_threads(None);
    set_default_kernel(None);
}

/// Run-to-run repeatability: identical inputs give bitwise-identical
/// outputs for every kernel, with the thread budget pinned and unpinned.
#[test]
fn every_kernel_is_repeatable_run_to_run() {
    let _guard = lock();
    let a = Matrix::random_uniform(97, 113, 21);
    let b = Matrix::random_uniform(113, 41, 22);
    for threads in [Some(1), Some(4), None] {
        set_gemm_threads(threads);
        for kernel in GemmKernel::ALL {
            let first = a.matmul_with(&b, kernel).unwrap();
            for _ in 0..3 {
                assert_eq!(
                    first,
                    a.matmul_with(&b, kernel).unwrap(),
                    "{kernel} with threads {threads:?}"
                );
            }
        }
    }
    set_gemm_threads(None);
}

/// The AVX2 instantiation of the register tile is an alternate
/// *rendering* of the portable one, not an alternate algorithm: the
/// default packed kernel must produce bitwise-identical outputs with it
/// enabled and with the portable rendering forced, across thread budgets.
#[test]
fn simd_rendering_is_bit_identical_to_portable() {
    let _guard = lock();
    let shapes = [
        (MR + 1, 37, NR + 3),
        (97, 113, 41),
        (129, 257, 17),
        (200, RANK_K_MAX_K, 77), // rank-k fast path, both renderings
    ];
    for (m, k, n) in shapes {
        let a = Matrix::random_uniform(m, k, (m * 31 + k) as u64);
        let b = Matrix::random_uniform(k, n, (k * 31 + n) as u64);
        for threads in [Some(1), Some(4)] {
            set_gemm_threads(threads);
            let simd = a.matmul_packed(&b).unwrap();
            force_portable_microkernel(true);
            let portable = a.matmul_packed(&b).unwrap();
            force_portable_microkernel(false);
            assert_eq!(simd, portable, "{m}x{k}x{n} with threads {threads:?}");
        }
    }
    set_gemm_threads(None);
}

/// The three streaming kernels of a firing, through the public entry
/// points, for every width `k = 1..=16`, under both exact renderings and
/// at one, two and three threads: `P·U` (`try_matmul` / `matmul_into`),
/// `Pᵀ·V` (`try_matmul_tn` / `matmul_tn_into`, also into the middle of a
/// wider matrix), the rank-k product (`matmul_packed` on an `m×k · k×n`
/// shape) and the rank-k fold (`fold_low_rank`) are `==` to the naive
/// oracle (followed by an elementwise add for the fold). 397×331 is ragged
/// against every tile height, the 8-row `Pᵀ·V` passes and the 128-row
/// chunks, and large enough that even `k = 1` is split across threads.
#[test]
fn streaming_kernels_are_bit_identical_across_renderings_and_threads() {
    let _guard = lock();
    let (m, n) = (397, 331);
    let p = Matrix::random_uniform(m, n, 71);
    let pt = p.transpose();
    let target = Matrix::random_uniform(m, n, 72);
    let fused = linview::matrix::default_kernel().fuses();
    for k in 1..=RANK_K_MAX_K {
        let u = Matrix::random_uniform(n, k, 73 + k as u64);
        let v = Matrix::random_uniform(m, k, 93 + k as u64);
        let w = Matrix::random_uniform(n, k, 113 + k as u64);
        let pu = naive_oracle(&p, &u);
        let ptv = naive_oracle(&pt, &v);
        let vwt = naive_oracle(&v, &w.transpose());
        let mut folded = target.clone();
        folded.add_assign_from(&vwt).unwrap();
        for portable in [true, false] {
            force_portable_microkernel(portable);
            for threads in 1..=3 {
                set_gemm_threads(Some(threads));
                let label = format!("k = {k}, portable forced: {portable}, {threads} thread(s)");
                assert_eq!(p.try_matmul(&u).unwrap(), pu, "P·U, {label}");
                assert_eq!(p.try_matmul_tn(&v).unwrap(), ptv, "Pᵀ·V, {label}");
                let mut wide = Matrix::filled(n, 2 * k + 1, 9.0);
                p.matmul_tn_into(&v, &mut wide, k).unwrap();
                let mut tall = Matrix::filled(m, 2 * k + 1, 9.0);
                p.matmul_into(&u, &mut tall, 1).unwrap();
                for (block, c0, whole) in [(&wide, k, &ptv), (&tall, 1, &pu)] {
                    for r in 0..block.rows() {
                        let row = block.row(r);
                        assert_eq!(&row[c0..c0 + k], whole.row(r), "block, {label}");
                        assert!(row[..c0].iter().chain(&row[c0 + k..]).all(|&x| x == 9.0));
                    }
                }
                assert_eq!(
                    v.matmul_packed(&w.transpose()).unwrap(),
                    vwt,
                    "rank-k product, {label}"
                );
                let mut x = target.clone();
                fold_low_rank(&mut x, &v, &w, false).unwrap();
                if fused {
                    // The fold follows the default kernel; only it fuses.
                    assert!(x.rel_diff(&folded) <= 1e-10, "rank-k fold, {label}");
                } else {
                    assert_eq!(x, folded, "rank-k fold, {label}");
                }
            }
        }
    }
    force_portable_microkernel(false);
    set_gemm_threads(None);
}

/// `check(label)` under both exact renderings at one, two and three
/// threads.
fn across_renderings_and_threads(mut check: impl FnMut(&str)) {
    for portable in [true, false] {
        force_portable_microkernel(portable);
        for threads in 1..=3 {
            set_gemm_threads(Some(threads));
            check(&format!("portable forced: {portable}, {threads} thread(s)"));
        }
    }
    force_portable_microkernel(false);
    set_gemm_threads(None);
}

/// `out[.., c0..c0 + whole.cols()]` holds `whole` and every other entry
/// still holds the 9.0 it was filled with.
fn assert_block(out: &Matrix, c0: usize, whole: &Matrix, label: &str) {
    let k = whole.cols();
    for r in 0..out.rows() {
        let row = out.row(r);
        assert_eq!(&row[c0..c0 + k], whole.row(r), "block, {label}");
        assert!(row[..c0].iter().chain(&row[c0 + k..]).all(|&x| x == 9.0));
    }
}

/// Outputs of at most 16 rows (`Y'X`, `(Y'X)·V`) run the transposed
/// problem through the `Pᵀ·V` streaming kernel: `==` the naive oracle for
/// every m = 1..=16 against outputs 17, 31, 256 and 523 columns wide, as
/// `A·B`, as `AᵀB` and into the middle of a wider matrix. The kernel never
/// fuses, so this holds under `packed-fma` too.
#[test]
fn short_outputs_are_bit_identical_to_naive() {
    let _guard = lock();
    let k = 41;
    for n in [17, 31, 256, 523] {
        let b = Matrix::random_uniform(k, n, 500 + n as u64);
        let cases: Vec<_> = (1..=16)
            .map(|m| {
                let a = Matrix::random_uniform(m, k, (1000 * m + n) as u64);
                let at = Matrix::random_uniform(k, m, (1000 * m + n) as u64 + 1);
                let (ab, atb) = (naive_oracle(&a, &b), naive_oracle(&at.transpose(), &b));
                (a, at, ab, atb)
            })
            .collect();
        across_renderings_and_threads(|config| {
            for (a, at, ab, atb) in &cases {
                let label = format!("{}x{k}x{n}, {config}", a.rows());
                assert_eq!(&a.try_matmul(&b).unwrap(), ab, "A·B, {label}");
                assert_eq!(&at.try_matmul_tn(&b).unwrap(), atb, "AᵀB, {label}");
                let mut wide = Matrix::filled(a.rows(), n + 3, 9.0);
                a.matmul_into(&b, &mut wide, 2).unwrap();
                assert_block(&wide, 2, ab, &label);
                let mut wide = Matrix::filled(a.rows(), n + 3, 9.0);
                at.matmul_tn_into(&b, &mut wide, 1).unwrap();
                assert_block(&wide, 1, atb, &label);
            }
        });
    }
}

/// Blocks 17–32 columns wide (Woodbury's `W·P` and `Wᵀ·Q` at a fired
/// rank of 26) run as two streaming passes, 16 columns and the rest: `==`
/// the naive oracle at every width, into a fresh matrix or a column block.
#[test]
fn two_pass_widths_are_bit_identical_to_naive() {
    let _guard = lock();
    let (m, p) = (131, 97);
    let pm = Matrix::random_uniform(m, p, 61);
    let pt = pm.transpose();
    for w in 17..=32 {
        let u = Matrix::random_uniform(p, w, 62 + w as u64);
        let v = Matrix::random_uniform(m, w, 95 + w as u64);
        let (pu, ptv) = (naive_oracle(&pm, &u), naive_oracle(&pt, &v));
        across_renderings_and_threads(|config| {
            let label = format!("width {w}, {config}");
            assert_eq!(pm.try_matmul(&u).unwrap(), pu, "P·U, {label}");
            assert_eq!(pm.try_matmul_tn(&v).unwrap(), ptv, "Pᵀ·V, {label}");
            let mut tall = Matrix::filled(m, w + 5, 9.0);
            pm.matmul_into(&u, &mut tall, 3).unwrap();
            assert_block(&tall, 3, &pu, &label);
            let mut wide = Matrix::filled(p, w + 5, 9.0);
            pm.matmul_tn_into(&v, &mut wide, 5).unwrap();
            assert_block(&wide, 5, &ptv, &label);
        });
    }
}

/// Folds of rank 17–32 (OLS's `Z += U_Z V_Zᵀ` and `W += U_W V_Wᵀ` at a
/// fired rank of 26) take the fused rank-k fold without an `m×n`
/// temporary wherever the rank is the smallest extent: `==` GEMM-then-add
/// through the naive kernel at every width, into targets 17, 31, 256 and
/// 523 columns wide (the narrow two route elsewhere from some `k` on),
/// under both exact renderings at one, two and three threads. The same
/// fold forced through the packed nest is `==` too, and under
/// `packed-fma` it stays within 1e-10 of the Kahan oracle. 131 rows span
/// two row chunks, so the widest targets are split across threads.
#[test]
fn wide_rank_folds_are_bit_identical_to_gemm_then_add() {
    let _guard = lock();
    let m = 131;
    for n in [17, 31, 256, 523] {
        let target = Matrix::random_uniform(m, n, 700 + n as u64);
        for k in RANK_K_MAX_K + 1..=RANK_K_MAX_FOLD_K {
            let u = Matrix::random_uniform(m, k, (1000 * k + n) as u64);
            let v = Matrix::random_uniform(n, k, (1000 * k + n) as u64 + 1);
            let vt = v.transpose();
            let fold = |x: &Matrix| {
                let mut x = x.clone();
                fold_low_rank(&mut x, &u, &v, false).unwrap();
                x
            };
            let mut two_step = target.clone();
            two_step.add_assign_from(&naive_oracle(&u, &vt)).unwrap();
            across_renderings_and_threads(|config| {
                assert_eq!(fold(&target), two_step, "{m}x{k}x{n}, {config}");
            });
            force_general_nest(true);
            let nest = fold(&target);
            force_general_nest(false);
            assert_eq!(nest, two_step, "{m}x{k}x{n} through the nest");
            set_default_kernel(Some(GemmKernel::PackedFma));
            let fused = fold(&target);
            set_default_kernel(None);
            let mut kahan = target.clone();
            kahan.add_assign_from(&kahan_oracle(&u, &vt)).unwrap();
            assert!(
                fused.rel_diff(&kahan) <= 1e-10,
                "{m}x{k}x{n} under packed-fma"
            );
        }
    }
}

/// The streaming kernels skip the all-zero rows of a block that passes
/// the fold's density test (nnz at most 5 % of its entries) — and what
/// those rows multiply: columns of `P` for `P·U`, rows of `P` for `Pᵀ·V`
/// and for a short output's transposed problem. Every case is `==` the
/// naive oracle: no nonzero row, one, a row nonzero in one column only,
/// signed zeros (a row of `±0.0` is a zero row), exactly the crossover
/// density and one nonzero past it, and a 26-column basis block (skip and
/// two passes). Finite operands only: `inf·0` is NaN in the oracle and
/// skipped here.
#[test]
fn sparse_blocks_skip_zero_rows_bit_identically() {
    let _guard = lock();
    let rows = 200;
    let block = |cols: usize, entries: &[(usize, usize, f64)]| {
        let mut b = Matrix::zeros(rows, cols);
        for &(r, c, x) in entries {
            b.set(r, c, x);
        }
        b
    };
    // 200×2 holds 400 entries: 20 nonzeros is the crossover, 21 is dense.
    let spread = |count: usize| {
        let entries: Vec<_> = (0..count)
            .map(|i| ((i * 37 + 5) % rows, i % 2, 0.5 + i as f64))
            .collect();
        block(2, &entries)
    };
    let cases = [
        ("no nonzero row", block(3, &[])),
        (
            "one row",
            block(3, &[(17, 0, 1.5), (17, 1, -2.0), (17, 2, 0.25)]),
        ),
        ("one column of one row", block(3, &[(150, 2, 3.0)])),
        (
            "signed zeros",
            block(
                3,
                &[
                    (3, 0, -0.0),
                    (3, 1, 1.5),
                    (9, 0, -0.0),
                    (9, 2, -0.0),
                    (10, 1, -0.0),
                ],
            ),
        ),
        ("at the crossover", spread(20)),
        ("one past the crossover", spread(21)),
        (
            "26-column basis",
            block(
                26,
                &(0..26)
                    .map(|c| ((c * 7 + 3) % rows, c, 1.0))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "one row, 16 columns",
            block(16, &[(42, 15, -1.0), (42, 0, 2.0)]),
        ),
    ];
    let p = Matrix::random_uniform(150, rows, 81);
    let q = Matrix::random_uniform(rows, 120, 82);
    let wide = Matrix::random_uniform(rows, 40, 83);
    for (name, b) in &cases {
        let pb = naive_oracle(&p, b);
        let qtb = naive_oracle(&q.transpose(), b);
        // A short output whose transposed problem streams `wide` against
        // the sparse block: bᵀ·wide for blocks of at most 16 columns.
        let short = (b.cols() <= 16).then(|| naive_oracle(&b.transpose(), &wide));
        across_renderings_and_threads(|config| {
            let label = format!("{name}, {config}");
            assert_eq!(p.try_matmul(b).unwrap(), pb, "P·U, {label}");
            assert_eq!(q.try_matmul_tn(b).unwrap(), qtb, "Pᵀ·V, {label}");
            let mut out = Matrix::filled(150, b.cols() + 2, 9.0);
            p.matmul_into(b, &mut out, 1).unwrap();
            assert_block(&out, 1, &pb, &label);
            if let Some(short) = &short {
                assert_eq!(&b.try_matmul_tn(&wide).unwrap(), short, "short, {label}");
            }
        });
    }
}

/// `AᵀB` without forming `Aᵀ`, and `A·B` for a block of at most 16
/// columns, against the formed transpose through the naive kernel. The
/// skinny kernels never fuse, so they are `==` to the oracle under every
/// default kernel (including `LINVIEW_GEMM=packed-fma`); wider `AᵀB`
/// products run the packed nest over panels packed from the transposed
/// operand and must equal the same nest over the formed transpose.
#[test]
fn transpose_free_and_skinny_products_match_the_formed_transpose() {
    let _guard = lock();
    // (rows of A, cols of A, block columns)
    let shapes = [
        (1, 1, 1),
        (1, 1, 0), // no columns at all
        (0, 3, 2),
        (3, 0, 2),
        (5, 7, 3),
        (37, 29, 13), // nothing a multiple of a tile
        (3, 4, 16),   // n < k
        (2, 9, 5),
        (130, 70, 16),
        (300, 400, 8), // past the parallel threshold
        (40, 50, 17),  // one past the skinny limit: small-product kernel
        (64, 72, 40),  // packed nest, panels packed from Aᵀ
        (300, 64, 40), // … across two KC blocks
        (12, 90, 30),  // rank-k-eligible transposed shape
    ];
    let fused = linview::matrix::default_kernel().fuses();
    for threads in [1, 2] {
        set_gemm_threads(Some(threads));
        for (m, n, k) in shapes {
            let label = format!("{m}x{n} with {k} columns, {threads} thread(s)");
            let a = Matrix::random_uniform(m, n, (m * 100 + n) as u64);
            let b_tn = Matrix::random_uniform(m, k, (m * 100 + k) as u64 + 7);
            let b_nn = Matrix::random_uniform(n, k, (n * 100 + k) as u64 + 9);
            let formed = a.transpose();

            let before = flops::read();
            let tn = a.try_matmul_tn(&b_tn).unwrap();
            assert_eq!(flops::read() - before, (2 * m * n * k) as u64, "{label}");
            assert_eq!(tn.shape(), (n, k), "{label}");
            let oracle = formed.matmul_with(&b_tn, GemmKernel::Naive).unwrap();
            if k <= RANK_K_MAX_K {
                assert_eq!(tn, oracle, "AᵀB, {label}");
                let nn = a.try_matmul(&b_nn).unwrap();
                let oracle = a.matmul_with(&b_nn, GemmKernel::Naive).unwrap();
                assert_eq!(nn, oracle, "AB, {label}");
            } else if fused {
                assert!(tn.rel_diff(&oracle) <= 1e-10, "AᵀB, {label}");
            } else {
                assert_eq!(tn, formed.try_matmul(&b_tn).unwrap(), "AᵀB, {label}");
                assert!(tn.rel_diff(&oracle) <= 1e-10, "AᵀB, {label}");
            }

            // The same products into the middle of a wider matrix.
            let mut wide = Matrix::filled(n, k + 3, 9.0);
            a.matmul_tn_into(&b_tn, &mut wide, 2).unwrap();
            let mut tall = Matrix::filled(m, k + 3, 9.0);
            a.matmul_into(&b_nn, &mut tall, 2).unwrap();
            let nn = a.try_matmul(&b_nn).unwrap();
            // … and over every column of an exact-fit matrix, where the
            // packed nest overwrites the buffer in place.
            let mut fit = Matrix::filled(m, k, 9.0);
            a.matmul_into(&b_nn, &mut fit, 0).unwrap();
            assert_eq!(fit, nn, "exact fit, {label}");
            for (block, whole) in [(&wide, &tn), (&tall, &nn)] {
                for r in 0..block.rows() {
                    let row = block.row(r);
                    assert_eq!(&row[2..2 + k], whole.row(r), "block, {label}");
                    assert!(row[..2].iter().chain(&row[2 + k..]).all(|&x| x == 9.0));
                }
            }
        }
    }
    set_gemm_threads(None);
    let a = Matrix::zeros(4, 3);
    assert!(a.try_matmul_tn(&Matrix::zeros(3, 2)).is_err());
    assert!(a
        .matmul_tn_into(&Matrix::zeros(4, 2), &mut Matrix::zeros(3, 1), 0)
        .is_err());
    assert!(a
        .matmul_into(&Matrix::zeros(3, 2), &mut Matrix::zeros(4, 3), 2)
        .is_err());
}

/// Small folds and narrow products, below the `48³` work gate that would
/// otherwise send them to the unfused small-product kernel:
/// `fold_low_rank` takes the fused-capable rank-k fold at every size, and
/// `try_matmul` hands every product of at most 16 output columns to the
/// never-fusing tall-skinny kernel. Under the exact kernels both stay `==` to GEMM-then-add through
/// the naive kernel; under `packed-fma` the small fold's bits may move
/// (one rounding per multiply-add) and are held to the 1e-10 budget.
#[test]
fn small_folds_and_narrow_products_agree_with_gemm_then_add() {
    let _guard = lock();
    // (n, k, m): target n×m, rank k; all far below 48³ multiply-adds.
    for (n, k, m) in [(24, 3, 24), (9, 1, 8), (40, 16, 17), (12, 5, 30)] {
        let target = Matrix::random_uniform(n, m, (n * m) as u64);
        let u = Matrix::random_uniform(n, k, (n * k) as u64 + 1);
        let v = Matrix::random_uniform(m, k, (m * k) as u64 + 2);
        let delta = u.matmul_with(&v.transpose(), GemmKernel::Naive).unwrap();
        let mut two_step = target.clone();
        two_step.add_assign_from(&delta).unwrap();
        let narrow_rhs = Matrix::random_uniform(m, k, (m + k) as u64 + 3);
        let narrow = target.matmul_with(&narrow_rhs, GemmKernel::Naive).unwrap();
        for kernel in [GemmKernel::Packed, GemmKernel::PackedFma] {
            set_default_kernel(Some(kernel));
            let mut folded = target.clone();
            fold_low_rank(&mut folded, &u, &v, false).unwrap();
            if kernel.fuses() {
                assert!(folded.rel_diff(&two_step) <= 1e-10, "{kernel} {n}x{k}x{m}");
            } else {
                assert_eq!(folded, two_step, "{kernel} {n}x{k}x{m}");
            }
            // ≤ 16 output columns: unfused under either kernel.
            assert_eq!(target.try_matmul(&narrow_rhs).unwrap(), narrow, "{kernel}");
        }
    }
    set_default_kernel(None);
}

/// The dispatcher honors a pinned default kernel end to end (the API side
/// of the `LINVIEW_GEMM` override; the env-var side is covered by the CLI
/// suite in a subprocess).
#[test]
fn try_matmul_follows_the_pinned_default_kernel() {
    let _guard = lock();
    let a = Matrix::random_uniform(50, 50, 31);
    let b = Matrix::random_uniform(50, 50, 32);
    let oracle = naive_oracle(&a, &b);
    for kernel in GemmKernel::ALL {
        set_default_kernel(Some(kernel));
        let c = a.try_matmul(&b).unwrap();
        assert!(c.rel_diff(&oracle) <= 1e-10, "{kernel}");
    }
    set_default_kernel(None);
}

/// Every kernel rejects inner-dimension mismatches identically.
#[test]
fn every_kernel_rejects_dim_mismatch() {
    let _guard = lock();
    let a = Matrix::zeros(3, 4);
    let b = Matrix::zeros(5, 2);
    for kernel in GemmKernel::ALL {
        assert!(a.matmul_with(&b, kernel).is_err(), "{kernel}");
    }
}
