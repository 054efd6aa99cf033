//! Packed, register-blocked GEMM — the tuned dense hot path — and the one
//! place that decides which kernel multiplies a product.
//!
//! Every cost the paper compares — `O(nᵞ)` re-evaluation, `O(kn²)` rank-k
//! view folds — bottoms out in this multiply. The kernel follows the
//! BLIS/GotoBLAS design:
//!
//! 1. a three-level loop nest walks `C` in `NC`-wide column slabs (L3),
//!    `KC`-deep rank updates (packed `B` slab stays L2/L3-resident) and
//!    `MC`-tall row panels (packed `A` panel stays L2-resident);
//! 2. the `pack` module rewrites both operands into zero-padded
//!    micro-panels so the inner loop is branch-free and unit-stride;
//! 3. an `MR×NR` register-tile microkernel does the arithmetic — one
//!    generic body whose 6×8 f64 tile LLVM keeps in twelve ymm
//!    accumulators when it is instantiated under AVX2 and in six zmm ones
//!    under AVX-512 (the in-crate `Isa` trait), bit-identical to the
//!    baseline instantiation that remains the fallback and the reference
//!    (the AVX-512 rendering runs the tile as it is: square products at
//!    n = 192–512 measured 10–50 % faster than under AVX2). The tile's
//!    accumulators start from the `C` tile and are stored back, so the
//!    `KC`-deep blocks of a long inner dimension extend one ascending
//!    chain per element instead of adding per-block partial sums.
//!
//! Not every product runs the nest. `route` is the single decision
//! point, and it routes by the output's shape before its size: products
//! with a skinny *output* — `P·U` and `Pᵀ·V` for an `n×k` block with
//! `k ≤ 32` (two passes past 16), and outputs of at most 16 rows such as
//! `Yᵀ X` — run the in-crate `skinny` kernels, which also skip the
//! all-zero rows of a sparse block; skinny `n×k · k×n` products
//! (`k ≤ 16`) and folds `X += U·Vᵀ` (`k ≤ 32`, which covers OLS's rank-26
//! `Z` and `W` folds) run the rank-k fast path (the in-crate `rankk`
//! module); products too small to amortize packing run a serial `i-k-j`
//! loop; and wider `AᵀB` products run this nest with the `A` panels
//! packed straight from the transposed operand.
//!
//! Parallelism comes from `MC`-row output chunks scheduled onto the
//! work-stealing queue of the persistent `pool` module, with the shared
//! packed-`B` slab built cooperatively by the same workers. Each chunk
//! replays the identical serial accumulation chain over its own rows, so
//! the parallel product is **bit-identical** to the serial one for every
//! thread count and every steal schedule, and results are reproducible
//! run-to-run by construction.
//!
//! [`GemmKernel`] names the three kernels a caller can pin — `Naive`, the
//! oracle; `Packed`, the default; `PackedFma`, opt-in. The process-wide
//! default (used by [`Matrix::try_matmul`]) can be overridden
//! programmatically ([`set_default_kernel`]) or with the `LINVIEW_GEMM`
//! environment variable (an unrecognized value is surfaced through
//! [`env_kernel_error`] and otherwise ignored); thread count follows
//! [`set_gemm_threads`] / `LINVIEW_THREADS`.
//!
//! Every kernel of the family — the microkernel sweep here, the rank-k
//! tiles in `rankk`, the skinny tiles in `skinny` — is written once as a
//! `Kernel` body and compiled per instruction set: portable, AVX2 and
//! AVX-512 for the exact kernels, AVX2+FMA for the fused one. A body may
//! size its register tiles by the rendering's lane count through
//! const-generic tile parameters (a compile-time branch, never a second
//! body). `dispatch` is the one place that picks the rendering (once per
//! row chunk or packed block, never per tile, and the widest the host
//! runs unless [`set_rendering_cap`] caps it) and the crate's only call
//! into `#[target_feature]` code.
//!
//! The opt-in [`GemmKernel::PackedFma`] mode (`LINVIEW_GEMM=packed-fma` /
//! `--gemm packed-fma`) instantiates the same bodies with fused
//! multiply-adds: one rounding instead of two per multiply-add, so it is
//! faster and at least as accurate, but **not bit-comparable** to the
//! exact kernels — the differential suite holds it to ≤ 1e-10 relative
//! error against a Kahan-compensated oracle instead. Hosts without FMA
//! fall back to the exact renderings.

use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::pack::{pack_a, pack_a_transposed, pack_b, pack_b_panels};
use crate::skinny::SKINNY_MAX_COLS;
use crate::{pool, rankk, Matrix, MatrixError, Result};

/// Microkernel tile height (rows of `C` held in registers).
pub const MR: usize = 6;
/// Microkernel tile width (columns of `C` held in registers).
pub const NR: usize = 8;
/// Rows of `A` packed per L2-resident panel (also the parallel row-chunk
/// height handed to the work-stealing queue).
const MC: usize = 128;
/// Depth of one packed rank-`KC` update.
const KC: usize = 256;
/// Columns of `B` packed per outer slab.
const NC: usize = 2048;

/// Packed-nest products with at least this many multiply-adds fan out
/// across the worker pool. The pool is persistent and a fork-join costs
/// 2–4 µs, but the parallel nest pays two of them per `KC×NC` slab
/// (cooperative `B` packing, then the row chunks) and shrinks its chunks
/// to `m/(4·threads)` rows, which halves what each packed `A` panel
/// amortizes; below ≈ 96³ (≈ 75 µs of work on one core of the bench host)
/// the serial nest is as fast. The streaming kernels, which pack nothing,
/// gate much lower — see `pool::run_row_chunks`.
pub(crate) const PARALLEL_THRESHOLD: usize = 96 * 96 * 96;

/// Below this many multiply-adds the packing passes cost more than they
/// save and [`route`] sends a product to the serial `i-k-j` small-product
/// kernel. Only products with more than `SKINNY_MAX_COLS` output rows and
/// `2·SKINNY_MAX_COLS` columns reach the gate; among them the serial loop
/// ties the packed path at 17×2×33 (1.0 µs each on the bench host) and
/// loses from 40×1×40 on (1.2 against 1.0 µs; 17×17×33 5.4 against 3.5,
/// 47³ 52 against 18) — `harness gemm`'s `try_matmul` rows. The crossover
/// is ≈ 11³; the gate stood at 48³ until those rows showed it losing from
/// 17³ up.
const PACKED_MIN_WORK: usize = 11 * 11 * 11;

/// The dense multiplication kernels selectable at runtime.
///
/// All variants compute the same product. `Naive` and `Packed` — and every
/// kernel the crate's router may pick for them — differ only in constants
/// and loop structure, never in floating-point accumulation *grouping*:
/// each output element is one chain that starts at `+0.0` and adds its
/// products in increasing inner index with plain mul-then-add, so they are
/// mutually bit-identical (asserted by the differential suite). `PackedFma`
/// deliberately breaks that contract — it fuses each multiply-add into a
/// single rounding — and is therefore opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GemmKernel {
    /// Textbook `i-j-p` triple loop; the oracle the others are tested
    /// against.
    Naive,
    /// Packed register-blocked microkernel (this module); the default.
    #[default]
    Packed,
    /// The packed kernel with fused-multiply-add microkernels: fastest and
    /// at least as accurate, but not bit-identical to the exact kernels.
    /// Opt-in via `LINVIEW_GEMM=packed-fma` / `--gemm packed-fma`.
    PackedFma,
}

impl GemmKernel {
    /// Every kernel, in oracle-to-fastest order (as benched and tested).
    pub const ALL: [GemmKernel; 3] = [GemmKernel::Naive, GemmKernel::Packed, GemmKernel::PackedFma];

    /// Lower-case kernel name (CLI flag / `LINVIEW_GEMM` spelling).
    pub fn label(self) -> &'static str {
        match self {
            GemmKernel::Naive => "naive",
            GemmKernel::Packed => "packed",
            GemmKernel::PackedFma => "packed-fma",
        }
    }

    /// Parses a kernel name as accepted by `LINVIEW_GEMM` and `--gemm`,
    /// returning a typed [`MatrixError::UnknownKernel`] (which lists the
    /// valid spellings) when the name matches no kernel.
    pub fn from_name(name: &str) -> Result<GemmKernel> {
        let k = match name.trim().to_ascii_lowercase().as_str() {
            "naive" => GemmKernel::Naive,
            "packed" => GemmKernel::Packed,
            "packed-fma" | "packed_fma" => GemmKernel::PackedFma,
            _ => {
                return Err(MatrixError::UnknownKernel {
                    name: name.trim().to_string(),
                })
            }
        };
        Ok(k)
    }

    /// [`GemmKernel::from_name`] with the error flattened away, for
    /// callers that only need the yes/no answer.
    pub fn parse(name: &str) -> Option<GemmKernel> {
        GemmKernel::from_name(name).ok()
    }

    /// True when this kernel may fuse `a·b + c` into a single rounding —
    /// i.e. it trades the family's bit-identity contract for speed.
    pub fn fuses(self) -> bool {
        matches!(self, GemmKernel::PackedFma)
    }
}

impl std::fmt::Display for GemmKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Sentinel for "no programmatic kernel override".
const KERNEL_UNSET: u8 = u8::MAX;
static KERNEL_OVERRIDE: AtomicU8 = AtomicU8::new(KERNEL_UNSET);
/// `LINVIEW_GEMM`, read once per process: `None` when unset, `Ok` when it
/// named a kernel, `Err(raw value)` when it named nothing.
static ENV_KERNEL: OnceLock<Option<std::result::Result<GemmKernel, String>>> = OnceLock::new();

/// Sentinel 0 = "no programmatic thread override".
static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// `LINVIEW_THREADS`, read once per process: `None` when unset, `Ok` when
/// it named a positive thread count, `Err(raw value)` when it was zero or
/// unparsable.
static ENV_THREADS: OnceLock<Option<std::result::Result<usize, String>>> = OnceLock::new();

fn encode(k: GemmKernel) -> u8 {
    k as u8
}

fn decode(v: u8) -> Option<GemmKernel> {
    GemmKernel::ALL.get(usize::from(v)).copied()
}

fn env_kernel() -> &'static Option<std::result::Result<GemmKernel, String>> {
    ENV_KERNEL.get_or_init(|| {
        std::env::var("LINVIEW_GEMM")
            .ok()
            .map(|raw| GemmKernel::from_name(&raw).map_err(|_| raw))
    })
}

/// The kernel [`Matrix::try_matmul`] dispatches to.
///
/// Precedence: the last [`set_default_kernel`] call, else `LINVIEW_GEMM`
/// (read once per process; unknown values are ignored — see
/// [`env_kernel_error`]), else [`GemmKernel::Packed`].
pub fn default_kernel() -> GemmKernel {
    if let Some(k) = decode(KERNEL_OVERRIDE.load(Ordering::Relaxed)) {
        return k;
    }
    env_kernel()
        .as_ref()
        .and_then(|r| r.as_ref().ok())
        .copied()
        .unwrap_or_default()
}

/// The parse error for a `LINVIEW_GEMM` value that named no kernel, if the
/// variable was set to one.
///
/// [`default_kernel`] silently falls back to the default in that case (a
/// library must not write to stderr); front ends should call this once at
/// startup and surface the error as a warning so a typo'd
/// `LINVIEW_GEMM=packd` does not quietly benchmark the wrong kernel.
pub fn env_kernel_error() -> Option<MatrixError> {
    env_kernel()
        .as_ref()
        .and_then(|r| r.as_ref().err())
        .map(|raw| MatrixError::UnknownKernel {
            name: raw.trim().to_string(),
        })
}

/// Overrides the process-wide default kernel (`None` restores the
/// `LINVIEW_GEMM` / built-in default).
pub fn set_default_kernel(kernel: Option<GemmKernel>) {
    let v = kernel.map(encode).unwrap_or(KERNEL_UNSET);
    KERNEL_OVERRIDE.store(v, Ordering::Relaxed);
}

/// The thread budget parallel kernels may use.
///
/// Precedence: the last [`set_gemm_threads`] call, else `LINVIEW_THREADS`
/// (read once per process; zero or non-numeric values are *invalid* and
/// fall back to auto — see [`env_threads_error`]), else the machine's
/// available parallelism. Always ≥ 1. The answer only affects wall-clock:
/// row-chunk parallelism makes every thread count produce bit-identical
/// results.
pub fn gemm_threads() -> usize {
    let forced = THREADS_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    env_threads()
        .as_ref()
        .and_then(|r| r.as_ref().ok())
        .copied()
        .unwrap_or_else(|| {
            // Asked once: the answer cannot change under a running
            // process's feet in a way the pool could follow, and the query
            // reads cgroup files — far too slow for every kernel call.
            static AUTO: OnceLock<usize> = OnceLock::new();
            *AUTO.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
        })
}

fn env_threads() -> &'static Option<std::result::Result<usize, String>> {
    ENV_THREADS.get_or_init(|| {
        std::env::var("LINVIEW_THREADS")
            .ok()
            .map(|raw| match raw.trim().parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(raw),
            })
    })
}

/// The parse error for a `LINVIEW_THREADS` value that was zero or not a
/// number, if the variable was set to one.
///
/// [`gemm_threads`] silently falls back to auto-detected parallelism in
/// that case (a library must not write to stderr); front ends should call
/// this once at startup and surface it as a warning — mirroring
/// [`env_kernel_error`] — so `LINVIEW_THREADS=0` or `=max` does not
/// quietly run on a default-sized pool the operator never chose.
pub fn env_threads_error() -> Option<MatrixError> {
    env_threads()
        .as_ref()
        .and_then(|r| r.as_ref().err())
        .map(|raw| MatrixError::InvalidThreadBudget {
            value: raw.trim().to_string(),
        })
}

/// Overrides the GEMM thread budget (`None` restores the `LINVIEW_THREADS`
/// / auto default; `Some(0)` is treated as `Some(1)`).
pub fn set_gemm_threads(threads: Option<usize>) {
    THREADS_OVERRIDE.store(threads.map(|n| n.max(1)).unwrap_or(0), Ordering::Relaxed);
}

/// The exact renderings of the kernel bodies, narrowest first: what
/// [`set_rendering_cap`] caps and [`exact_rendering`] reports. All of them
/// produce the same bits; they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rendering {
    /// Baseline codegen (SSE2 on x86-64, NEON on aarch64): runs everywhere
    /// and is the reference the others are differenced against.
    Portable,
    /// 256-bit vectors (`avx2`).
    Avx2,
    /// 512-bit vectors (`avx512f`), with register tiles sized for eight
    /// lanes.
    Avx512,
}

impl Rendering {
    /// Every rendering, narrowest first.
    pub const ALL: [Rendering; 3] = [Rendering::Portable, Rendering::Avx2, Rendering::Avx512];

    /// Lower-case name, as the bench harness prints it.
    pub fn label(self) -> &'static str {
        match self {
            Rendering::Portable => "portable",
            Rendering::Avx2 => "avx2",
            Rendering::Avx512 => "avx512",
        }
    }

    /// True when this host can run the rendering (std caches the
    /// detection; this is a few atomic loads).
    pub fn supported(self) -> bool {
        match self {
            Rendering::Portable => true,
            Rendering::Avx2 => avx2_available(),
            Rendering::Avx512 => avx512_available(),
        }
    }

    /// The renderings this host supports, narrowest first.
    pub fn supported_all() -> impl Iterator<Item = Rendering> {
        Rendering::ALL.into_iter().filter(|r| r.supported())
    }
}

impl std::fmt::Display for Rendering {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

static RENDERING_CAP: AtomicU8 = AtomicU8::new(Rendering::Avx512 as u8);

/// Testing/measurement knob: caps the widest rendering **every** kernel
/// may run under — the packed microkernel, the rank-k tiles and the
/// skinny products — at `cap`. The default cap, [`Rendering::Avx512`],
/// lets the host's widest run.
///
/// The exact renderings are bit-identical whichever runs — this knob is
/// how that claim is tested, how CI keeps the narrower paths executed on
/// wide hosts, and how `harness gemm` times each rendering. Capping at
/// [`Rendering::Portable`] under [`GemmKernel::PackedFma`] also disables
/// fusion (the portable rendering never fuses), which is the same
/// fallback hosts without FMA take.
pub fn set_rendering_cap(cap: Rendering) {
    RENDERING_CAP.store(cap as u8, Ordering::Relaxed);
}

/// The rendering [`GemmKernel::Packed`]'s kernels run under: the widest
/// this host supports, at most the [`set_rendering_cap`] cap. (A kernel
/// whose wide renderings measured slower runs portable regardless.)
pub fn exact_rendering() -> Rendering {
    let cap = RENDERING_CAP.load(Ordering::Relaxed);
    Rendering::ALL
        .into_iter()
        .rev()
        .find(|&r| r as u8 <= cap && r.supported())
        .expect("the portable rendering is supported everywhere and within any cap")
}

/// Runs an empty `chunks`-chunk batch across `threads` pool threads and
/// returns when it has joined: the fixed cost every parallel kernel pays
/// on top of its arithmetic. Measurement probe for the bench harness,
/// which prints it beside the kernels that have to amortize it.
pub fn fork_join_probe(threads: usize, chunks: usize) {
    pool::run_stealing(threads, chunks, &|_, _| {});
}

static DISABLE_RANK_K: AtomicBool = AtomicBool::new(false);

/// Ablation/benchmarking knob: routes skinny rank-k shapes through the
/// general packed nest instead of the dedicated rank-k fast path.
///
/// The bench harness uses this to measure the fast path's speedup against
/// the nest on identical shapes, and the differential suite to assert the
/// two paths agree bitwise.
pub fn force_general_nest(on: bool) {
    DISABLE_RANK_K.store(on, Ordering::Relaxed);
}

fn rank_k_disabled() -> bool {
    DISABLE_RANK_K.load(Ordering::Relaxed)
}

/// Whether a kernel rendering may fuse `a·b + c` into one rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fuse {
    /// Plain mul-then-add — the bit-identity contract the exact kernels
    /// share.
    Exact,
    /// Fused multiply-add allowed ([`GemmKernel::PackedFma`]): not
    /// bit-comparable to `Exact`, held to ≤ 1e-10 of the Kahan oracle by
    /// the differential suite.
    Fused,
}

/// The entry point a product arrives through: it decides which gates of
/// [`route`] apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `matmul_with(kernel)`: exactly the named kernel, no size gates.
    Pinned,
    /// `try_matmul` / `matmul_into`: `A·B` through the default kernel.
    Matmul,
    /// `try_matmul_tn` / `matmul_tn_into`: `Aᵀ·B` through the default
    /// kernel.
    MatmulTn,
    /// The dense fold `X += U·Vᵀ` of `fold_low_rank`.
    Fold,
}

/// The kernel that multiplies one product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// The textbook `i-j-p` oracle.
    Naive,
    /// The serial `i-k-j` loop for products too small to amortize packing.
    Small,
    /// The streaming kernels for at most `2·SKINNY_MAX_COLS` output
    /// columns (`P·U`, or `Pᵀ·V` without forming `Pᵀ`), one pass per
    /// `SKINNY_MAX_COLS`; they never fuse.
    Skinny,
    /// At most `SKINNY_MAX_COLS` output rows: the transposed problem
    /// through the `Pᵀ·V` streaming kernel, which reads the wide operand
    /// once; it never fuses.
    Short,
    /// The rank-k fast path: the product, or for [`Op::Fold`] the fused
    /// fold without an `m×n` temporary.
    RankK(Fuse),
    /// The packed nest of this module.
    Nest(Fuse),
}

/// Which kernel multiplies the `m×k · k×n` product `op` asks for under
/// `kernel` — the one place the choice is made. (For [`Op::MatmulTn`] the
/// left operand is the `k×m` matrix read transposed.)
///
/// `Naive` always means the oracle, except that a transposed product of at
/// most `SKINNY_MAX_COLS` output columns streams through [`Route::Skinny`]
/// under every kernel. Under the packed family the default entry points
/// route by the output's shape before its size, so a skinny product never
/// reaches the packed nest:
///
/// 1. at most `SKINNY_MAX_COLS` columns (`P·U`, `Pᵀ·V`): [`Route::Skinny`];
/// 2. at most `SKINNY_MAX_COLS` rows (`Y'X`, `(Y'X)·V`): [`Route::Short`],
///    the transposed problem through the same kernel;
/// 3. up to `2·SKINNY_MAX_COLS` columns (Woodbury's `W·P` and `Wᵀ·Q` at a
///    fired rank of 26): [`Route::Skinny`] in two column passes;
/// 4. under `PACKED_MIN_WORK` multiply-adds: [`Route::Small`].
///
/// A fold of rank at most `RANK_K_MAX_FOLD_K` (32) takes the fused rank-k
/// fold at every size once its target is a register tile wide (unless
/// [`force_general_nest`] is on), and otherwise routes its product like
/// [`Op::Matmul`]. Whatever is left runs the rank-k fast path when the
/// shape is a low-rank update of rank at most 16 (and
/// [`force_general_nest`] allows it) and the packed nest otherwise.
///
/// Every route but a `Fused` one is `==` to the oracle: each output
/// element is one chain from `+0.0` over ascending inner index, whichever
/// kernel, pass or transposition computes it. The streaming routes also
/// skip the all-zero rows of their `·×k` operand under the density test
/// `fold_low_rank` uses (see [`crate::sparsity`]) — `==` for finite
/// operands, because every skipped term is `x·0 = ±0`; an infinite or NaN
/// entry of the other operand facing such a row would have made the
/// oracle's element NaN (`inf·0`), and the skip does not reproduce that.
pub(crate) fn route(op: Op, kernel: GemmKernel, m: usize, k: usize, n: usize) -> Route {
    let columns = |passes: usize| (1..=passes * SKINNY_MAX_COLS).contains(&n);
    let fuse = match kernel {
        GemmKernel::Naive if op == Op::MatmulTn && columns(1) => return Route::Skinny,
        GemmKernel::Naive => return Route::Naive,
        GemmKernel::Packed => Fuse::Exact,
        GemmKernel::PackedFma => Fuse::Fused,
    };
    if op == Op::Fold
        && rankk::eligible(m, k, n, rankk::RANK_K_MAX_FOLD_K)
        && n >= NR
        && !rank_k_disabled()
    {
        return Route::RankK(fuse);
    }
    let rank_k = rankk::eligible(m, k, n, rankk::RANK_K_MAX_K) && !rank_k_disabled();
    if op != Op::Pinned {
        if columns(1) {
            return Route::Skinny;
        }
        if (1..=SKINNY_MAX_COLS).contains(&m) && n > 0 {
            return Route::Short;
        }
        if columns(2) {
            return Route::Skinny;
        }
        if m * k * n < PACKED_MIN_WORK {
            return Route::Small;
        }
    }
    if rank_k {
        Route::RankK(fuse)
    } else {
        Route::Nest(fuse)
    }
}

/// True when the host can run the AVX2 renderings (std caches the
/// detection; this is one atomic load).
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// True when the host can run the AVX-512 rendering: `avx512f` and the
/// features rustc's `avx512f` implies (`avx2`, `fma`, `f16c`), all of
/// which `run_avx512` enables.
fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx512f")
        && avx2_available()
        && fma_available()
        && std::arch::is_x86_feature_detected!("f16c");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// True when the host can run the fused renderings on top of AVX2.
#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    std::arch::is_x86_feature_detected!("fma")
}

/// Serializes unit tests that mutate process-wide kernel state (the
/// kernel/thread overrides and the rendering/rank-k knobs), so they
/// cannot race each other under the default parallel test runner. Exact
/// FLOP-counter assertions need a process of their own instead: they live
/// in `tests/flop_accounting.rs`.
#[cfg(test)]
pub(crate) fn test_config_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `check(label)` under every exact configuration the kernels promise
/// identical bits for — every rendering the host supports × thread
/// budgets {1, 2, 3} — holding [`test_config_lock`] throughout.
#[cfg(test)]
pub(crate) fn for_each_rendering_and_thread_count(mut check: impl FnMut(&str)) {
    let _guard = test_config_lock();
    for rendering in Rendering::supported_all() {
        set_rendering_cap(rendering);
        for threads in 1..=3 {
            set_gemm_threads(Some(threads));
            check(&format!("rendering: {rendering}, threads: {threads}"));
        }
    }
    set_rendering_cap(Rendering::Avx512);
    set_gemm_threads(None);
}

/// An instruction set a kernel body is compiled for. Every kernel is
/// *one* generic body ([`Kernel::run`]); a rendering is that body
/// instantiated for an `Isa` inside a function that enables the matching
/// `#[target_feature]`s, so renderings differ in vector width and (for
/// [`Avx2Fma`] only) in fusing, never in the order of operations.
pub(crate) trait Isa {
    /// Fuse each multiply-add into one rounding ([`GemmKernel::PackedFma`]
    /// only — it breaks bit-identity with the exact renderings).
    const FUSE: bool;
    /// f64 lanes per vector register: what tile shapes are sized by. Tile
    /// shapes regroup *independent* accumulator chains, so they never
    /// change bits.
    const LANES: usize;
}

/// Baseline codegen (SSE2 on x86-64, NEON on aarch64): the fallback and
/// the reference the others are differenced against.
pub(crate) struct Portable;
/// 256-bit lanes, plain mul-then-add: bit-identical to [`Portable`].
pub(crate) struct Avx2;
/// 512-bit lanes, plain mul-then-add: bit-identical to [`Portable`]. With
/// 32 vector registers it carries the widest register tiles (`rankk`'s
/// 8×16, `skinny`'s 8-lane tile heights); the packed microkernel and the
/// `Pᵀ·V` passes keep their shapes.
pub(crate) struct Avx512;
/// 256-bit lanes with `vfmadd` — the one fusing rendering
/// ([`GemmKernel::PackedFma`]), also on AVX-512 hosts.
pub(crate) struct Avx2Fma;

impl Isa for Portable {
    const FUSE: bool = false;
    const LANES: usize = 2;
}
impl Isa for Avx2 {
    const FUSE: bool = false;
    const LANES: usize = 4;
}
impl Isa for Avx512 {
    const FUSE: bool = false;
    const LANES: usize = 8;
}
impl Isa for Avx2Fma {
    const FUSE: bool = true;
    const LANES: usize = 4;
}

/// A compute kernel with one body for every [`Isa`].
pub(crate) trait Kernel {
    /// False for a kernel whose wide renderings measured slower than the
    /// baseline one: [`dispatch`] then runs it [`Portable`] on every host.
    const WIDE: bool = true;

    /// The body: straight-line arithmetic over borrowed slices, combining
    /// products only through [`madd`]. It — and every hot function it
    /// calls — must be `#[inline(always)]`: [`dispatch`] instantiates it
    /// inside a feature-enabled function, and only inlined code is
    /// compiled with that function's features. It must not hand work to
    /// another thread (a closure run elsewhere is compiled portable), so
    /// parallel kernels dispatch inside each chunk.
    fn run<I: Isa>(self);
}

/// `acc + a·b`: two roundings (`*` then `+`) when exact, one
/// (`f64::mul_add`) under a fusing [`Isa`]. Rust never contracts the exact
/// form, so it is the same chain link under every target feature.
#[inline(always)]
pub(crate) fn madd<I: Isa>(acc: f64, a: f64, b: f64) -> f64 {
    if I::FUSE {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// The single entry to feature-enabled code: runs `kernel` under the
/// fastest rendering compatible with `fuse` that the host supports,
/// [`set_rendering_cap`] allows and the kernel wants ([`Kernel::WIDE`]).
/// `Exact` takes [`exact_rendering`]; `Fused` takes [`Avx2Fma`] on any
/// host with AVX2 and FMA under a cap of at least AVX2, and otherwise the
/// exact rendering. Callers hoist this above their tile loops — one branch
/// per row chunk or packed block, none per tile.
pub(crate) fn dispatch<K: Kernel>(kernel: K, fuse: Fuse) {
    let rendering = if K::WIDE {
        exact_rendering()
    } else {
        Rendering::Portable
    };
    #[cfg(target_arch = "x86_64")]
    {
        // Function items of the feature-enabled renderings, coerced to one
        // `unsafe` function pointer type so that a single call site (one
        // unsafe operation) serves them all.
        let run = match rendering {
            Rendering::Portable => return kernel.run::<Portable>(),
            _ if fuse == Fuse::Fused && fma_available() => run_fma::<K>,
            Rendering::Avx2 => run_avx2::<K>,
            Rendering::Avx512 => run_avx512::<K>,
        };
        // SAFETY: `rendering` is at least `Avx2`, and `exact_rendering`
        // returns only renderings whose `Rendering::supported` held, i.e.
        // `is_x86_feature_detected!` found on this host AVX2 (which
        // implies AVX) for `Avx2`, and AVX-512F, AVX2, FMA and F16C for
        // `Avx512`. `run_avx2` enables AVX and AVX2; `run_fma` adds FMA,
        // checked by its arm's guard; `run_avx512` enables AVX-512F, whose
        // implied features are those four.
        unsafe { run(kernel) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (fuse, rendering);
        kernel.run::<Portable>()
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,avx2")]
fn run_avx2<K: Kernel>(kernel: K) {
    kernel.run::<Avx2>()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,avx2,avx512f")]
fn run_avx512<K: Kernel>(kernel: K) {
    kernel.run::<Avx512>()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,avx2,fma")]
fn run_fma<K: Kernel>(kernel: K) {
    kernel.run::<Avx2Fma>()
}

/// The `MR×NR` register-tile loop: a full-depth dot-product block over
/// one packed `A` micro-panel (`kc·MR` values) and one packed `B`
/// micro-panel (`kc·NR` values). Fixed trip counts let LLVM fully unroll
/// the tile and keep `acc` in vector registers — twelve ymm accumulators
/// under AVX2, one broadcast and two mul/add pairs per `A` lane per `k`
/// step. Each element continues the ascending-`k` [`madd`] chain it
/// enters with in `acc`, in every rendering.
#[inline(always)]
fn microkernel<I: Isa>(ap: &[f64], bp: &[f64], mut acc: [[f64; NR]; MR]) -> [[f64; NR]; MR] {
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for (arow, &ai) in acc.iter_mut().zip(a) {
            for (o, &bv) in arow.iter_mut().zip(b) {
                *o = madd::<I>(*o, ai, bv);
            }
        }
    }
    acc
}

/// The microkernel sweep of one packed block: every `MR×NR` tile of the
/// `mc × nc` block `abuf · bbuf`, accumulated into `out_rows` (full-width
/// rows of length `n`) at columns `jc..jc+nc`. Each tile's accumulators
/// are seeded from `out_rows` (zero-padded at ragged edges) and stored
/// back, so successive `KC` blocks extend one chain per element — the
/// naive kernel's — rather than adding a fresh partial sum per block.
struct PackedTiles<'a> {
    abuf: &'a [f64],
    bbuf: &'a [f64],
    out_rows: &'a mut [f64],
    mc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    n: usize,
}

impl Kernel for PackedTiles<'_> {
    #[inline(always)]
    fn run<I: Isa>(self) {
        let Self {
            abuf,
            bbuf,
            out_rows,
            mc,
            kc,
            jc,
            nc,
            n,
        } = self;
        for jr in (0..nc).step_by(NR) {
            let nr = NR.min(nc - jr);
            let bp = &bbuf[(jr / NR) * kc * NR..][..kc * NR];
            for ir in (0..mc).step_by(MR) {
                let mr = MR.min(mc - ir);
                let ap = &abuf[(ir / MR) * kc * MR..][..kc * MR];
                let tile = ir * n + jc + jr;
                // Full tiles seed with fixed-size row loads: 1–2 % faster
                // at n = 192–384 on one thread than the zero-padded copy
                // the ragged edge tiles take.
                let acc = if mr == MR && nr == NR {
                    let seed = std::array::from_fn(|i| {
                        out_rows[tile + i * n..][..NR]
                            .try_into()
                            .expect("an NR-wide row")
                    });
                    microkernel::<I>(ap, bp, seed)
                } else {
                    let mut seed = [[0.0f64; NR]; MR];
                    for (i, arow) in seed.iter_mut().enumerate().take(mr) {
                        arow[..nr].copy_from_slice(&out_rows[tile + i * n..][..nr]);
                    }
                    microkernel::<I>(ap, bp, seed)
                };
                for (i, arow) in acc.iter().enumerate().take(mr) {
                    out_rows[tile + i * n..][..nr].copy_from_slice(&arow[..nr]);
                }
            }
        }
    }
}

/// The left operand of the packed nest: `a` itself, or `aᵀ` read in place
/// (the panels are packed straight from `a`, see
/// [`pack_a_transposed`]) — what lets `AᵀB` run without forming `Aᵀ`.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    a: &'a Matrix,
    transposed: bool,
}

impl Lhs<'_> {
    /// `(rows, inner)` of the operand as the nest sees it.
    fn shape(&self) -> (usize, usize) {
        let (r, c) = self.a.shape();
        if self.transposed {
            (c, r)
        } else {
            (r, c)
        }
    }
}

/// One `MC`-block of microkernel calls against an already-packed `B` slab:
/// packs `A[r0..r0+mc][pc..pc+kc]` into `abuf` and accumulates the block's
/// contribution into `out_rows` (the block's `mc` full-width output rows,
/// written at columns `jc..jc+nc`).
#[allow(clippy::too_many_arguments)]
fn packed_block(
    a: Lhs,
    r0: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    bbuf: &[f64],
    out_rows: &mut [f64],
    n: usize,
    abuf: &mut Vec<f64>,
    fuse: Fuse,
) {
    if a.transposed {
        pack_a_transposed(a.a, r0, mc, pc, kc, MR, abuf);
    } else {
        pack_a(a.a, r0, mc, pc, kc, MR, abuf);
    }
    let tiles = PackedTiles {
        abuf,
        bbuf,
        out_rows,
        mc,
        kc,
        jc,
        nc,
        n,
    };
    dispatch(tiles, fuse);
}

/// The serial packed loop nest over one row band: computes
/// `C[r0..r0+mc_total][..] += A[r0..r0+mc_total][..] · B` into `out`, a
/// row-major `mc_total × n` buffer.
fn packed_band(a: Lhs, b: &Matrix, out: &mut [f64], r0: usize, mc_total: usize, fuse: Fuse) {
    let k = a.shape().1;
    let n = b.cols();
    let mut abuf = Vec::new();
    let mut bbuf = Vec::new();
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(b, pc, kc, jc, nc, NR, &mut bbuf);
            for ic in (0..mc_total).step_by(MC) {
                let mc = MC.min(mc_total - ic);
                packed_block(
                    a,
                    r0 + ic,
                    mc,
                    pc,
                    kc,
                    jc,
                    nc,
                    &bbuf,
                    &mut out[ic * n..(ic + mc) * n],
                    n,
                    &mut abuf,
                    fuse,
                );
            }
        }
    }
}

/// The parallel packed nest: `MC`-row output chunks run on the pool's
/// work-stealing queue, and the shared packed-`B` slab is built
/// cooperatively (disjoint panel ranges) by the same workers before each
/// rank-`KC` update. Chunks own disjoint output rows and each replays the
/// serial nest's per-element accumulation chain, so any worker-to-chunk
/// assignment — including mid-flight steals — is bit-identical to the
/// serial product. This replaces the one-coarse-band-per-thread split,
/// whose ragged tail left the barrier stalled on a single worker.
fn packed_parallel(a: Lhs, b: &Matrix, out: &mut [f64], threads: usize, fuse: Fuse) {
    let (m, k) = a.shape();
    let n = b.cols();
    // Chunk height: at most MC (one packed A panel), shrunk so every
    // worker sees ~4 chunks of stealable granularity, MR-aligned for full
    // register tiles. The split never affects output bits — rows are
    // independent in the nest, so any chunking replays the same
    // per-element accumulation chains.
    let chunk_rows = MC.min(m.div_ceil(4 * threads).next_multiple_of(MR)).max(MR);
    let cells: Vec<Mutex<&mut [f64]>> = out.chunks_mut(chunk_rows * n).map(Mutex::new).collect();
    let workers = threads.min(cells.len()).max(1);
    // Per-worker `A`-panel scratch: each worker locks only its own slot
    // (uncontended), reusing the allocation across chunks and slabs.
    let scratch: Vec<Mutex<Vec<f64>>> = (0..workers).map(|_| Mutex::new(Vec::new())).collect();
    let mut bbuf: Vec<f64> = Vec::new();
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let panels = nc.div_ceil(NR);
            bbuf.clear();
            bbuf.resize(panels * kc * NR, 0.0);
            {
                // Parallel B packing: disjoint panel ranges of the slab,
                // a few cells per worker so a slow worker can be robbed.
                let per_cell = panels.div_ceil(4 * workers).max(1);
                let bcells: Vec<Mutex<&mut [f64]>> = bbuf
                    .chunks_mut(per_cell * kc * NR)
                    .map(Mutex::new)
                    .collect();
                pool::run_stealing(workers, bcells.len(), &|_, c| {
                    let mut dst = bcells[c].lock().expect("pack cell poisoned");
                    let count = dst.len() / (kc * NR);
                    pack_b_panels(b, pc, kc, jc, nc, NR, c * per_cell, count, &mut dst[..]);
                });
            }
            let bbuf = &bbuf;
            let scratch = &scratch;
            pool::run_stealing(workers, cells.len(), &|w, c| {
                let mut rows = cells[c].lock().expect("row chunk poisoned");
                let mc = rows.len() / n;
                let mut abuf = scratch[w].lock().expect("scratch poisoned");
                packed_block(
                    a,
                    c * chunk_rows,
                    mc,
                    pc,
                    kc,
                    jc,
                    nc,
                    bbuf,
                    &mut rows[..],
                    n,
                    &mut abuf,
                    fuse,
                );
            });
        }
    }
}

/// The packed nest `a · b` (shapes already validated, FLOPs already
/// counted by the caller), fanning `MC`-row chunks out across the
/// work-stealing pool when the product is heavy and more than one thread
/// is budgeted. With `Fuse::Exact` the result is bit-identical for every
/// thread count and to the naive kernel.
pub(crate) fn packed_matmul(a: &Matrix, b: &Matrix, fuse: Fuse) -> Matrix {
    packed_nest(
        Lhs {
            a,
            transposed: false,
        },
        b,
        fuse,
    )
}

/// The packed product `aᵀ · b` without forming `aᵀ` (shapes already
/// validated, FLOPs already counted by the caller): the same nest as
/// [`packed_matmul`] with the `A` panels packed from the transposed
/// operand, so it is bit-identical to `packed_matmul(&a.transpose(), b)`.
pub(crate) fn packed_matmul_tn(a: &Matrix, b: &Matrix, fuse: Fuse) -> Matrix {
    packed_nest(
        Lhs {
            a,
            transposed: true,
        },
        b,
        fuse,
    )
}

fn packed_nest(a: Lhs, b: &Matrix, fuse: Fuse) -> Matrix {
    let mut out = Matrix::zeros(a.shape().0, b.cols());
    packed_nest_into(a, b, out.as_mut_slice(), fuse);
    out
}

/// The packed nest of [`packed_matmul`] into a caller-owned contiguous
/// `m×n` buffer, overwriting whatever it held — for callers that reuse one
/// result buffer across products. Bit-identical to the allocating form.
pub(crate) fn packed_matmul_into(a: &Matrix, b: &Matrix, out: &mut [f64], fuse: Fuse) {
    out.fill(0.0);
    let a = Lhs {
        a,
        transposed: false,
    };
    packed_nest_into(a, b, out, fuse);
}

/// The packed nest accumulating into `out`, a zeroed contiguous `m×n`
/// buffer.
fn packed_nest_into(a: Lhs, b: &Matrix, out: &mut [f64], fuse: Fuse) {
    let (m, k) = a.shape();
    let n = b.cols();
    let threads = gemm_threads().min(m.div_ceil(MR).max(1));
    if threads <= 1 || m * k * n < PARALLEL_THRESHOLD {
        packed_band(a, b, out, 0, m, fuse);
    } else {
        packed_parallel(a, b, out, threads, fuse);
    }
}

/// Textbook `i-j-p` product — the f64 oracle.
pub(crate) fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApproxEq;

    #[test]
    fn kernel_labels_roundtrip_through_parse() {
        for k in GemmKernel::ALL {
            assert_eq!(GemmKernel::parse(k.label()), Some(k));
            assert_eq!(GemmKernel::parse(&k.label().to_uppercase()), Some(k));
        }
        for removed in ["turbo", "blocked", "strassen"] {
            assert_eq!(GemmKernel::parse(removed), None, "{removed}");
        }
        assert_eq!(format!("{}", GemmKernel::Packed), "packed");
        assert_eq!(format!("{}", GemmKernel::PackedFma), "packed-fma");
    }

    #[test]
    fn from_name_returns_a_typed_error_listing_the_kernels() {
        assert_eq!(
            GemmKernel::from_name(" Packed-FMA "),
            Ok(GemmKernel::PackedFma)
        );
        let err = GemmKernel::from_name("turbo").unwrap_err();
        assert_eq!(
            err,
            MatrixError::UnknownKernel {
                name: "turbo".to_string()
            }
        );
        let msg = err.to_string();
        for k in GemmKernel::ALL {
            assert!(msg.contains(k.label()), "{msg:?} must list {k}");
        }
    }

    #[test]
    fn only_the_fma_kernel_fuses() {
        for k in GemmKernel::ALL {
            assert_eq!(k.fuses(), k == GemmKernel::PackedFma, "{k}");
        }
    }

    #[test]
    fn default_kernel_override_wins_and_resets() {
        let _guard = test_config_lock();
        let before = default_kernel();
        for k in GemmKernel::ALL {
            set_default_kernel(Some(k));
            assert_eq!(default_kernel(), k);
        }
        set_default_kernel(None);
        assert_eq!(default_kernel(), before);
    }

    #[test]
    fn thread_override_wins_and_resets() {
        let _guard = test_config_lock();
        set_gemm_threads(Some(3));
        assert_eq!(gemm_threads(), 3);
        set_gemm_threads(Some(0));
        assert_eq!(gemm_threads(), 1);
        set_gemm_threads(None);
        assert!(gemm_threads() >= 1);
    }

    #[test]
    fn packed_matches_naive_on_rectangular_shapes() {
        // (20, 300, 20) spans two KC blocks: each element must stay one
        // chain across the block boundary.
        for (m, k, n, seed) in [
            (17, 33, 9, 1),
            (64, 64, 64, 2),
            (5, 200, 3, 3),
            (1, 1, 1, 4),
            (20, 300, 20, 5),
        ] {
            let a = Matrix::random_uniform(m, k, seed);
            let b = Matrix::random_uniform(k, n, seed + 100);
            assert_eq!(
                a.matmul_packed(&b).unwrap(),
                naive_matmul(&a, &b),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn route_picks_one_kernel_per_shape() {
        use GemmKernel::{Naive, Packed, PackedFma};
        let _guard = test_config_lock();
        let exact = Fuse::Exact;
        for (op, kernel, (m, k, n), want) in [
            // The oracle stays the oracle, but a transposed skinny product
            // streams under every kernel.
            (Op::Matmul, Naive, (512, 512, 4), Route::Naive),
            (Op::Fold, Naive, (512, 4, 512), Route::Naive),
            (Op::MatmulTn, Naive, (512, 512, 4), Route::Skinny),
            (Op::MatmulTn, Naive, (512, 512, 17), Route::Naive),
            (Op::MatmulTn, Naive, (1, 512, 256), Route::Naive),
            // Pinned packed: the rank-k path or the nest, at any size and
            // shape.
            (Op::Pinned, Packed, (4, 4, 4), Route::Nest(exact)),
            (Op::Pinned, Packed, (64, 2, 64), Route::RankK(exact)),
            (Op::Pinned, Packed, (1, 512, 256), Route::Nest(exact)),
            (
                Op::Pinned,
                PackedFma,
                (64, 64, 64),
                Route::Nest(Fuse::Fused),
            ),
            // Default entry points: skinny outputs first, then short ones,
            // then two-pass widths, then the size gate.
            (Op::Matmul, Packed, (512, 512, 16), Route::Skinny),
            (Op::Matmul, PackedFma, (512, 512, 1), Route::Skinny),
            (Op::Matmul, Packed, (1, 256, 256), Route::Short),
            (Op::MatmulTn, Packed, (1, 512, 256), Route::Short),
            (Op::Matmul, PackedFma, (16, 512, 512), Route::Short),
            (Op::Matmul, Packed, (3, 2, 40), Route::Short),
            (Op::Matmul, Packed, (3, 2, 0), Route::Small),
            (Op::Matmul, Packed, (17, 512, 512), Route::Nest(exact)),
            (Op::Matmul, Packed, (512, 256, 26), Route::Skinny),
            (Op::MatmulTn, PackedFma, (256, 256, 26), Route::Skinny),
            (Op::Matmul, Packed, (512, 512, 32), Route::Skinny),
            (Op::Matmul, Packed, (512, 512, 33), Route::Nest(exact)),
            (Op::MatmulTn, Packed, (90, 12, 30), Route::Skinny),
            (Op::Matmul, Packed, (17, 2, 33), Route::Small),
            (Op::Matmul, Packed, (40, 1, 40), Route::RankK(exact)),
            (Op::Matmul, Packed, (17, 17, 33), Route::Nest(exact)),
            (Op::Matmul, Packed, (512, 4, 512), Route::RankK(exact)),
            (Op::MatmulTn, Packed, (64, 72, 40), Route::Nest(exact)),
            // Folds take the fused rank-k fold at any size once the
            // target is a register tile wide.
            (Op::Fold, Packed, (9, 1, 8), Route::RankK(exact)),
            (Op::Fold, PackedFma, (24, 3, 24), Route::RankK(Fuse::Fused)),
            (Op::Fold, Packed, (9, 1, 7), Route::Skinny),
            (Op::Fold, Packed, (128, 20, 128), Route::RankK(exact)),
            (
                Op::Fold,
                PackedFma,
                (256, 32, 256),
                Route::RankK(Fuse::Fused),
            ),
            (Op::Fold, Packed, (256, 33, 256), Route::Nest(exact)),
            (Op::Fold, Packed, (40, 32, 32), Route::Skinny),
        ] {
            assert_eq!(
                route(op, kernel, m, k, n),
                want,
                "{op:?} {kernel} {m}x{k}x{n}"
            );
        }
        force_general_nest(true);
        assert_eq!(route(Op::Fold, Packed, 512, 4, 512), Route::Nest(exact));
        assert_eq!(route(Op::Fold, Packed, 256, 26, 256), Route::Nest(exact));
        assert_eq!(route(Op::Pinned, Packed, 64, 2, 64), Route::Nest(exact));
        force_general_nest(false);
    }

    #[test]
    fn packed_fma_matches_naive_on_rectangular_shapes() {
        for (m, k, n, seed) in [(17, 33, 9, 1), (64, 64, 64, 2), (130, 4, 70, 3)] {
            let a = Matrix::random_uniform(m, k, seed);
            let b = Matrix::random_uniform(k, n, seed + 100);
            let fused = a.matmul_with(&b, GemmKernel::PackedFma).unwrap();
            let oracle = naive_matmul(&a, &b);
            assert!(fused.approx_eq(&oracle, 1e-10), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn packed_handles_empty_dimensions() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 4);
        assert_eq!(a.matmul_packed(&b).unwrap().shape(), (0, 4));
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let c = a.matmul_packed(&b).unwrap();
        assert_eq!(c.shape(), (3, 2));
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn packed_parallel_is_bit_identical_to_serial() {
        let _guard = test_config_lock();
        // Past the parallel threshold so the stealing path actually runs,
        // with k > 16 so the nest (not the rank-k path) is exercised.
        let n = 128;
        let a = Matrix::random_uniform(n, n, 7);
        let b = Matrix::random_uniform(n, n, 8);
        set_gemm_threads(Some(1));
        let serial = a.matmul_packed(&b).unwrap();
        set_gemm_threads(Some(4));
        let parallel = a.matmul_packed(&b).unwrap();
        set_gemm_threads(None);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn simd_and_portable_renderings_agree_bitwise() {
        let _guard = test_config_lock();
        // Shapes straddling the register tiles and the KC blocking, plus a
        // parallel-threshold-crossing square; k > 16 keeps the nest (the
        // rank-k and skinny kernels difference their renderings in-module).
        for (m, k, n, seed) in [
            (MR + 1, 37, NR + 3, 1),
            (64, 300, 40, 2),
            (128, 128, 128, 3),
        ] {
            let a = Matrix::random_uniform(m, k, seed);
            let b = Matrix::random_uniform(k, n, seed + 9);
            set_rendering_cap(Rendering::Portable);
            let portable = a.matmul_packed(&b).unwrap();
            for rendering in Rendering::supported_all() {
                set_rendering_cap(rendering);
                let simd = a.matmul_packed(&b).unwrap();
                assert_eq!(simd, portable, "{m}x{k}x{n}, {rendering}");
            }
            set_rendering_cap(Rendering::Avx512);
        }
    }

    #[test]
    fn the_cap_bounds_the_rendering_and_lifts_again() {
        let _guard = test_config_lock();
        let widest = exact_rendering();
        assert!(widest.supported());
        assert!(Rendering::ALL
            .iter()
            .all(|r| !r.supported() || *r <= widest));
        for cap in Rendering::ALL {
            set_rendering_cap(cap);
            let r = exact_rendering();
            assert!(r <= cap && r.supported(), "cap {cap} gave {r}");
            assert_eq!(r, cap.min(widest), "cap {cap}");
        }
        set_rendering_cap(Rendering::Avx512);
        assert_eq!(exact_rendering(), widest);
        let labels: Vec<&str> = Rendering::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels, ["portable", "avx2", "avx512"]);
    }

    #[test]
    fn rank_k_fast_path_is_bit_identical_to_the_general_nest() {
        let _guard = test_config_lock();
        for (m, k, n, seed) in [(64, 1, 64, 1), (97, 4, 130, 2), (200, 16, 77, 3)] {
            let a = Matrix::random_uniform(m, k, seed);
            let b = Matrix::random_uniform(k, n, seed + 50);
            let fast = a.matmul_packed(&b).unwrap();
            force_general_nest(true);
            let nest = a.matmul_packed(&b).unwrap();
            force_general_nest(false);
            assert_eq!(fast, nest, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_with_rejects_dim_mismatch_for_every_kernel() {
        let a = Matrix::zeros(2, 3);
        for kernel in GemmKernel::ALL {
            assert!(a.matmul_with(&a, kernel).is_err(), "{kernel}");
        }
    }
}
