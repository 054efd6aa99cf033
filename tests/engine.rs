//! Property-based tests (proptest) for the `ExecBackend` / streaming
//! `MaintenanceEngine` layer:
//!
//! 1. **Engine exactness** — batched multi-input ingestion over the
//!    `LocalBackend` matches full re-evaluation to 1e-9 across random
//!    event streams, for every batching policy exercised.
//! 2. **Backend equivalence** — the `ThreadedBackend` maintains
//!    bit-for-bit the same views as the `LocalBackend` on identical
//!    streams (one shared execution path), in its coordinator mirror and
//!    in the worker-owned blocks, while moving broadcast-only traffic.
//! 3. **Compaction soundness** — row compaction of arbitrary mixed
//!    batches (row + dense updates) preserves the dense delta.
//! 4. **Joint-flush exactness** — flush rounds that fire ONE joint trigger
//!    (§4.4) match sequential per-input flushing *and* full re-evaluation
//!    to 1e-9 across random policies and input mixes, while never firing
//!    more triggers than the sequential path.

use linview::prelude::*;
use linview::runtime::{FlushPolicy, MaintenanceEngine, ThreadedBackend};
use proptest::prelude::*;
// Explicit: the facade prelude also globs in `apps::general::Strategy`.
use proptest::strategy::Strategy;

fn policy_strategy() -> impl Strategy<Value = FlushPolicy> {
    prop_oneof![
        Just(FlushPolicy::Immediate),
        (1usize..8).prop_map(FlushPolicy::Count),
        (1usize..6).prop_map(FlushPolicy::Rank),
    ]
}

/// Divisible by the 2×2 grid of the 4-worker cluster used below.
const N: usize = 12;

/// One ingested event: which input it hits, the affected row, and the
/// seed of its random right factor.
type Event = (usize, usize, u64);

fn event_strategy() -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec((0usize..2, 0usize..N, 0u64..100_000), 1..32)
}

fn build_setup() -> (Program, Catalog, Matrix, Matrix) {
    let program = parse_program("C := A * B; D := C * C;").unwrap();
    let mut cat = Catalog::new();
    cat.declare("A", N, N);
    cat.declare("B", N, N);
    let a = Matrix::random_spectral(N, 21, 0.7);
    let b = Matrix::random_spectral(N, 22, 0.7);
    (program, cat, a, b)
}

fn to_update(&(_, row, seed): &Event) -> RankOneUpdate {
    RankOneUpdate::row_update(N, N, row, 0.01, seed)
}

fn input_name(e: &Event) -> &'static str {
    if e.0 == 0 {
        "A"
    } else {
        "B"
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: engine over LocalBackend == ReevalView recomputation.
    #[test]
    fn engine_matches_full_reevaluation(events in event_strategy(), batch in 1usize..6) {
        let (program, cat, a, b) = build_setup();
        let mut reeval =
            ReevalView::build(&program, &[("A", a.clone()), ("B", b.clone())], &cat).unwrap();
        let view = IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap();
        let mut engine = MaintenanceEngine::new(view, FlushPolicy::Count(batch));
        for e in &events {
            let upd = to_update(e);
            reeval.apply(input_name(e), &upd).unwrap();
            engine.ingest(input_name(e), upd).unwrap();
        }
        engine.flush_all().unwrap();
        for view in ["C", "D"] {
            let got = engine.get(view).unwrap();
            let want = reeval.get(view).unwrap();
            prop_assert!(
                got.approx_eq(want, 1e-9),
                "{view} diverged from re-evaluation by {:.2e} (batch {batch})",
                got.max_abs_diff(want)
            );
        }
        prop_assert_eq!(engine.stats().events, events.len() as u64);
    }

    /// Property 2: ThreadedBackend == LocalBackend bit-for-bit, broadcast-only.
    #[test]
    fn threaded_backend_matches_local_bit_for_bit(events in event_strategy(), batch in 1usize..5) {
        let (program, cat, a, b) = build_setup();
        let inputs = [("A", a), ("B", b)];
        let local = IncrementalView::build(&program, &inputs, &cat).unwrap();
        let dist = IncrementalView::build_on(
            ThreadedBackend::new(4).unwrap(),
            &program,
            &inputs,
            &cat,
        )
        .unwrap();
        dist.reset_comm();
        let mut local_engine = MaintenanceEngine::new(local, FlushPolicy::Count(batch));
        let mut dist_engine = MaintenanceEngine::new(dist, FlushPolicy::Count(batch));
        for e in &events {
            local_engine.ingest(input_name(e), to_update(e)).unwrap();
            dist_engine.ingest(input_name(e), to_update(e)).unwrap();
        }
        local_engine.flush_all().unwrap();
        dist_engine.flush_all().unwrap();
        for view in ["A", "B", "C", "D"] {
            // Bit-for-bit: same interpreter, same delta arithmetic.
            prop_assert_eq!(
                dist_engine.get(view).unwrap(),
                local_engine.get(view).unwrap(),
                "{} is not bit-identical across backends",
                view
            );
            prop_assert_eq!(
                &dist_engine.view().backend().view(view).unwrap(),
                local_engine.get(view).unwrap(),
                "worker-owned blocks of {} diverged from local",
                view
            );
        }
        let comm = dist_engine.comm();
        prop_assert!(comm.broadcast_bytes > 0, "no broadcast traffic moved");
        prop_assert_eq!(comm.shuffle_bytes, 0, "incremental path must never shuffle");
        prop_assert_eq!(local_engine.comm().total_bytes(), 0);
    }

    /// Property 4: a joint-flushing engine, a sequential-flushing engine,
    /// and full re-evaluation agree to 1e-9 on every maintained view, for
    /// random policies and event mixes — and joint flushing never fires
    /// more triggers than sequential flushing.
    #[test]
    fn joint_flush_matches_sequential_and_reevaluation(
        events in event_strategy(),
        policy in policy_strategy(),
    ) {
        let (program, cat, a, b) = build_setup();
        let mut reeval =
            ReevalView::build(&program, &[("A", a.clone()), ("B", b.clone())], &cat).unwrap();
        let mut joint = MaintenanceEngine::new(
            IncrementalView::build(&program, &[("A", a.clone()), ("B", b.clone())], &cat)
                .unwrap(),
            policy,
        );
        let mut seq = MaintenanceEngine::new(
            IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap(),
            policy,
        );
        for e in &events {
            let upd = to_update(e);
            reeval.apply(input_name(e), &upd).unwrap();
            joint.ingest(input_name(e), upd.clone()).unwrap();
            seq.ingest(input_name(e), upd).unwrap();
        }
        joint.flush_all().unwrap();
        seq.flush("A").unwrap();
        seq.flush("B").unwrap();
        for view in ["A", "B", "C", "D"] {
            let want = reeval.get(view).unwrap();
            for (label, engine) in [("joint", &joint), ("sequential", &seq)] {
                let got = engine.get(view).unwrap();
                prop_assert!(
                    got.approx_eq(want, 1e-9),
                    "{view} diverged from re-evaluation by {:.2e} under {label} \
                     flushing ({policy:?})",
                    got.max_abs_diff(want)
                );
            }
        }
        prop_assert!(
            joint.stats().firings <= seq.stats().firings,
            "joint flushing fired more triggers ({}) than sequential ({})",
            joint.stats().firings,
            seq.stats().firings
        );
        prop_assert_eq!(
            joint.stats().firings + joint.stats().triggers_saved,
            seq.stats().firings,
            "saved-firings accounting is inconsistent"
        );
        prop_assert_eq!(seq.stats().joint_rounds, 0);
        prop_assert_eq!(
            joint.stats().joint_rounds > 0,
            joint.stats().triggers_saved > 0
        );
        prop_assert_eq!(joint.pending_total(), 0);
        prop_assert_eq!(seq.pending_total(), 0);
    }

    /// Property 5: rank recompression is exact and monotone — for any
    /// (possibly rank-deficient) low-rank delta, folding the recompressed
    /// factors matches folding the originals to 1e-9, and recompression
    /// never increases the rank. Duplicated outer products must be
    /// detected: the recompressed rank is bounded by the span of the
    /// distinct factor columns.
    #[test]
    fn recompress_then_fold_matches_plain_fold(
        pairs in proptest::collection::vec((0u64..4, 0u64..4), 2..7),
        tseed in 0u64..1000,
    ) {
        use linview::matrix::{fold_low_rank, recompress};
        let k = pairs.len();
        let mut u = Matrix::zeros(N, k);
        let mut v = Matrix::zeros(N, k);
        for (j, &(su, sv)) in pairs.iter().enumerate() {
            let cu = Matrix::random_uniform(N, 1, su);
            let cv = Matrix::random_uniform(N, 1, 1000 + sv);
            for i in 0..N {
                u.set(i, j, cu.get(i, 0));
                v.set(i, j, cv.get(i, 0));
            }
        }
        let rc = recompress(&u, &v, 1e-12).unwrap();
        prop_assert_eq!(rc.rank_before, k);
        prop_assert!(rc.rank_after <= k, "recompression increased rank");
        let span = std::cmp::min(
            pairs.iter().map(|p| p.0).collect::<std::collections::BTreeSet<_>>().len(),
            pairs.iter().map(|p| p.1).collect::<std::collections::BTreeSet<_>>().len(),
        );
        prop_assert!(
            rc.rank_after <= span,
            "missed redundancy: rank {} exceeds the {}-dimensional factor span",
            rc.rank_after,
            span
        );
        let mut plain = Matrix::random_spectral(N, tseed, 0.7);
        let mut compressed = plain.clone();
        fold_low_rank(&mut plain, &u, &v, true).unwrap();
        fold_low_rank(&mut compressed, &rc.u, &rc.v, true).unwrap();
        prop_assert!(
            compressed.approx_eq(&plain, 1e-9),
            "recompressed fold diverged by {:.2e}",
            compressed.max_abs_diff(&plain)
        );
    }

    /// Property 3: compact_rows preserves the dense delta for mixed
    /// batches of row updates and dense (non-basis) updates.
    #[test]
    fn row_compaction_preserves_mixed_batches(
        rows in proptest::collection::vec((0usize..N, 0u64..100_000), 1..12),
        dense_seeds in proptest::collection::vec(0u64..100_000, 0..3),
    ) {
        let mut ones: Vec<RankOneUpdate> = rows
            .iter()
            .map(|&(r, s)| RankOneUpdate::row_update(N, N, r, 0.1, s))
            .collect();
        for &s in &dense_seeds {
            ones.push(RankOneUpdate::dense(N, N, 0.1, s));
        }
        let batch = BatchUpdate::from_rank_ones(&ones).unwrap();
        let compact = batch.compact_rows().unwrap();
        prop_assert!(compact.rank() <= batch.rank());
        prop_assert!(
            compact
                .to_dense()
                .unwrap()
                .approx_eq(&batch.to_dense().unwrap(), 1e-12),
            "compaction changed the dense delta"
        );
        let distinct: std::collections::BTreeSet<usize> =
            rows.iter().map(|&(r, _)| r).collect();
        prop_assert_eq!(compact.rank(), distinct.len() + dense_seeds.len());
    }
}

/// Engine-level recompression accounting: duplicated dense updates are
/// shed by the pre-flush recompression pass, the shed rank is recorded in
/// the sparse-execution stats, and the maintained views still match full
/// re-evaluation.
#[test]
fn engine_recompression_sheds_redundant_rank() {
    let (program, cat, a, b) = build_setup();
    let mut reeval =
        ReevalView::build(&program, &[("A", a.clone()), ("B", b.clone())], &cat).unwrap();
    let view = IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap();
    let mut engine = MaintenanceEngine::new(view, FlushPolicy::Count(4));
    // Seeds repeat, so the rank-4 buffered batch is truly rank 2.
    for seed in [7u64, 7, 9, 9] {
        let upd = RankOneUpdate::dense(N, N, 0.01, seed);
        reeval.apply("A", &upd).unwrap();
        engine.ingest("A", upd).unwrap();
    }
    engine.flush_all().unwrap();
    assert!(
        engine.stats().sparse.rank_saved >= 2,
        "recompression shed {} ranks from a half-redundant batch",
        engine.stats().sparse.rank_saved
    );
    for view in ["C", "D"] {
        let got = engine.get(view).unwrap();
        let want = reeval.get(view).unwrap();
        assert!(
            got.approx_eq(want, 1e-9),
            "{view} diverged from re-evaluation by {:.2e} after recompression",
            got.max_abs_diff(want)
        );
    }
}
