//! Long-stream numerical-drift tests: incremental maintenance accumulates
//! floating-point error relative to re-evaluation; these tests bound that
//! drift over hundreds of updates on preconditioned inputs (mirroring the
//! paper's "preconditioned appropriately for numerical stability").

use linview::apps::general::{GeneralForm, Strategy};
use linview::apps::ols::{CholOls, IncrOls, ReevalOls};
use linview::apps::powers::{IncrPowers, ReevalPowers};
use linview::prelude::*;
use linview::runtime::{FlushPolicy, MaintenanceEngine};

#[test]
fn powers_drift_stays_bounded_over_200_updates() {
    let n = 20;
    let k = 16;
    let a = Matrix::random_spectral(n, 3, 0.7);
    let mut reeval = ReevalPowers::new(a.clone(), IterModel::Exponential, k).unwrap();
    let mut incr = IncrPowers::new(a, IterModel::Exponential, k).unwrap();
    let mut stream = UpdateStream::new(n, n, 0.005, 5);
    for i in 0..200 {
        let upd = stream.next_rank_one();
        reeval.apply(&upd).unwrap();
        incr.apply(&upd).unwrap();
        if i % 50 == 49 {
            let drift = incr.result().rel_diff(reeval.result());
            assert!(drift < 1e-6, "drift {drift} at update {i}");
        }
    }
}

#[test]
fn ols_sherman_morrison_drift_over_150_updates() {
    let n = 16;
    let x = Matrix::random_diag_dominant(n, 7);
    let y = Matrix::random_col(n, 8);
    let mut reeval = ReevalOls::new(x.clone(), y.clone()).unwrap();
    let mut incr = IncrOls::new(x, y).unwrap();
    let mut stream = UpdateStream::new(n, n, 0.0005, 9);
    for _ in 0..150 {
        let upd = stream.next_rank_one();
        reeval.apply(&upd).unwrap();
        incr.apply(&upd).unwrap();
    }
    let drift = incr.beta().rel_diff(reeval.beta());
    assert!(drift < 1e-5, "OLS drift {drift}");
}

#[test]
fn general_form_strategies_stay_mutually_consistent() {
    let n = 14;
    let p = 2;
    let k = 8;
    let a = Matrix::random_spectral(n, 11, 0.7);
    let b = Matrix::random_uniform(n, p, 12);
    let t0 = Matrix::random_uniform(n, p, 13);
    let mut views: Vec<GeneralForm> = [Strategy::Reeval, Strategy::Incremental, Strategy::Hybrid]
        .into_iter()
        .map(|s| {
            GeneralForm::new(a.clone(), b.clone(), t0.clone(), IterModel::Skip(2), k, s).unwrap()
        })
        .collect();
    let mut stream = UpdateStream::new(n, n, 0.005, 15);
    for _ in 0..100 {
        let upd = stream.next_rank_one();
        for v in &mut views {
            v.apply(&upd).unwrap();
        }
    }
    let reference = views[0].result().clone();
    for v in &views[1..] {
        assert!(v.result().rel_diff(&reference) < 1e-6);
    }
}

#[test]
fn cholesky_ols_drifts_no_worse_than_sherman_morrison() {
    // The CholOls extension exists for numerical robustness: over a long
    // stream it must stay at least as close to the ground truth (a fresh
    // direct solve) as the inverse-maintaining trigger.
    let n = 16;
    let x = Matrix::random_diag_dominant(n, 23);
    let y = Matrix::random_col(n, 24);
    let mut sm = IncrOls::new(x.clone(), y.clone()).unwrap();
    let mut ch = CholOls::new(x.clone(), y.clone()).unwrap();
    let mut x_ref = x;
    let mut stream = UpdateStream::new(n, n, 0.0005, 25);
    for _ in 0..300 {
        let upd = stream.next_rank_one();
        sm.apply(&upd).unwrap();
        ch.apply(&upd).unwrap();
        upd.apply_to(&mut x_ref).unwrap();
    }
    // Ground truth by direct solve from the final X.
    let z = x_ref.transpose().try_matmul(&x_ref).unwrap();
    let truth = z
        .inverse()
        .unwrap()
        .try_matmul(&x_ref.transpose().try_matmul(&y).unwrap())
        .unwrap();
    let sm_err = sm.beta().rel_diff(&truth);
    let ch_err = ch.beta().rel_diff(&truth);
    assert!(ch_err < 1e-6, "CholOls drift {ch_err}");
    assert!(
        ch_err <= sm_err * 10.0,
        "CholOls ({ch_err}) catastrophically worse than S-M ({sm_err})"
    );
}

#[test]
fn recompression_does_not_add_drift_over_long_streams() {
    // The engine's SVD recompression pass must be numerically transparent:
    // a view it maintains tracks the plain incremental view to the same
    // tolerance over a long stream. Each batch is two dense events sent
    // twice (rank 4, numerically rank 2), which row compaction cannot
    // merge, so the pass sheds rank on every flush.
    let n = 24;
    let program = parse_program("B := A * A; C := B * B;").unwrap();
    let mut cat = Catalog::new();
    cat.declare("A", n, n);
    let a = Matrix::random_spectral(n, 29, 0.7);
    let mut plain = IncrementalView::build(&program, &[("A", a.clone())], &cat).unwrap();
    let compressed = IncrementalView::build(&program, &[("A", a)], &cat).unwrap();
    let mut engine = MaintenanceEngine::new(compressed, FlushPolicy::Count(4));
    for i in 0..100u64 {
        let events: Vec<RankOneUpdate> = [31 + 4 * i, 31 + 4 * i, 33 + 4 * i, 33 + 4 * i]
            .iter()
            .map(|&seed| RankOneUpdate::dense(n, n, 0.005, seed))
            .collect();
        plain
            .apply_batch("A", &BatchUpdate::from_rank_ones(&events).unwrap())
            .unwrap();
        for upd in events {
            engine.ingest("A", upd).unwrap();
        }
    }
    assert_eq!(engine.stats().firings, 100);
    assert!(
        engine.stats().sparse.rank_saved > 0,
        "the root pass shed no rank from redundant batches"
    );
    let drift = engine.get("C").unwrap().rel_diff(plain.get("C").unwrap());
    assert!(drift < 1e-7, "recompression drift {drift}");
}

#[test]
fn convergent_iteration_horizon_is_stable_under_noise() {
    // Tiny updates must not cause the adaptive horizon to oscillate wildly
    // (a brittle stopping rule would thrash between extension/truncation).
    let n = 20;
    let m = Matrix::random_stochastic(n, 33).transpose();
    let a = m.scale(0.85);
    let b = Matrix::filled(n, 1, 0.15 / n as f64);
    let mut t0 = Matrix::zeros(n, 1);
    t0.set(0, 0, 1.0);
    let mut it = ConvergentIteration::new(a, b, t0, 1e-8, 10_000).unwrap();
    let k0 = it.iterations() as i64;
    let mut stream = UpdateStream::new(n, n, 1e-6, 35);
    for _ in 0..20 {
        it.apply(&stream.next_rank_one()).unwrap();
        let k = it.iterations() as i64;
        assert!((k - k0).abs() <= 2, "horizon jumped {k0} -> {k}");
    }
}

#[test]
fn zero_magnitude_update_is_identity() {
    // A zero delta must leave every view bit-for-bit unchanged up to the
    // additive identity (x + 0 = x exactly in IEEE).
    let n = 12;
    let a = Matrix::random_spectral(n, 17, 0.8);
    let mut incr = IncrPowers::new(a, IterModel::Exponential, 8).unwrap();
    let before = incr.result().clone();
    let zero = RankOneUpdate {
        u: Matrix::zeros(n, 1),
        v: Matrix::zeros(n, 1),
    };
    incr.apply(&zero).unwrap();
    assert_eq!(incr.result(), &before);
}

#[test]
fn large_single_update_still_tracks_reevaluation() {
    // Incremental maintenance is exact algebra — even a large (not small)
    // perturbation must be tracked, not just ε-sized ones.
    let n = 12;
    let a = Matrix::random_spectral(n, 19, 0.5);
    let mut reeval = ReevalPowers::new(a.clone(), IterModel::Exponential, 8).unwrap();
    let mut incr = IncrPowers::new(a, IterModel::Exponential, 8).unwrap();
    let upd = RankOneUpdate::dense(n, n, 0.5, 21);
    reeval.apply(&upd).unwrap();
    incr.apply(&upd).unwrap();
    assert!(incr.result().approx_eq(reeval.result(), 1e-9));
}
