//! FLOP-count claims measured on the process-global counter.
//!
//! `flops::read()` deltas only mean something while nothing else in the
//! process multiplies matrices, and `cargo test` runs a binary's tests on
//! parallel threads — so both measurements live in the ONE test below: its
//! own process, no siblings.

use linview::apps::powers::{IncrPowers, ReevalPowers};
use linview::compiler::{compile, CompileOptions};
use linview::expr::cost::CostModel;
use linview::matrix::flops;
use linview::prelude::*;

#[test]
fn incremental_flop_claims_hold() {
    incremental_beats_reevaluation_in_flops();
    trigger_cost_model_predicts_measured_flops_within_factor();
}

fn incremental_beats_reevaluation_in_flops() {
    // The core claim, stated in operation counts rather than wall time:
    // for A^16 (exp model), one incremental refresh does at least 5x fewer
    // FLOPs than one re-evaluation at n = 128.
    let n = 128;
    let k = 16;
    let a = Matrix::random_spectral(n, 9, 0.9);
    let mut reeval = ReevalPowers::new(a.clone(), IterModel::Exponential, k).unwrap();
    let mut incr = IncrPowers::new(a, IterModel::Exponential, k).unwrap();
    let upd = RankOneUpdate::row_update(n, n, 3, 0.01, 13);

    flops::reset();
    reeval.apply(&upd).unwrap();
    let reeval_flops = flops::reset();
    incr.apply(&upd).unwrap();
    let incr_flops = flops::reset();
    assert!(
        incr_flops * 5 < reeval_flops,
        "INCR {incr_flops} flops !<< REEVAL {reeval_flops} flops"
    );
}

fn trigger_cost_model_predicts_measured_flops_within_factor() {
    // The symbolic cost model and the kernel counters must agree on the
    // order of magnitude of a trigger firing (they use the same chain
    // ordering).
    let program = parse_program("B := A * A; C := B * B;").unwrap();
    let n = 96;
    let mut cat = Catalog::new();
    cat.declare("A", n, n);
    let tp = compile(&program, &["A"], &cat, &CompileOptions::default()).unwrap();
    let predicted = tp.cost(&CostModel::cubic()).unwrap();

    let a = Matrix::random_spectral(n, 25, 0.9);
    let mut incr = IncrementalView::build(&program, &[("A", a)], &cat).unwrap();
    let upd = RankOneUpdate::row_update(n, n, 5, 0.01, 29);
    flops::reset();
    incr.apply("A", &upd).unwrap();
    let measured = flops::reset() as f64;
    let ratio = measured / predicted;
    assert!(
        (0.2..5.0).contains(&ratio),
        "cost model off by more than 5x: predicted {predicted}, measured {measured}"
    );
}
