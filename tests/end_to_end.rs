//! End-to-end integration tests: frontend → Algorithm 1 → optimizer →
//! codegen → runtime execution, validated against full re-evaluation, plus
//! cross-validation between two compiled programs for the same view (the
//! powers app's and the general form's) and the direct re-evaluation.

use linview::apps::general::{GeneralForm, Strategy};
use linview::apps::powers::{IncrPowers, ReevalPowers};
use linview::compiler::codegen::{octave, plan};
use linview::compiler::optimizer::{optimize, OptimizerOptions};
use linview::compiler::{compile, CompileOptions};
use linview::expr::cost::CostModel;
use linview::prelude::*;

#[test]
fn full_pipeline_a8_example_4_4() {
    // Parse the A^8 program of Example 4.4 (B, C, D = A^8).
    let program = parse_program("B := A * A; C := B * B; D := C * C;").unwrap();
    let n = 24;
    let mut cat = Catalog::new();
    cat.declare("A", n, n);

    // Compile and check §4.3's rank growth: ΔB/ΔC/ΔD blocks are 2/4/8 wide.
    let mut tp = compile(&program, &["A"], &cat, &CompileOptions::default()).unwrap();
    assert_eq!(tp.catalog.get("U_B").unwrap().cols, 2);
    assert_eq!(tp.catalog.get("U_C").unwrap().cols, 4);
    assert_eq!(tp.catalog.get("U_D").unwrap().cols, 8);

    // Optimize; the trigger must stay semantically identical.
    optimize(&mut tp, &OptimizerOptions::default()).unwrap();

    // Execute both strategies over an update stream.
    let a = Matrix::random_spectral(n, 3, 0.8);
    let mut reeval = ReevalView::build(&program, &[("A", a.clone())], &cat).unwrap();
    let mut incr = IncrementalView::build(&program, &[("A", a)], &cat).unwrap();
    let mut stream = UpdateStream::new(n, n, 0.01, 7);
    for _ in 0..15 {
        let upd = stream.next_rank_one();
        reeval.apply("A", &upd).unwrap();
        incr.apply("A", &upd).unwrap();
    }
    assert!(incr
        .get("D")
        .unwrap()
        .approx_eq(reeval.get("D").unwrap(), 1e-7));
}

#[test]
fn optimized_trigger_executes_identically() {
    let program = parse_program("B := A * A; C := B * B;").unwrap();
    let n = 16;
    let mut cat = Catalog::new();
    cat.declare("A", n, n);
    let tp = compile(&program, &["A"], &cat, &CompileOptions::default()).unwrap();
    let mut tp_opt = tp.clone();
    optimize(&mut tp_opt, &OptimizerOptions::default()).unwrap();

    let a = Matrix::random_spectral(n, 5, 0.8);
    let b0 = a.try_matmul(&a).unwrap();
    let c0 = b0.try_matmul(&b0).unwrap();
    let build_env = || {
        let mut env = Env::new();
        env.bind("A", a.clone());
        env.bind("B", b0.clone());
        env.bind("C", c0.clone());
        env
    };
    let mut env1 = build_env();
    let mut env2 = build_env();
    let upd = RankOneUpdate::row_update(n, n, 4, 0.02, 11);
    let ev = Evaluator::new();
    linview::runtime::fire_trigger(&mut env1, &ev, &tp.triggers[0], &upd.u, &upd.v).unwrap();
    linview::runtime::fire_trigger(&mut env2, &ev, &tp_opt.triggers[0], &upd.u, &upd.v).unwrap();
    assert!(env1
        .get("C")
        .unwrap()
        .approx_eq(env2.get("C").unwrap(), 1e-10));
}

#[test]
fn compiled_triggers_agree_with_appendix_recurrences() {
    // Two different programs for the same view, both compiled by
    // Algorithm 1: the powers app's `P8 := P4 P4` chain and the general
    // form's `T_i := P_h T_h + S_h B` with B = 0, p = n, T0 = I, so that
    // T_k = A^k (the Appendix A recurrences appear inside the latter's
    // trigger). The independent reference is the direct re-evaluation.
    let n = 16;
    let k = 8;
    let a = Matrix::random_spectral(n, 15, 0.8);
    let mut reeval = ReevalPowers::new(a.clone(), IterModel::Exponential, k).unwrap();
    let mut compiled = IncrPowers::new(a.clone(), IterModel::Exponential, k).unwrap();
    let mut appendix = GeneralForm::new(
        a.clone(),
        Matrix::zeros(n, n),
        Matrix::identity(n),
        IterModel::Exponential,
        k,
        Strategy::Incremental,
    )
    .unwrap();
    let mut stream = UpdateStream::new(n, n, 0.01, 17);
    for _ in 0..10 {
        let upd = stream.next_rank_one();
        reeval.apply(&upd).unwrap();
        compiled.apply(&upd).unwrap();
        appendix.apply(&upd).unwrap();
    }
    assert!(compiled.result().approx_eq(appendix.result(), 1e-8));
    assert!(compiled.result().approx_eq(reeval.result(), 1e-8));
    assert!(appendix.result().approx_eq(reeval.result(), 1e-8));
}

#[test]
fn octave_and_plan_backends_render_compiled_programs() {
    let program = parse_program("Z := X' * X; W := inv(Z); beta := W * X' * Y;").unwrap();
    let mut cat = Catalog::new();
    cat.declare("X", 32, 8);
    cat.declare("Y", 32, 1);
    let tp = compile(&program, &["X"], &cat, &CompileOptions::default()).unwrap();

    let oct = octave::emit_program(&tp);
    assert!(oct.contains("function ["));
    assert!(oct.contains("for sm_i = 1:columns("));

    let pl = plan::render_program(&tp, &CostModel::cubic()).unwrap();
    assert!(pl.contains("S-M steps"));
    assert!(pl.contains("-- total:"));
}

#[test]
fn multi_input_program_with_mixed_updates() {
    // C := A·B + B·A with both inputs dynamic; alternate updates.
    let program = parse_program("C := A * B + B * A;").unwrap();
    let n = 12;
    let mut cat = Catalog::new();
    cat.declare("A", n, n);
    cat.declare("B", n, n);
    let a = Matrix::random_spectral(n, 19, 0.8);
    let b = Matrix::random_spectral(n, 20, 0.8);
    let mut reeval =
        ReevalView::build(&program, &[("A", a.clone()), ("B", b.clone())], &cat).unwrap();
    let mut incr = IncrementalView::build(&program, &[("A", a), ("B", b)], &cat).unwrap();
    let mut stream = UpdateStream::new(n, n, 0.01, 23);
    for i in 0..12 {
        let upd = stream.next_rank_one();
        let target = if i % 3 == 0 { "B" } else { "A" };
        reeval.apply(target, &upd).unwrap();
        incr.apply(target, &upd).unwrap();
    }
    assert!(incr
        .get("C")
        .unwrap()
        .approx_eq(reeval.get("C").unwrap(), 1e-8));
}
