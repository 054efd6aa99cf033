//! FLOP-count comparisons measured on the process-global counter.
//!
//! `flops::read()` deltas only mean something while nothing else in the
//! process multiplies matrices, and `cargo test` runs a binary's tests on
//! parallel threads — so both measurements live in the ONE test below: its
//! own process, no siblings.

use linview_compiler::{compile, CompileOptions, Program};
use linview_expr::{Catalog, Expr};
use linview_matrix::{flops, ApproxEq, Matrix};
use linview_runtime::{fire_trigger_with_options, Env, Evaluator, ExecOptions};

#[test]
fn cheaper_plans_execute_fewer_flops() {
    chain_order_saves_flops();
    recompression_exploits_redundant_batch_updates();
}

fn chain_order_saves_flops() {
    let mut env = Env::new();
    let n = 96;
    env.bind("A", Matrix::random_spectral(n, 1, 0.9));
    env.bind("u", Matrix::random_col(n, 2));
    env.bind("v", Matrix::random_col(n, 3));
    let e = Expr::var("u") * Expr::var("v").t() * Expr::var("A");

    flops::reset();
    let _ = Evaluator::with_chain_opt(true).eval(&e, &env).unwrap();
    let with_opt = flops::reset();
    let _ = Evaluator::with_chain_opt(false).eval(&e, &env).unwrap();
    let without = flops::reset();
    // Optimized: two O(n²) matvec-class products. Naive: outer product
    // then O(n³) square product — at least an order of magnitude more.
    assert!(
        with_opt * 10 <= without,
        "chain opt {with_opt} vs naive {without}"
    );
}

fn recompression_exploits_redundant_batch_updates() {
    // A batch of three rank-1 updates hitting the *same* row is
    // syntactically rank 3 but numerically rank 1. Generic updates have
    // numerically tight blocks (rank 2 for Delta B, 4 for Delta C — the
    // Fig. 1 escalation), so the win here comes entirely from spotting
    // the hidden redundancy: block ranks drop 3 -> 1, 6 -> 2, 12 -> 4,
    // and the firing gets strictly cheaper in FLOPs.
    let n = 48;
    let mut cat = Catalog::new();
    cat.declare("A", n, n);
    let mut prog = Program::new();
    prog.assign("B", Expr::var("A") * Expr::var("A"));
    prog.assign("C", Expr::var("B") * Expr::var("B"));
    let tp = compile(&prog, &["A"], &cat, &CompileOptions::default()).unwrap();
    let a = Matrix::random_spectral(n, 7, 0.7);
    let build_env = || {
        let b = a.try_matmul(&a).unwrap();
        let c = b.try_matmul(&b).unwrap();
        let mut env = Env::new();
        env.bind("A", a.clone());
        env.bind("B", b);
        env.bind("C", c);
        env
    };
    let ev = Evaluator::new();
    // Uncompacted batch: three updates to row 3.
    let mut e3 = Matrix::zeros(n, 1);
    e3.set(3, 0, 1.0);
    let du = Matrix::hstack(&[&e3, &e3, &e3]).unwrap();
    let dv = Matrix::hstack(&[
        &Matrix::random_col(n, 8).scale(0.01),
        &Matrix::random_col(n, 9).scale(0.01),
        &Matrix::random_col(n, 10).scale(0.01),
    ])
    .unwrap();

    let run = |opts: &ExecOptions| {
        let mut env = build_env();
        flops::reset();
        fire_trigger_with_options(&mut env, &ev, &tp.triggers[0], &du, &dv, opts).unwrap();
        (flops::read(), env)
    };
    let (plain_flops, plain_env) = run(&ExecOptions::default());
    let (comp_flops, comp_env) = run(&ExecOptions {
        recompress_tol: Some(1e-10),
        ..ExecOptions::default()
    });
    assert!(
        comp_flops < plain_flops,
        "recompressed firing {comp_flops} !< plain {plain_flops}"
    );
    for view in ["A", "B", "C"] {
        assert!(
            comp_env
                .get(view)
                .unwrap()
                .approx_eq(plain_env.get(view).unwrap(), 1e-8),
            "{view} diverged"
        );
    }
}
