//! Static trigger-program analyzer: acceptance and mutation suite.
//!
//! Three contracts are locked here:
//!
//! 1. **Shipped programs are clean** — every trigger program the compiler
//!    produces for the shipped apps (powers / sums / OLS / reach /
//!    pagerank-step) passes all four analyzer passes with zero errors, and
//!    the analyzer's independently re-derived effect sets agree with the
//!    scheduler's on every statement.
//! 2. **Mutations are rejected** — deterministic corruptions of a valid
//!    program (swapped delta-block dims, a dangling view name, a WAW
//!    hazard injected into a parallel stage) each produce the expected
//!    error-severity diagnostic.
//! 3. **Random programs agree** — a proptest sweeps the same random
//!    straight-line generator as `tests/scheduler.rs` through compile +
//!    analyze: no errors, and `analyze::derive_effects` matches
//!    `schedule.rs` effect sets exactly.

use linview::compiler::{
    analyze_joint, analyze_program, compile_joint, derive_effects, verify_stages, AnalyzeOptions,
    AnalyzerPass, Severity, StmtDag, Trigger, TriggerProgram, TriggerStmt,
};
use linview::prelude::*;
use proptest::prelude::*;

/// The shipped app programs, mirroring `tests/scheduler.rs::cases()` (the
/// matrices are irrelevant here — the analyzer is static).
fn shipped() -> Vec<(&'static str, Program, Catalog, Vec<&'static str>)> {
    let n = 12;
    let square = |name: &str| {
        let mut cat = Catalog::new();
        cat.declare(name, n, n);
        cat
    };
    let mut out = Vec::new();

    let (program, _) = linview::apps::powers::powers_program(IterModel::Exponential, 4);
    out.push(("powers", program, square("A"), vec!["A"]));

    let (program, _) = linview::apps::sums::sums_program(IterModel::Linear, 4, n);
    out.push(("sums", program, square("A"), vec!["A"]));

    let mut cat = Catalog::new();
    cat.declare("X", n, 4);
    cat.declare("Y", n, 1);
    out.push((
        "ols",
        parse_program("beta := inv(X' * X) * X' * Y;").unwrap(),
        cat,
        vec!["X", "Y"],
    ));

    let (sums, final_sum) = linview::apps::sums::sums_program(IterModel::Exponential, 4, n);
    let mut program = Program::new();
    for stmt in sums.statements() {
        program.assign(stmt.target.clone(), stmt.expr.clone());
    }
    program.assign("R", Expr::var("A") * Expr::var(final_sum));
    out.push(("reach", program, square("A"), vec!["A"]));

    let mut cat = Catalog::new();
    cat.declare("M", n, n);
    cat.declare("R0", n, 1);
    out.push((
        "pagerank-step",
        parse_program("R1 := M * R0; R2 := M * R1; R3 := M * R2;").unwrap(),
        cat,
        vec!["M", "R0"],
    ));

    out
}

fn compile_app(program: &Program, cat: &Catalog, inputs: &[&str]) -> (Program, TriggerProgram) {
    let normalized = program.hoist_inverses(inputs);
    let tp = compile(&normalized, inputs, cat, &CompileOptions::default())
        .expect("shipped program compiles");
    (normalized, tp)
}

#[test]
fn every_shipped_program_passes_all_passes() {
    for (name, program, cat, inputs) in shipped() {
        let (normalized, tp) = compile_app(&program, &cat, &inputs);
        let report = analyze_program(
            &tp,
            &AnalyzeOptions {
                program: Some(&normalized),
                ..Default::default()
            },
        );
        assert!(
            !report.has_errors(),
            "{name}: expected a clean report, got:\n{report}"
        );
        assert_eq!(report.triggers.len(), tp.triggers.len(), "{name}");
        for fact in &report.triggers {
            assert!(fact.stages > 0, "{name}: no verified stages");
            assert!(fact.cost.flops > 0.0, "{name}: zero cost estimate");
            assert!(fact.cost.wire_bytes > 0, "{name}: zero wire bytes");
        }
    }
}

#[test]
fn analyzer_effect_sets_match_scheduler_on_shipped_programs() {
    for (name, program, cat, inputs) in shipped() {
        let (_, tp) = compile_app(&program, &cat, &inputs);
        for trigger in &tp.triggers {
            let dag = trigger.dag().expect("shipped trigger schedules");
            assert_eq!(
                derive_effects(&trigger.stmts),
                dag.effects().to_vec(),
                "{name}/{}: independent effect derivation disagrees with schedule.rs",
                trigger.input
            );
        }
    }
}

#[test]
fn joint_trigger_passes_all_passes() {
    let mut cat = Catalog::new();
    cat.declare("A", 8, 8);
    cat.declare("B", 8, 8);
    let program = parse_program("C := A * B; D := C * C;").unwrap();
    let joint = compile_joint(&program, &["A", "B"], &cat, &CompileOptions::default())
        .expect("joint compiles");
    let report = analyze_joint(
        &joint,
        &AnalyzeOptions {
            program: Some(&program),
            ..Default::default()
        },
    );
    assert!(!report.has_errors(), "{report}");
}

#[test]
fn swapped_delta_dims_are_rejected_with_a_shape_diagnostic() {
    let (_, program, cat, inputs) = shipped().remove(0); // powers
    let (_, mut tp) = compile_app(&program, &cat, &inputs);
    // Transpose the input delta block's declared dims (12x1 -> 1x12):
    // every GEMM and `+=` fold touching dU_A stops conforming.
    let d = tp.catalog.get("dU_A").unwrap();
    tp.catalog.declare("dU_A", d.cols, d.rows);
    let report = analyze_program(&tp, &AnalyzeOptions::default());
    let err = report.first_error().expect("swapped dims must be rejected");
    assert_eq!(err.pass, AnalyzerPass::Shape, "{err}");
    assert_eq!(err.severity, Severity::Error);
    assert!(err.stmt.is_some(), "diagnostic pins the statement: {err}");
    assert!(err.suggestion.is_some(), "diagnostic carries a hint: {err}");
}

#[test]
fn dangling_view_name_is_rejected_with_a_shape_diagnostic() {
    let (_, program, cat, inputs) = shipped().remove(0); // powers
    let (_, mut tp) = compile_app(&program, &cat, &inputs);
    // Corrupt the first compute statement to read an undeclared matrix.
    let stmt = tp.triggers[0]
        .stmts
        .iter_mut()
        .find_map(|s| match s {
            TriggerStmt::Assign { expr, .. } => Some(expr),
            _ => None,
        })
        .expect("powers trigger has an Assign");
    *stmt = Expr::var("ghost") * stmt.clone();
    let report = analyze_program(&tp, &AnalyzeOptions::default());
    let err = report
        .first_error()
        .expect("dangling name must be rejected");
    assert_eq!(err.pass, AnalyzerPass::Shape, "{err}");
    assert!(err.message.contains("ghost"), "{err}");
}

#[test]
fn waw_hazard_injected_into_a_stage_is_rejected() {
    // Two `+=` folds of the same view forced into one parallel stage by a
    // hand-built (empty-predecessor) DAG: the disjointness pass must
    // refuse what `apply_stage` would race on.
    let trigger = Trigger {
        input: "A".into(),
        update_rank: 1,
        stmts: vec![
            TriggerStmt::ApplyDelta {
                target: "V".into(),
                u: Expr::var("u1"),
                v: Expr::var("v1"),
            },
            TriggerStmt::ApplyDelta {
                target: "V".into(),
                u: Expr::var("u2"),
                v: Expr::var("v2"),
            },
        ],
    };
    let effects = derive_effects(&trigger.stmts);
    let dag = StmtDag::from_preds(effects, vec![vec![], vec![]]).unwrap();
    let diags = verify_stages(&trigger, &dag);
    assert!(
        diags.iter().any(|d| {
            d.severity == Severity::Error
                && d.pass == AnalyzerPass::Disjointness
                && d.message.contains("hazard")
        }),
        "expected a same-stage hazard error, got {diags:?}"
    );
}

#[test]
fn seeded_ill_formed_program_is_denied_at_compile_time() {
    // Deny-by-default: the analyzer runs inside `compile`, so a program
    // with a dimension-inconsistent sum never reaches a backend.
    let mut cat = Catalog::new();
    cat.declare("A", 4, 4);
    cat.declare("B", 5, 5);
    let program = parse_program("C := A + B;").unwrap();
    let err = compile(&program, &["A"], &cat, &CompileOptions::default())
        .expect_err("ill-formed program must be denied");
    let text = err.to_string();
    assert!(
        text.contains("dimension mismatch") || text.contains("static analysis"),
        "unexpected denial: {text}"
    );
}

/// The random straight-line generator from `tests/scheduler.rs`: each
/// statement multiplies two previously-available matrices.
fn random_program(shape: &[u8]) -> Program {
    let mut program = Program::new();
    let mut avail: Vec<String> = vec!["A".into()];
    for (i, &kind) in shape.iter().enumerate() {
        let target = format!("T{i}");
        let last = avail.last().unwrap().clone();
        let first = avail[0].clone();
        let expr = match kind % 3 {
            0 => Expr::var(&last) * Expr::var(&last),
            1 => Expr::var(&first) * Expr::var(&last),
            _ => Expr::var(&last) * Expr::var(&first),
        };
        program.assign(&target, expr);
        avail.push(target);
    }
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_programs_analyze_clean_and_effects_agree(
        shape in proptest::collection::vec(0u8..3, 1..6),
        n in 4usize..16,
    ) {
        let program = random_program(&shape);
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let tp = compile(&program, &["A"], &cat, &CompileOptions::default()).unwrap();
        let report = analyze_program(
            &tp,
            &AnalyzeOptions { program: Some(&program), ..Default::default() },
        );
        prop_assert!(!report.has_errors(), "random program flagged:\n{report}");
        for trigger in &tp.triggers {
            let dag = trigger.dag().unwrap();
            prop_assert_eq!(derive_effects(&trigger.stmts), dag.effects().to_vec());
        }
    }

    #[test]
    fn random_programs_with_swapped_delta_dims_are_rejected(
        shape in proptest::collection::vec(0u8..3, 1..6),
        n in 4usize..16,
    ) {
        let program = random_program(&shape);
        let mut cat = Catalog::new();
        cat.declare("A", n, n);
        let mut tp = compile(&program, &["A"], &cat, &CompileOptions::default()).unwrap();
        // n x 1 -> 1 x n: no statement reading dU_A conforms any more.
        let d = tp.catalog.get("dU_A").unwrap();
        tp.catalog.declare("dU_A", d.cols, d.rows);
        let report = analyze_program(&tp, &AnalyzeOptions::default());
        let err = report.first_error();
        prop_assert!(err.is_some(), "swapped dims not caught");
        prop_assert_eq!(err.unwrap().pass, AnalyzerPass::Shape);
    }
}

#[test]
fn ols_v_beta_is_priced_in_its_row_vector_association() {
    // `ols_batch`'s shapes: X is 512×256 and a firing has rank 13, so the
    // Woodbury factors U_W, V_W are 256×26. `V_beta` was
    // `Y' [ X V_W | dU_X ]`, priced 6 876 160: `X V_W` (2·512·256·26 =
    // 6 815 744), `Y'` times the 512×39 stack (39 936), forming the stack
    // (19 968) and `Y'` (512). It is `[ Y' X V_W | Y' dU_X ]` now, run as
    // `(Y'X) V_W`: 262 144 + 13 312 for that chain, 13 312 for `Y' dU_X`,
    // two `Y'` (1 024) and the 1×39 stack (39) — 289 831, so the trigger
    // falls from 33 235 200 to 26 648 871 FLOPs per firing.
    let program = parse_program("Z := X' * X; W := inv(Z); beta := W * X' * Y;").unwrap();
    let mut cat = Catalog::new();
    cat.declare("X", 512, 256);
    cat.declare("Y", 512, 1);
    let normalized = program.hoist_inverses(&["X"]);
    let opts = CompileOptions {
        update_rank: 13,
        ..CompileOptions::default()
    };
    let mut tp = compile(&normalized, &["X"], &cat, &opts).unwrap();
    linview::compiler::optimizer::optimize(&mut tp, &Default::default()).unwrap();
    let v_beta = tp.triggers[0]
        .stmts
        .iter()
        .find_map(|s| match s {
            TriggerStmt::Assign { var, expr } if var == "V_beta" => Some(expr.to_string()),
            _ => None,
        })
        .expect("the X trigger assigns V_beta");
    assert_eq!(v_beta, "[ Y' X V_W | Y' dU_X ]");
    let report = analyze_program(
        &tp,
        &AnalyzeOptions {
            program: Some(&normalized),
            ..Default::default()
        },
    );
    assert_eq!(
        report.triggers[0].cost.flops,
        33_235_200.0 - (6_876_160.0 - 289_831.0)
    );
}

#[test]
fn analyzer_sparse_crossover_matches_the_kernel_crate() {
    // The compiler prices sparse folds without depending on the kernel
    // crate, so it carries its own copy of the crossover density.
    assert_eq!(
        linview::compiler::analyze::SPARSE_FOLD_CROSSOVER,
        linview::matrix::SPARSE_FOLD_CROSSOVER
    );
}
