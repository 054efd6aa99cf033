//! Firing plans: a trigger lowered to flat vectors, then executed.
//!
//! Lowering a [`Trigger`] fixes everything about a firing that does not
//! depend on matrix *values*: every block variable the body defines (and
//! the incoming `dU_X`/`dV_X` factors) gets an integer slot, every
//! expression becomes a lowered tree with its chain associations chosen
//! ([`Evaluator::lower`]), the dependency DAG is analyzed into stages, and
//! each `X += U V'` over bare blocks is marked so the firing can *move*
//! the blocks into the fold instead of copying them. The statement
//! interpreter then walks flat vectors: no `String`-keyed binding of
//! temporaries, no name lookups, no shape checks while multiplying.
//!
//! [`TriggerPlan::lower`] is the only lowering; every firing runs exactly
//! one. A plan is specialized to the shapes it was lowered against (the
//! rank of the fired update sets block widths, and with them allocation
//! sizes and chain associations), so a firing lowers its trigger afresh.
//! At `n = 512` on a 2-vCPU host, the p50 of 2000 lowerings after a
//! warm-up, over five runs: 33–56 µs for the 16-statement `A¹⁶` EXP body
//! (the benchmark's `powers_point`), of which `StmtDag::analyze` is
//! 14–23 µs; 234–325 µs for the 49-statement LIN body, of which
//! `StmtDag::analyze` is 159–215 µs. Keeping plans across firings was
//! tried when a firing still cost 3.1 ms (a content-keyed cache on the
//! evaluator) and did not move `refresh_p50_ms` beyond run-to-run spread,
//! so there is none.

use linview_compiler::{StmtDag, Trigger, TriggerStmt};
use linview_expr::delta::input_delta_names;
use linview_expr::{Dim, ExprError};
use linview_matrix::Matrix;

use crate::eval::{Node, Scope};
use crate::{Env, Evaluator, Result};

/// One factored input update of a firing: `(input, dU, dV)`.
pub(crate) type Update<'a> = (&'a str, &'a Matrix, &'a Matrix);

/// A lowered trigger statement.
#[derive(Debug)]
pub(crate) struct Step {
    pub(crate) kind: StepKind,
    /// Slots the statement reads, one entry per reference.
    pub(crate) reads: Vec<usize>,
}

impl Step {
    /// True for a fold over two bare blocks: assembled at the stage
    /// barrier, never evaluated.
    pub(crate) fn is_fold(&self) -> bool {
        matches!(self.kind, StepKind::FoldBlocks { .. })
    }
}

#[derive(Debug)]
pub(crate) enum StepKind {
    /// `slot := expr`.
    Assign { slot: usize, expr: Node },
    /// `(out_u, out_v) := sherman_morrison(w, p, q)`.
    ShermanMorrison {
        w: Node,
        p: Node,
        q: Node,
        out_u: usize,
        out_v: usize,
    },
    /// `target += u vᵀ` with factors that need evaluating.
    ApplyDelta { target: String, u: Node, v: Node },
    /// `target += U Vᵀ` over two bare blocks: nothing to evaluate, the
    /// blocks are handed to the fold (moved, once nothing reads them).
    FoldBlocks { target: String, u: usize, v: usize },
}

/// A trigger lowered against one firing's shapes.
#[derive(Debug)]
pub(crate) struct TriggerPlan {
    /// Environment matrices the body reads, in `Kind::Env` order.
    pub(crate) ext_names: Vec<String>,
    /// References to each block slot across the whole body (one entry
    /// per slot a firing needs).
    pub(crate) slot_reads: Vec<u32>,
    /// One step per statement, in program order.
    pub(crate) steps: Vec<Step>,
    /// Topological stages of the dependency DAG (statement indices), or
    /// why the body has none.
    pub(crate) stages: std::result::Result<Vec<Vec<usize>>, ExprError>,
}

impl TriggerPlan {
    /// Lowers `trigger` for `updates` against the matrices bound in `env`:
    /// the `dU_X`/`dV_X` factors of `updates` take slots `2i` and `2i + 1`,
    /// and each statement defines the slots it writes.
    pub(crate) fn lower(
        ev: &Evaluator,
        trigger: &Trigger,
        updates: &[Update<'_>],
        env: &Env,
    ) -> Result<TriggerPlan> {
        let mut scope = Scope::default();
        for (input, du, dv) in updates {
            let (du_name, dv_name) = input_delta_names(input);
            scope.slot(&du_name, Dim::new(du.rows(), du.cols()));
            scope.slot(&dv_name, Dim::new(dv.rows(), dv.cols()));
        }
        let mut steps = Vec::with_capacity(trigger.stmts.len());
        for stmt in &trigger.stmts {
            let kind = match stmt {
                TriggerStmt::Assign { var, expr } => {
                    let expr = ev.lower(expr, &mut scope, env)?;
                    StepKind::Assign {
                        slot: scope.slot(var, expr.dim),
                        expr,
                    }
                }
                TriggerStmt::ShermanMorrison {
                    inv_var,
                    p,
                    q,
                    out_u,
                    out_v,
                } => {
                    let w = scope.lookup(inv_var, env)?;
                    let p = ev.lower(p, &mut scope, env)?;
                    let q = ev.lower(q, &mut scope, env)?;
                    let block = Dim::new(w.dim.rows, p.dim.cols);
                    StepKind::ShermanMorrison {
                        out_u: scope.slot(out_u, block),
                        out_v: scope.slot(out_v, block),
                        w,
                        p,
                        q,
                    }
                }
                TriggerStmt::ApplyDelta { target, u, v } => {
                    let u = ev.lower(u, &mut scope, env)?;
                    let v = ev.lower(v, &mut scope, env)?;
                    let target = target.clone();
                    match (u.as_slot(), v.as_slot()) {
                        (Some(u), Some(v)) => StepKind::FoldBlocks { target, u, v },
                        _ => StepKind::ApplyDelta { target, u, v },
                    }
                }
            };
            steps.push(Step {
                kind,
                reads: std::mem::take(&mut scope.slot_reads),
            });
        }
        let mut slot_reads = vec![0u32; scope.slots.len()];
        for &slot in steps.iter().flat_map(|s| &s.reads) {
            slot_reads[slot] += 1;
        }
        let stages = StmtDag::analyze(&trigger.stmts).map(|dag| dag.stages().to_vec());
        #[cfg(debug_assertions)]
        if let Ok(stages) = &stages {
            assert_stage_writes_are_proved(trigger, stages);
        }
        Ok(TriggerPlan {
            ext_names: scope.ext_names,
            slot_reads,
            steps,
            stages,
        })
    }
}

/// The statically-proved write sets are the contract `apply_stage`
/// soundness rests on: every stage folds pairwise-distinct views, and only
/// views the analyzer proved the stage writes. A divergence here is a
/// scheduler or analyzer bug, not a data error.
#[cfg(debug_assertions)]
fn assert_stage_writes_are_proved(trigger: &Trigger, stages: &[Vec<usize>]) {
    let proved = linview_compiler::analyze::derive_effects(&trigger.stmts);
    for stage in stages {
        let mut seen = std::collections::BTreeSet::new();
        for &i in stage {
            if let TriggerStmt::ApplyDelta { target, .. } = &trigger.stmts[i] {
                assert!(
                    seen.insert(target.as_str()),
                    "stage writes view '{target}' twice; statically-proved stage writes \
                     must be pairwise disjoint"
                );
                assert!(
                    proved[i].writes.contains(target),
                    "write to '{target}' is outside the statically-proved effect sets of \
                     stage {stage:?}"
                );
            }
        }
    }
}
