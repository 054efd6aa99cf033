//! Trigger programs — the output of Algorithm 1.

use linview_expr::cost::CostModel;
use linview_expr::{Catalog, Expr};

use crate::schedule::StmtDag;
use crate::Result;

/// One statement of a trigger body.
#[derive(Debug, Clone, PartialEq)]
pub enum TriggerStmt {
    /// `var := expr` — evaluates a delta block (or shared temporary) against
    /// the **pre-update** state. All `Assign`s precede all `ApplyDelta`s.
    Assign {
        /// Name of the block variable being defined.
        var: String,
        /// Defining expression.
        expr: Expr,
    },
    /// Incremental maintenance of a materialized inverse `W = E⁻¹` under the
    /// factored update `ΔE = P Qᵀ`, by `rank(P)` successive applications of
    /// the Sherman–Morrison formula (§4.1):
    ///
    /// ```text
    /// Δ(E⁻¹) = − E⁻¹ u vᵀ E⁻¹ / (1 + vᵀ E⁻¹ u)      per rank-1 pair (u, v)
    /// ```
    ///
    /// The runtime writes the accumulated factored delta of `W` into the
    /// block variables `out_u`/`out_v`; a later `ApplyDelta` folds it into
    /// `W` itself.
    ShermanMorrison {
        /// The materialized inverse view being maintained.
        inv_var: String,
        /// Left factor blocks of the inner delta `ΔE = P Qᵀ`.
        p: Expr,
        /// Right factor blocks of the inner delta.
        q: Expr,
        /// Output block variable receiving `U_W`.
        out_u: String,
        /// Output block variable receiving `V_W`.
        out_v: String,
    },
    /// `target += u · vᵀ` — the low-rank view update.
    ApplyDelta {
        /// The maintained view.
        target: String,
        /// Left factor blocks.
        u: Expr,
        /// Right factor blocks.
        v: Expr,
    },
}

impl std::fmt::Display for TriggerStmt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TriggerStmt::Assign { var, expr } => write!(f, "{var} := {expr};"),
            TriggerStmt::ShermanMorrison {
                inv_var,
                p,
                q,
                out_u,
                out_v,
            } => write!(
                f,
                "({out_u}, {out_v}) := sherman_morrison({inv_var}, {p}, {q});"
            ),
            TriggerStmt::ApplyDelta { target, u, v } => write!(f, "{target} += {u} {v}';"),
        }
    }
}

/// The trigger for updates to one input matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Trigger {
    /// The dynamic input matrix this trigger reacts to.
    pub input: String,
    /// Rank of the incoming update (`ΔX = dU_X dV_Xᵀ` with `k` columns).
    pub update_rank: usize,
    /// Trigger body: assignments (and Sherman–Morrison steps), then updates.
    pub stmts: Vec<TriggerStmt>,
}

impl Trigger {
    /// All `Assign`/`ShermanMorrison` statements (the "compute" phase).
    pub fn compute_phase(&self) -> impl Iterator<Item = &TriggerStmt> {
        self.stmts
            .iter()
            .filter(|s| !matches!(s, TriggerStmt::ApplyDelta { .. }))
    }

    /// All `ApplyDelta` statements (the "update" phase).
    pub fn update_phase(&self) -> impl Iterator<Item = &TriggerStmt> {
        self.stmts
            .iter()
            .filter(|s| matches!(s, TriggerStmt::ApplyDelta { .. }))
    }

    /// Names of all views this trigger maintains (targets of `ApplyDelta`),
    /// deduplicated in first-occurrence order — a trigger that updates one
    /// view twice maintains it once, and everything keyed on view identity
    /// (DAG nodes, engine statistics, partitioned-view install sets) relies
    /// on the list being exact.
    pub fn maintained_views(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for s in &self.stmts {
            if let TriggerStmt::ApplyDelta { target, .. } = s {
                if !out.contains(&target.as_str()) {
                    out.push(target.as_str());
                }
            }
        }
        out
    }

    /// The statement dependency DAG of this trigger body, with its
    /// topologically-sorted parallel stages (see [`crate::schedule`]).
    /// Cyclic dependencies — impossible for Algorithm 1 output — are a
    /// compile error, and [`compile()`](crate::compile()) validates every
    /// trigger it emits through this same call.
    pub fn dag(&self) -> Result<StmtDag> {
        StmtDag::analyze(&self.stmts)
    }

    /// Modeled FLOP cost of one firing of this trigger.
    pub fn cost(&self, cat: &Catalog, model: &CostModel) -> Result<f64> {
        let mut total = 0.0;
        for s in &self.stmts {
            match s {
                TriggerStmt::Assign { expr, .. } => total += model.expr_cost(expr, cat)?,
                TriggerStmt::ShermanMorrison { inv_var, p, .. } => {
                    // k rank-1 S-M applications, each O(n²): two matvecs, an
                    // outer product, a scale, and an accumulate.
                    let n = cat.get(inv_var)?.rows as f64;
                    let k = p.dim(cat)?.cols as f64;
                    total += model.expr_cost(p, cat)?;
                    total += k * 6.0 * n * n;
                }
                TriggerStmt::ApplyDelta { target, u, .. } => {
                    let d = cat.get(target)?;
                    let k = u.dim(cat)?.cols;
                    total += model.expr_cost(u, cat)?;
                    total += linview_expr::cost::low_rank_update_cost(d, k);
                }
            }
        }
        Ok(total)
    }
}

impl std::fmt::Display for Trigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "ON UPDATE {} BY (dU_{}, dV_{}):",
            self.input, self.input, self.input
        )?;
        for s in &self.stmts {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

/// The complete incremental program: one trigger per dynamic input plus the
/// catalog extended with every auxiliary block variable the triggers define.
#[derive(Debug, Clone)]
pub struct TriggerProgram {
    /// Triggers, one per dynamic input, in declaration order.
    pub triggers: Vec<Trigger>,
    /// Catalog covering base matrices, views, and all delta blocks.
    pub catalog: Catalog,
}

impl TriggerProgram {
    /// Finds the trigger for a given input matrix.
    pub fn trigger_for(&self, input: &str) -> Option<&Trigger> {
        self.triggers.iter().find(|t| t.input == input)
    }

    /// Total modeled FLOP cost of firing every trigger once ("the total
    /// execution cost of an incremental program is the sum of execution
    /// costs of its triggers", §4).
    pub fn cost(&self, model: &CostModel) -> Result<f64> {
        let mut total = 0.0;
        for t in &self.triggers {
            total += t.cost(&self.catalog, model)?;
        }
        Ok(total)
    }

    /// The staged schedule of every trigger, in declaration order — the
    /// program-wide view of [`Trigger::dag`].
    pub fn dags(&self) -> Result<Vec<StmtDag>> {
        self.triggers.iter().map(Trigger::dag).collect()
    }
}

impl std::fmt::Display for TriggerProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for t in &self.triggers {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trigger {
        Trigger {
            input: "A".into(),
            update_rank: 1,
            stmts: vec![
                TriggerStmt::Assign {
                    var: "U_B".into(),
                    expr: Expr::var("dU_A"),
                },
                TriggerStmt::ApplyDelta {
                    target: "A".into(),
                    u: Expr::var("dU_A"),
                    v: Expr::var("dV_A"),
                },
                TriggerStmt::ApplyDelta {
                    target: "B".into(),
                    u: Expr::var("U_B"),
                    v: Expr::var("V_B"),
                },
            ],
        }
    }

    #[test]
    fn phases_partition_statements() {
        let t = sample();
        assert_eq!(t.compute_phase().count(), 1);
        assert_eq!(t.update_phase().count(), 2);
        assert_eq!(t.maintained_views(), vec!["A", "B"]);
    }

    #[test]
    fn display_matches_paper_syntax() {
        let t = sample();
        let s = t.to_string();
        assert!(s.starts_with("ON UPDATE A BY (dU_A, dV_A):"));
        assert!(s.contains("U_B := dU_A;"));
        assert!(s.contains("B += U_B V_B';"));
    }

    #[test]
    fn repeated_view_updates_are_reported_once() {
        // A trigger folding two deltas into the same view maintains ONE
        // view; the update count is a statement property, not a view set.
        let t = Trigger {
            input: "A".into(),
            update_rank: 1,
            stmts: vec![
                TriggerStmt::ApplyDelta {
                    target: "B".into(),
                    u: Expr::var("U_B"),
                    v: Expr::var("V_B"),
                },
                TriggerStmt::ApplyDelta {
                    target: "A".into(),
                    u: Expr::var("dU_A"),
                    v: Expr::var("dV_A"),
                },
                TriggerStmt::ApplyDelta {
                    target: "B".into(),
                    u: Expr::var("U_B"),
                    v: Expr::var("V_B"),
                },
            ],
        };
        assert_eq!(t.maintained_views(), vec!["B", "A"]);
        // The DAG still keeps both B updates as ordered nodes.
        assert_eq!(t.dag().unwrap().stage_count(), 2);
    }

    #[test]
    fn cost_counts_updates() {
        let mut cat = Catalog::new();
        cat.declare("A", 10, 10);
        cat.declare("B", 10, 10);
        cat.declare("dU_A", 10, 1);
        cat.declare("dV_A", 10, 1);
        cat.declare("U_B", 10, 2);
        cat.declare("V_B", 10, 2);
        let t = sample();
        let c = t.cost(&cat, &CostModel::cubic()).unwrap();
        // At least the two ApplyDelta costs: 2·1·100 + 2·2·100.
        assert!(c >= 600.0);
    }
}
