//! PageRank by power iteration (§5.2/§5.3): `rᵢ₊₁ = d·M·rᵢ + (1−d)/n·𝟙`,
//! the `p = 1` instance of the general form where the paper's hybrid
//! strategy shines.
//!
//! The link structure is kept as an adjacency set; `M` is the
//! column-stochastic transition matrix (dangling nodes teleport uniformly).
//! Adding or removing an edge rescales one column of `M` — a rank-1 update
//! `ΔA = d·Δcol·e_srcᵀ` fed to the [`GeneralForm`] maintainer.

use linview_matrix::Matrix;
use linview_runtime::{Env, RuntimeError, SnapshotPublisher, ViewHandle};
use std::collections::BTreeSet;

use crate::general::{GeneralForm, Strategy};
use crate::{IterModel, Result};

/// An incrementally maintained PageRank vector.
#[derive(Debug, Clone)]
pub struct PageRank {
    n: usize,
    damping: f64,
    adj: Vec<BTreeSet<usize>>,
    gf: GeneralForm,
    /// Wait-free snapshot publication of the rank vector; `None` until
    /// [`PageRank::enable_serving`]. PageRank wraps a [`GeneralForm`]
    /// rather than an `IncrementalView`, so it drives its own publisher:
    /// each effective edge mutation is one round.
    serving: Option<SnapshotPublisher>,
}

impl PageRank {
    /// Builds the maintainer from an edge list over `n` nodes, running `k`
    /// power-iteration steps with damping factor `damping` (0.85 in the
    /// classic setting). An empty graph, a damping outside `[0, 1)` or an
    /// edge endpoint `≥ n` is [`RuntimeError::InvalidArgument`].
    pub fn new(
        n: usize,
        edges: &[(usize, usize)],
        damping: f64,
        k: usize,
        model: IterModel,
        strategy: Strategy,
    ) -> Result<Self> {
        if n == 0 {
            return Err(RuntimeError::InvalidArgument("empty graph".into()));
        }
        if !(0.0..1.0).contains(&damping) {
            return Err(RuntimeError::InvalidArgument(format!(
                "damping must be in [0, 1), got {damping}"
            )));
        }
        let mut adj = vec![BTreeSet::new(); n];
        for &(src, dst) in edges {
            check_edge(n, src, dst)?;
            adj[src].insert(dst);
        }
        let m = transition_matrix(&adj, n);
        let a = m.scale(damping);
        let b = Matrix::filled(n, 1, (1.0 - damping) / n as f64);
        let r0 = Matrix::filled(n, 1, 1.0 / n as f64);
        let gf = GeneralForm::new(a, b, r0, model, k, strategy)?;
        Ok(PageRank {
            n,
            damping,
            adj,
            gf,
            serving: None,
        })
    }

    /// Turns on the wait-free snapshot read path: publishes the current
    /// rank vector as the view `"ranks"` immediately, then republishes
    /// every `publish_every` effective edge mutations (`0` behaves like
    /// `1`). See [`linview_runtime::snapshot`]. Returns a cloneable
    /// reader handle.
    pub fn enable_serving(&mut self, publish_every: u64) -> ViewHandle {
        let publisher = SnapshotPublisher::new(publish_every);
        publisher.publish(&self.serving_env());
        let handle = publisher.handle();
        self.serving = Some(publisher);
        handle
    }

    /// A reader handle onto the published snapshots, when serving is on.
    pub fn serving_handle(&self) -> Option<ViewHandle> {
        self.serving.as_ref().map(SnapshotPublisher::handle)
    }

    /// The environment snapshots are captured from: just the rank vector.
    fn serving_env(&self) -> Env {
        let mut env = Env::new();
        env.bind("ranks", self.gf.result().clone());
        env
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The current rank vector (`n×1`, sums to ≈ 1 as `k → ∞`).
    pub fn ranks(&self) -> &Matrix {
        self.gf.result()
    }

    /// Adds an edge; no-op if already present. One rank-1 update.
    pub fn add_edge(&mut self, src: usize, dst: usize) -> Result<()> {
        check_edge(self.n, src, dst)?;
        if self.adj[src].contains(&dst) {
            return Ok(());
        }
        let old_col = self.column(src);
        self.adj[src].insert(dst);
        self.update_column(src, &old_col)
    }

    /// Removes an edge; no-op if absent. One rank-1 update.
    pub fn remove_edge(&mut self, src: usize, dst: usize) -> Result<()> {
        check_edge(self.n, src, dst)?;
        if !self.adj[src].contains(&dst) {
            return Ok(());
        }
        let old_col = self.column(src);
        self.adj[src].remove(&dst);
        self.update_column(src, &old_col)
    }

    /// Out-degree of `src`.
    pub fn out_degree(&self, src: usize) -> usize {
        self.adj[src].len()
    }

    /// The transition-matrix column for node `src` under the current
    /// adjacency (uniform teleport for dangling nodes).
    fn column(&self, src: usize) -> Matrix {
        let mut col = Matrix::zeros(self.n, 1);
        let deg = self.adj[src].len();
        if deg == 0 {
            for r in 0..self.n {
                col.set(r, 0, 1.0 / self.n as f64);
            }
        } else {
            for &dst in &self.adj[src] {
                col.set(dst, 0, 1.0 / deg as f64);
            }
        }
        col
    }

    /// Feeds `ΔA = d·(new_col − old_col)·e_srcᵀ` to the maintainer.
    fn update_column(&mut self, src: usize, old_col: &Matrix) -> Result<()> {
        let new_col = self.column(src);
        let delta = new_col.try_sub(old_col)?.scale(self.damping);
        let mut e_src = Matrix::zeros(self.n, 1);
        e_src.set(src, 0, 1.0);
        self.gf.apply_factored(&delta, &e_src, None)?;
        if let Some(srv) = &self.serving {
            srv.round_completed(&self.serving_env(), false);
        }
        Ok(())
    }
}

/// An edge endpoint outside the `n` nodes is [`RuntimeError::InvalidArgument`].
fn check_edge(n: usize, src: usize, dst: usize) -> Result<()> {
    if src >= n || dst >= n {
        return Err(RuntimeError::InvalidArgument(format!(
            "edge ({src},{dst}) out of range for {n} nodes"
        )));
    }
    Ok(())
}

/// Dense column-stochastic transition matrix from adjacency sets.
fn transition_matrix(adj: &[BTreeSet<usize>], n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for (src, outs) in adj.iter().enumerate() {
        if outs.is_empty() {
            for r in 0..n {
                m.set(r, src, 1.0 / n as f64);
            }
        } else {
            for &dst in outs {
                m.set(dst, src, 1.0 / outs.len() as f64);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use linview_matrix::ApproxEq;

    fn brute_pagerank(n: usize, adj: &[BTreeSet<usize>], damping: f64, k: usize) -> Matrix {
        let m = transition_matrix(adj, n);
        let mut r = Matrix::filled(n, 1, 1.0 / n as f64);
        let teleport = Matrix::filled(n, 1, (1.0 - damping) / n as f64);
        for _ in 0..k {
            r = m
                .try_matmul(&r)
                .unwrap()
                .scale(damping)
                .try_add(&teleport)
                .unwrap();
        }
        r
    }

    fn ring_edges(n: usize) -> Vec<(usize, usize)> {
        (0..n).map(|i| (i, (i + 1) % n)).collect()
    }

    #[test]
    fn uniform_ring_has_uniform_ranks() {
        let n = 8;
        let pr = PageRank::new(
            n,
            &ring_edges(n),
            0.85,
            16,
            IterModel::Linear,
            Strategy::Incremental,
        )
        .unwrap();
        let uniform = Matrix::filled(n, 1, 1.0 / n as f64);
        assert!(pr.ranks().approx_eq(&uniform, 1e-9));
    }

    #[test]
    fn hub_attracts_rank() {
        // Everyone links to node 0.
        let n = 10;
        let edges: Vec<_> = (1..n).map(|i| (i, 0)).collect();
        let pr = PageRank::new(
            n,
            &edges,
            0.85,
            32,
            IterModel::Linear,
            Strategy::Incremental,
        )
        .unwrap();
        let ranks = pr.ranks();
        for i in 1..n {
            assert!(ranks.get(0, 0) > ranks.get(i, 0));
        }
    }

    #[test]
    fn edge_updates_track_recomputation_for_all_strategies() {
        let n = 12;
        let k = 16;
        let damping = 0.85;
        for strategy in [Strategy::Reeval, Strategy::Incremental, Strategy::Hybrid] {
            let mut pr =
                PageRank::new(n, &ring_edges(n), damping, k, IterModel::Linear, strategy).unwrap();
            pr.add_edge(0, 5).unwrap();
            pr.add_edge(3, 7).unwrap();
            pr.remove_edge(1, 2).unwrap();
            pr.add_edge(1, 6).unwrap();
            // Reference adjacency.
            let mut adj = vec![BTreeSet::new(); n];
            for (s, d) in ring_edges(n) {
                adj[s].insert(d);
            }
            adj[0].insert(5);
            adj[3].insert(7);
            adj[1].remove(&2);
            adj[1].insert(6);
            let expected = brute_pagerank(n, &adj, damping, k);
            assert!(
                pr.ranks().approx_eq(&expected, 1e-8),
                "{} diverged",
                strategy.label()
            );
        }
    }

    #[test]
    fn dangling_node_teleports() {
        // Node 1 has no out-links: its column is uniform.
        let n = 4;
        let pr = PageRank::new(
            n,
            &[(0, 1)],
            0.85,
            8,
            IterModel::Linear,
            Strategy::Incremental,
        )
        .unwrap();
        assert_eq!(pr.out_degree(1), 0);
        let total: f64 = (0..n).map(|i| pr.ranks().get(i, 0)).sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_edge_operations_are_noops() {
        let n = 6;
        let mut pr = PageRank::new(
            n,
            &ring_edges(n),
            0.85,
            8,
            IterModel::Linear,
            Strategy::Incremental,
        )
        .unwrap();
        let before = pr.ranks().clone();
        pr.add_edge(0, 1).unwrap(); // already present
        pr.remove_edge(2, 5).unwrap(); // absent
        assert!(pr.ranks().approx_eq(&before, 1e-12));
    }

    #[test]
    fn removing_last_out_edge_creates_dangling_column() {
        let n = 5;
        let mut pr = PageRank::new(
            n,
            &[(0, 1), (1, 2)],
            0.85,
            16,
            IterModel::Linear,
            Strategy::Hybrid,
        )
        .unwrap();
        pr.remove_edge(0, 1).unwrap();
        let mut adj = vec![BTreeSet::new(); n];
        adj[1].insert(2);
        let expected = brute_pagerank(n, &adj, 0.85, 16);
        assert!(pr.ranks().approx_eq(&expected, 1e-8));
    }

    #[test]
    fn hostile_arguments_are_errors() {
        let new = |n, edges: &[(usize, usize)], damping| {
            PageRank::new(
                n,
                edges,
                damping,
                8,
                IterModel::Linear,
                Strategy::Incremental,
            )
        };
        assert!(new(0, &[], 0.85).is_err());
        assert!(new(4, &[], 1.0).is_err());
        assert!(new(4, &[], -0.1).is_err());
        assert!(new(4, &[], f64::NAN).is_err());
        assert!(new(4, &[(0, 4)], 0.85).is_err());
        assert!(new(4, &[(4, 0)], 0.85).is_err());
        let mut pr = new(4, &ring_edges(4), 0.85).unwrap();
        assert!(pr.add_edge(0, 4).is_err());
        assert!(pr.add_edge(4, 0).is_err());
        assert!(pr.remove_edge(0, 9).is_err());
        assert!(pr.remove_edge(9, 0).is_err());
    }
}
