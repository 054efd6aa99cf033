//! The worker grid.

use std::fmt;

use crate::comm::CommStats;

/// A worker count that cannot form the square grid the paper's hybrid
/// partitioning scheme (§6) assumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterError {
    workers: usize,
}

impl ClusterError {
    /// The rejected worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let workers = self.workers;
        let side = (workers as f64).sqrt().floor() as usize;
        if workers == 0 {
            write!(f, "a cluster needs at least one worker")
        } else {
            write!(
                f,
                "{workers} workers cannot form a square grid ({workers} is not a \
                 perfect square; nearest are {} and {})",
                side * side,
                (side + 1) * (side + 1)
            )
        }
    }
}

impl std::error::Error for ClusterError {}

/// A cluster geometry: a rectangular grid of workers plus a communication
/// meter. Partitioned matrices ([`crate::DistMatrix`]) use the same grid
/// geometry; the cluster itself holds no matrix data.
#[derive(Debug)]
pub struct Cluster {
    grid_rows: usize,
    grid_cols: usize,
    comm: CommStats,
}

impl Cluster {
    /// A square cluster of `workers` nodes arranged as a `√w × √w` grid.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or not a perfect square — the paper's
    /// hybrid partitioning scheme (§6) assumes a square grid. Use
    /// [`Cluster::with_grid`] for rectangular layouts, or
    /// [`Cluster::try_new`] anywhere the worker count is user input.
    pub fn new(workers: usize) -> Cluster {
        Cluster::try_new(workers).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Cluster::new`] for `Result`-returning callers:
    /// errors instead of panicking when `workers` is zero or not a perfect
    /// square. Worker counts arriving from a CLI flag or config file go
    /// through here so a bad count renders as an error chain, not an abort.
    pub fn try_new(workers: usize) -> std::result::Result<Cluster, ClusterError> {
        let side = (workers as f64).sqrt().round() as usize;
        if workers == 0 || side * side != workers {
            return Err(ClusterError { workers });
        }
        Ok(Cluster::with_grid(side, side))
    }

    /// A cluster laid out as an explicit `grid_rows × grid_cols` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn with_grid(grid_rows: usize, grid_cols: usize) -> Cluster {
        assert!(
            grid_rows > 0 && grid_cols > 0,
            "grid must have at least one row and column"
        );
        Cluster {
            grid_rows,
            grid_cols,
            comm: CommStats::default(),
        }
    }

    /// The side length of the (square) worker grid.
    ///
    /// # Panics
    ///
    /// Panics for rectangular clusters; those must use
    /// [`Cluster::grid_rows`] / [`Cluster::grid_cols`].
    pub fn grid(&self) -> usize {
        assert_eq!(
            self.grid_rows, self.grid_cols,
            "grid() is only defined for square clusters"
        );
        self.grid_rows
    }

    /// Number of grid rows.
    pub fn grid_rows(&self) -> usize {
        self.grid_rows
    }

    /// Number of grid columns.
    pub fn grid_cols(&self) -> usize {
        self.grid_cols
    }

    /// Total number of workers.
    pub fn workers(&self) -> usize {
        self.grid_rows * self.grid_cols
    }

    /// The cluster's communication meter.
    pub fn comm(&self) -> &CommStats {
        &self.comm
    }
}
