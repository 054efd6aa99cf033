//! # linview-runtime
//!
//! The in-process execution backend for LINVIEW trigger programs: a named
//! matrix environment, a chain-order-aware expression evaluator, a trigger
//! executor (including the numeric Sherman–Morrison primitive), update
//! stream generators matching the paper's workload (§7), and the
//! re-evaluation / incremental view maintainers that every experiment
//! compares.
//!
//! ```
//! use linview_compiler::parse::parse_program;
//! use linview_expr::Catalog;
//! use linview_matrix::Matrix;
//! use linview_runtime::{IncrementalView, RankOneUpdate};
//!
//! let program = parse_program("B := A * A; C := B * B;").unwrap();
//! let mut cat = Catalog::new();
//! cat.declare("A", 8, 8);
//! let a = Matrix::random_spectral(8, 7, 0.5);
//! let mut view = IncrementalView::build(&program, &[("A", a)], &cat).unwrap();
//! let upd = RankOneUpdate::row_update(8, 8, 3, 0.01, 42);
//! view.apply("A", &upd).unwrap();
//! assert_eq!(view.get("C").unwrap().shape(), (8, 8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
pub mod checkpoint;
pub mod engine;
mod env;
mod error;
mod eval;
mod exec;
mod plan;
pub mod snapshot;
pub mod stats;
mod store;
pub mod updates;
mod view;
pub mod wal;

pub use backend::{
    ExecBackend, FrameBackend, LocalBackend, SchedSnapshot, SocketBackend, ThreadedBackend,
};
pub use checkpoint::CheckpointError;
pub use engine::{DiskRecovery, EngineStats, FlushPolicy, MaintenanceEngine, RecoveryStats};
pub use env::Env;
pub use error::RuntimeError;
pub use eval::{eval, Evaluator};
pub use exec::{
    fire_joint_trigger, fire_trigger, sherman_morrison, woodbury, ExecOptions, FiringReport,
    InversePrimitive, SchedStats, SparseStats, StageDelta,
};
pub use linview_dist::CommSnapshot;
pub use snapshot::{
    percentile_ns, ReaderPool, ReaderReport, SnapshotPublisher, ViewHandle, ViewSnapshot,
};
pub use store::has_durable_checkpoint;
pub use updates::{BatchUpdate, RankOneUpdate, UpdateStream, Zipf};
pub use view::{IncrementalView, ReevalView};
pub use wal::{FiringRecord, WalFile, WalRecovery};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;
