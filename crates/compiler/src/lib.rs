//! # linview-compiler
//!
//! The LINVIEW compiler (§4.4, §6): transforms a linear-algebra [`Program`]
//! into a [`TriggerProgram`] — one trigger per dynamic input matrix, each a
//! straight-line sequence of factored-delta block assignments followed by
//! low-rank `+=` view updates, exactly like Example 4.6 of the paper:
//!
//! ```text
//! ON UPDATE A BY (u_A, v_A):
//!   U_B := [ u_A | A u_A + u_A (v_A' u_A) ];
//!   V_B := [ A' v_A | v_A ];
//!   ...
//!   A += u_A v_A';  B += U_B V_B';  ...
//! ```
//!
//! Pipeline stages (mirroring Fig. 2's system overview):
//!
//! 1. **Frontend** — [`parse::parse_program`] accepts an APL-style textual
//!    form (`B := A * A;`), or programs are built directly with the API.
//! 2. **Normalization** — [`Program::hoist_inverses`] materializes every
//!    dynamic matrix-inverse subexpression as its own view so the
//!    Sherman–Morrison runtime primitive can maintain it.
//! 3. **Incremental compilation** — [`compile::compile`] is Algorithm 1.
//! 4. **Optimization** — [`optimizer`] runs copy propagation, common
//!    subexpression elimination, and dead-code elimination over triggers.
//!    [`schedule`] analyzes def-use dependencies between trigger
//!    statements and exposes the topologically-staged parallel execution
//!    plan ([`StmtDag`]) the runtime's staged interpreter consumes.
//! 5. **Code generation** — [`codegen::octave`] emits executable Octave
//!    source; [`codegen::plan`] emits an annotated textual plan. The
//!    in-process backend lives in `linview-runtime`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod codegen;
pub mod compile;
pub mod optimizer;
pub mod parse;
mod program;
pub mod schedule;
mod trigger;

pub use analyze::{
    analyze_joint, analyze_program, check_joint, check_program, derive_effects, verify_stages,
    AnalyzeOptions, AnalyzerPass, AnalyzerReport, CostEstimate, Diagnostic, Severity,
    TriggerAnalysis,
};
pub use compile::{compile, compile_joint, CompileOptions, JointTrigger};
pub use program::{Program, Statement};
pub use schedule::{StmtDag, StmtEffects};
pub use trigger::{Trigger, TriggerProgram, TriggerStmt};

/// Crate-wide result alias (errors are symbolic-layer errors).
pub type Result<T> = std::result::Result<T, linview_expr::ExprError>;
