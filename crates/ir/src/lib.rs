//! # systolic-ir
//!
//! The source-program intermediate representation of the systolizing
//! compiler (Sec. 3.1 of Barnett & Lengauer 1991): perfect loop nests over
//! a guarded basic statement accessing *streams* — indexed variables under
//! linear, constant-free index maps.
//!
//! - [`program`] — loop nests, indexed variables, streams, index-space
//!   iteration;
//! - [`expr`] — the basic-statement expression language and its evaluator;
//! - [`host`] — host-side arrays (the environment the systolic program
//!   loads from and recovers to);
//! - [`seq`] — the sequential reference execution every systolic program
//!   must be equivalent to;
//! - [`validate`] — the requirements & restrictions of Appendix A;
//! - [`gallery`] — the paper's example programs and further kernels.

pub mod expr;
pub mod gallery;
pub mod host;
pub mod program;
pub mod seq;
pub mod validate;

pub use expr::{
    BasicStatement, BoolExpr, CmpOp, GuardedUpdate, ScalarExpr, StreamId, Value, MAX_EXPR_DEPTH,
};
pub use host::{HostArray, HostStore};
pub use program::{IndexedVar, Loop, SourceProgram, Stream};
pub use validate::{validate, Violation};
