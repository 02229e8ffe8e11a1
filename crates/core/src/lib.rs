//! # systolic-core
//!
//! The systolizing compilation scheme of Barnett & Lengauer (1991) — the
//! paper's primary contribution. Given a source program (`systolic-ir`)
//! and a systolic array (`systolic-synthesis`), [`compile`] derives the
//! complete symbolic plan of the distributed systolic program;
//! [`systolize`] is the front door every front end uses, which also
//! obtains the array:
//!
//! - [`basis`] — the process space basis (Secs. 6.1 / 7.1);
//! - [`firstlast`] — `increment` and the guarded repeaters
//!   (Secs. 6.2 / 7.2, including the simple-place special case);
//! - [`iocomm`] — i/o process layout and communications
//!   (Secs. 6.3–6.4 / 7.3–7.4, eqs. 5–7, 10);
//! - [`propagation`] — soak / drain / load / recover (Secs. 6.5 / 7.5,
//!   eqs. 8–9);
//! - [`plan`] — the assembled [`SystolicProgram`];
//! - [`theorems`] — the theorems of Appendix B as executable checks.

pub mod basis;
pub mod compile;
pub mod error;
pub mod firstlast;
pub mod iocomm;
pub mod plan;
pub mod propagation;
pub mod report;
pub mod theorems;

pub use compile::{compile, systolize, Options, PlaceChoice};
pub use error::CompileError;
pub use plan::{IoDim, StreamKind, StreamPlan, SystolicProgram};
