//! # systolic-interp
//!
//! Elaboration and execution of compiled systolic programs: the bridge
//! between the symbolic plan (`systolic-core`) and the simulated
//! distributed-memory machine (`systolic-runtime`).
//!
//! - [`skeleton`] — the one network construction, in two phases: a
//!   size-parametric skeleton compiled once per plan, instantiated per
//!   concrete size (pipe construction, channel allocation, buffer
//!   insertion, lowering every process to the flat `ProcIR` bytecode,
//!   `systolic_runtime::ProcIrModule`);
//! - [`elaborate`] — the types every consumer of an elaboration shares
//!   and [`elaborate()`], both phases uncached;
//! - [`cache`] — the `Arc`-shared module store in front of both phases,
//!   which every executor entry point goes through;
//! - [`kernelize`] — the basic-statement → straight-line kernel compiler:
//!   its tape is the statement every engine runs and `rustgen` prints;
//! - [`exec`] — [`simulate`]: the one function that runs a plan, on the
//!   rung of the fast-path ladder a [`SimSpec`] selects, and
//!   [`simulate_verified`], the one comparison against the sequential
//!   reference;
//! - [`metrics`] — observed runs: metrics reports and Perfetto traces
//!   with channels named by stream and process-space point.

pub mod cache;
pub mod describe;
pub mod elaborate;
pub mod exec;
pub mod kernelize;
pub mod metrics;
pub mod runtime_gen;
pub mod rustgen;
pub mod skeleton;
pub mod trace;

#[doc(hidden)]
pub use cache::OptMode;
pub use cache::{CacheStats, CachedModule, FastPlan, ModuleStore};
pub use describe::describe;
pub use elaborate::{elaborate, Census, ElabError, ElabOptions, Elaborated, OutputSpec};
pub use exec::{
    seeded_store, simulate, simulate_verified, ExecError, Problem, ProblemError, SimSpec,
    SystolicRun, VerifyError, PROBLEM_BUDGET,
};
#[doc(hidden)]
pub use exec::{ExecutorChoice, KernelMode, WavefrontMode};
pub use kernelize::kernelize;
pub use metrics::{channel_names, observe_plan_in, Observed};
pub use skeleton::{elaborate_skeleton, instantiate, SkeletonModule};
pub use systolic_runtime::{analyze_kernels, BatchMode, KernelPlan, KernelReport, OptReport};
