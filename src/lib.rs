//! # systolizer
//!
//! A complete implementation of the systolizing compilation scheme of
//! Barnett & Lengauer, *A Systolizing Compilation Scheme* (ICPP 1991 /
//! LFCS report ECS-LFCS-91-134): from nested-loop source programs and
//! systolic array specifications to distributed-memory programs, with
//! code generation, a simulated target machine, and end-to-end
//! verification against sequential execution.
//!
//! ## Quickstart
//!
//! ```
//! use systolizer::{systolize_source, SystolizeOptions};
//!
//! let src = "
//!     program polyprod;
//!     size n;
//!     var a[0..n], b[0..n], c[0..2*n];
//!     for i = 0 <- 1 -> n
//!     for j = 0 <- 1 -> n {
//!       c[i+j] = c[i+j] + a[i] * b[j];
//!     }
//! ";
//! let sys = systolize_source(src, &SystolizeOptions::default()).unwrap();
//! // The derived distributed program, in the paper's notation:
//! let code = sys.paper_code();
//! assert!(code.contains("parfor"));
//! // Simulated execution matches the sequential semantics:
//! sys.verify(&[6], &["a", "b"], 42).unwrap();
//! ```
//!
//! The pipeline stages are re-exported: [`lang`] (parsing), [`ir`]
//! (source IR + sequential reference), [`synthesis`] (step/place
//! derivation), [`core`] (the compilation scheme), [`ast`] (code
//! generation), [`runtime`] + [`interp`] (the simulated machine).

pub mod cli;

pub use systolic_ast as ast;
pub use systolic_core as core;
pub use systolic_interp as interp;
pub use systolic_ir as ir;
pub use systolic_lang as lang;
pub use systolic_math as math;
pub use systolic_runtime as runtime;
pub use systolic_service as service;
pub use systolic_sim as sim;
pub use systolic_synthesis as synthesis;

use std::fmt;
use systolic_core::{CompileError, SystolicProgram};
pub use systolic_core::{Options as SystolizeOptions, PlaceChoice};
use systolic_interp::{
    simulate, simulate_verified, ExecError, ModuleStore, Problem, ProblemError, SimSpec,
    SystolicRun,
};
use systolic_ir::{HostStore, SourceProgram};
use systolic_math::Env;
use systolic_runtime::RunStats;
use systolic_synthesis::SystolicArray;

/// Pipeline failures.
#[derive(Debug)]
pub enum Error {
    Parse(systolic_lang::ParseError),
    /// Outside the compilable envelope, or no valid schedule/place
    /// within the search bound.
    Compile(CompileError),
    /// The sizes or inputs given do not make a problem for the program.
    Problem(ProblemError),
    /// The compiled plan could not be lowered to process bytecode for the
    /// given host data (misaligned pipes, missing/short host arrays).
    Elaborate(systolic_interp::ElabError),
    /// Simulated and sequential executions disagree (should be
    /// unreachable for accepted inputs — surfaced for the test harness).
    Mismatch(String),
    Deadlock(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "parse error: {e}"),
            Error::Compile(e) => write!(f, "compilation failed: {e}"),
            Error::Problem(e) => write!(f, "{e}"),
            Error::Elaborate(e) => write!(f, "elaboration failed: {e}"),
            Error::Mismatch(m) => write!(f, "equivalence failure: {m}"),
            Error::Deadlock(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for Error {}

/// The result of the full pipeline: source, array, and compiled plan.
pub struct Systolized {
    pub source: SourceProgram,
    pub array: SystolicArray,
    pub plan: SystolicProgram,
}

/// Parse source text and systolize it.
pub fn systolize_source(src: &str, opts: &SystolizeOptions) -> Result<Systolized, Error> {
    let program = systolic_lang::parse(src).map_err(Error::Parse)?;
    systolize(&program, opts)
}

/// Systolize an already-built IR program: [`systolic_core::systolize`].
pub fn systolize(program: &SourceProgram, opts: &SystolizeOptions) -> Result<Systolized, Error> {
    let plan = systolic_core::systolize(program, opts).map_err(Error::Compile)?;
    Ok(Systolized {
        source: plan.source.clone(),
        array: plan.array.clone(),
        plan,
    })
}

impl Systolized {
    /// Bind the problem-size symbols, in declaration order
    /// ([`Problem::sizes`]: arity, sign and budget checked).
    pub fn size_env(&self, sizes: &[i64]) -> Result<Env, Error> {
        Problem::sizes(&self.plan, sizes).map_err(Error::Problem)
    }

    /// The derivation report (all symbolic quantities, paper-style).
    pub fn report(&self) -> String {
        systolic_core::report::render(&self.plan)
    }

    /// The generated program in the paper's abstract notation.
    pub fn paper_code(&self) -> String {
        systolic_ast::paper_style(&systolic_ast::lower(&self.plan))
    }

    /// The generated program, occam-like.
    pub fn occam_code(&self) -> String {
        systolic_ast::occam_style(&systolic_ast::lower(&self.plan))
    }

    /// The generated program, C-like.
    pub fn c_code(&self) -> String {
        systolic_ast::c_style(&systolic_ast::lower(&self.plan))
    }

    /// Run the systolic program on the plain cooperative engine with the
    /// given host data; returns the recovered store and statistics.
    pub fn run(&self, sizes: &[i64], store: &HostStore) -> Result<SystolicRun, Error> {
        let env = self.size_env(sizes)?;
        let ms = ModuleStore::global();
        simulate(ms, &self.plan, &env, store, SimSpec::plain()).map_err(|e| match e {
            ExecError::Elab(el) => Error::Elaborate(el),
            ExecError::Run(r) => Error::Deadlock(r.to_string()),
            short @ ExecError::ShortOutput { .. } => Error::Mismatch(short.to_string()),
        })
    }

    /// Verify observational equivalence with the sequential execution on
    /// seeded random inputs; returns the run statistics.
    pub fn verify(&self, sizes: &[i64], inputs: &[&str], seed: u64) -> Result<RunStats, Error> {
        let Problem { env, store } =
            Problem::seeded(&self.plan, sizes, inputs, seed).map_err(Error::Problem)?;
        let ms = ModuleStore::global();
        simulate_verified(ms, &self.plan, &env, &store, SimSpec::plain())
            .map(|run| run.stats)
            .map_err(|e| Error::Mismatch(e.to_string()))
    }

    /// The schedule's makespan at a problem size (`max step - min step + 1`).
    pub fn makespan(&self, sizes: &[i64]) -> Result<i64, Error> {
        Ok(self.array.makespan(&self.source, &self.size_env(sizes)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLYPROD: &str = "
        program polyprod;
        size n;
        var a[0..n], b[0..n], c[0..2*n];
        for i = 0 <- 1 -> n
        for j = 0 <- 1 -> n {
          c[i+j] = c[i+j] + a[i] * b[j];
        }
    ";

    #[test]
    fn auto_pipeline() {
        let sys = systolize_source(POLYPROD, &SystolizeOptions::default()).unwrap();
        sys.verify(&[5], &["a", "b"], 1).unwrap();
        assert!(sys.report().contains("increment"));
        assert!(sys.paper_code().contains("parfor"));
        assert!(sys.occam_code().contains("PAR"));
        assert!(sys.c_code().contains("PARFOR"));
    }

    #[test]
    fn projection_choice_reproduces_paper_design() {
        let opts = SystolizeOptions {
            place: PlaceChoice::Projection(vec![1, -1]),
            ..Default::default()
        };
        let sys = systolize_source(POLYPROD, &opts).unwrap();
        // place i + j: PS_max = 2n.
        assert_eq!(
            systolic_math::affine::display_point(&sys.plan.ps_max, &sys.plan.vars),
            "2*n"
        );
        sys.verify(&[4], &["a", "b"], 9).unwrap();
    }

    #[test]
    fn parse_errors_surface() {
        match systolize_source("program x size n;", &SystolizeOptions::default()) {
            Err(Error::Parse(_)) => {}
            other => panic!("expected parse error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn makespan_formula() {
        let sys = systolize_source(POLYPROD, &SystolizeOptions::default()).unwrap();
        // Any optimal schedule for polyprod has makespan 2n + something
        // linear; just check monotone linear growth.
        let makespan = |n| sys.makespan(&[n]).unwrap();
        let (m4, m8) = (makespan(4), makespan(8));
        assert!(m8 > m4);
        assert_eq!(m8 - m4, makespan(12) - m8, "linear in n");
    }
}
