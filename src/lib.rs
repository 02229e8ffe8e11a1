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
use systolic_core::{CompileError, Options as CoreOptions, SystolicProgram};
use systolic_interp::{
    seeded_store, simulate, simulate_verified, ElabOptions, ExecError, ModuleStore, SimSpec,
    SystolicRun,
};
use systolic_ir::{HostStore, SourceProgram, StreamId};
use systolic_math::Env;
use systolic_runtime::RunStats;
use systolic_synthesis::SystolicArray;

/// How to obtain the spatial distribution.
#[derive(Clone, Debug, Default)]
pub enum PlaceChoice {
    /// Search for an optimal step and a compatible place automatically.
    #[default]
    Auto,
    /// Use the given projection direction (null space of `place`).
    Projection(Vec<i64>),
    /// Use an explicit array (step and place).
    Explicit(SystolicArray),
}

/// Options for the full pipeline.
#[derive(Clone, Debug)]
pub struct SystolizeOptions {
    pub place: PlaceChoice,
    /// Coefficient bound for the schedule search.
    pub step_bound: i64,
    /// Sample size for validation and schedule ranking.
    pub sample_size: i64,
    /// Loading & recovery vectors for stationary streams.
    pub loading_vectors: Vec<(usize, Vec<i64>)>,
}

impl Default for SystolizeOptions {
    fn default() -> SystolizeOptions {
        SystolizeOptions {
            place: PlaceChoice::Auto,
            step_bound: 2,
            sample_size: 4,
            loading_vectors: Vec::new(),
        }
    }
}

/// Pipeline failures.
#[derive(Debug)]
pub enum Error {
    Parse(systolic_lang::ParseError),
    /// No valid schedule/place within the search bound.
    NoArrayFound,
    Compile(CompileError),
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
            Error::NoArrayFound => write!(f, "no valid systolic array within the search bound"),
            Error::Compile(e) => write!(f, "compilation failed: {e}"),
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

/// Systolize an already-built IR program.
pub fn systolize(program: &SourceProgram, opts: &SystolizeOptions) -> Result<Systolized, Error> {
    // Validate the Appendix A envelope before synthesis: dependence
    // extraction assumes rank r-1 index maps.
    systolic_ir::validate(program, opts.sample_size.max(1))
        .map_err(|v| Error::Compile(CompileError::Source(v)))?;
    let array = match &opts.place {
        PlaceChoice::Explicit(a) => a.clone(),
        PlaceChoice::Projection(u) => {
            let step = systolic_synthesis::optimal_step(program, opts.step_bound, opts.sample_size)
                .ok_or(Error::NoArrayFound)?;
            SystolicArray::new(step, systolic_synthesis::place_from_projection(u))
        }
        PlaceChoice::Auto => {
            systolic_synthesis::derive_array(program, opts.step_bound, opts.sample_size)
                .ok_or(Error::NoArrayFound)?
        }
    };
    let mut core_opts = CoreOptions {
        sample_size: opts.sample_size,
        ..Default::default()
    };
    for (s, v) in &opts.loading_vectors {
        core_opts = core_opts.with_loading_vector(StreamId(*s), v.clone());
    }
    let plan = systolic_core::compile(program, &array, &core_opts).map_err(Error::Compile)?;
    Ok(Systolized {
        source: program.clone(),
        array,
        plan,
    })
}

/// The rendezvous reference engine under the given protocol variant.
fn plain_spec(opts: &ElabOptions) -> SimSpec {
    SimSpec {
        elab: opts.clone(),
        ..SimSpec::plain()
    }
}

impl Systolized {
    /// Bind the problem-size symbols, in declaration order.
    pub fn size_env(&self, sizes: &[i64]) -> Env {
        assert_eq!(sizes.len(), self.source.sizes.len(), "size arity mismatch");
        let mut env = Env::new();
        for (&v, &val) in self.source.sizes.iter().zip(sizes) {
            env.bind(v, val);
        }
        env
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
        self.run_with(sizes, store, &ElabOptions::default())
    }

    /// [`Systolized::run`] under explicit elaboration options (protocol
    /// variants: split propagation, merged host i/o, buffer ablations).
    pub fn run_with(
        &self,
        sizes: &[i64],
        store: &HostStore,
        opts: &ElabOptions,
    ) -> Result<SystolicRun, Error> {
        simulate(
            ModuleStore::global(),
            &self.plan,
            &self.size_env(sizes),
            store,
            plain_spec(opts),
        )
        .map_err(|e| match e {
            ExecError::Elab(el) => Error::Elaborate(el),
            ExecError::Run(r) => Error::Deadlock(r.to_string()),
            short @ ExecError::ShortOutput { .. } => Error::Mismatch(short.to_string()),
        })
    }

    /// Verify observational equivalence with the sequential execution on
    /// seeded random inputs; returns the run statistics.
    pub fn verify(&self, sizes: &[i64], inputs: &[&str], seed: u64) -> Result<RunStats, Error> {
        self.verify_with(sizes, inputs, seed, &ElabOptions::default())
    }

    /// [`Systolized::verify`] under explicit elaboration options.
    pub fn verify_with(
        &self,
        sizes: &[i64],
        inputs: &[&str],
        seed: u64,
        opts: &ElabOptions,
    ) -> Result<RunStats, Error> {
        let env = self.size_env(sizes);
        let store = seeded_store(&self.plan, &env, inputs, seed);
        let ms = ModuleStore::global();
        simulate_verified(ms, &self.plan, &env, &store, plain_spec(opts))
            .map(|run| run.stats)
            .map_err(|e| Error::Mismatch(e.to_string()))
    }

    /// The schedule's makespan at a problem size (`max step - min step + 1`).
    pub fn makespan(&self, sizes: &[i64]) -> i64 {
        self.array.makespan(&self.source, &self.size_env(sizes))
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
        let m4 = sys.makespan(&[4]);
        let m8 = sys.makespan(&[8]);
        assert!(m8 > m4);
        assert_eq!(m8 - m4, sys.makespan(&[12]) - m8, "linear in n");
    }
}
