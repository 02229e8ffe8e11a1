//! Execution of elaborated plans and equivalence checking against the
//! sequential reference — the mechanized version of the paper's Sec. 8
//! experiments (hand translations run on transputer networks and a
//! Symult s2010).
//!
//! The Sec. 4 schedule-independence theorem says every execution of the
//! derived process network yields the same store, so *which* engine runs
//! is a parameter of one function: [`simulate`] is the only place a plan
//! is executed, and a [`SimSpec`] says how. The fast-path ladder lives
//! here once (see `docs/scheduler.md` for the diagram):
//!
//! ```text
//! module lookup ─ gate closed ─► plain     coop Network (rendezvous)
//!       │
//!       └─ gate open ──────────► wavefront run_wavefront (+ kernels)
//!          no recorder, a FIFO schedule, and the program within the
//!          par-set mask (`Elaborated::wide`)
//! ```
//!
//! Both engines run on the calling thread. The wavefront engine runs the
//! cached module's fast plan (`crate::cache::FastPlan`): the optimizer's
//! module when it rewrote the elaborated one, the elaborated one when it
//! declined. [`simulate_verified`] is the one oracle comparison.

use crate::cache::ModuleStore;
use crate::elaborate::{ElabError, ElabOptions, OutputSpec};
use std::sync::Arc;
use systolic_core::SystolicProgram;
use systolic_ir::{seq, HostStore};
use systolic_math::{Affine, Env};
use systolic_runtime::{
    BatchMode, KernelReport, Network, OptReport, RunError, RunStats, SchedulePolicy,
    SharedRecorder, Value,
};

// Spelled by the frozen `benchmark/src/layers.rs:14,119,123`, whose
// `threaded` and `partitioned2` rungs now time the default ladder; read
// by nothing, goes with ROADMAP 2(b).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutorChoice {
    Coop,
    Threaded,
    Partitioned { workers: usize },
}

// Spelled by the frozen `benchmark/src/layers.rs:15,107,115`; goes with ROADMAP 2(b).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WavefrontMode;

#[doc(hidden)]
#[allow(non_upper_case_globals)]
impl WavefrontMode {
    pub const Off: WavefrontMode = WavefrontMode;
    pub const Par: WavefrontMode = WavefrontMode;
}

// Spelled by the frozen `benchmark/src/layers.rs:14,102–104`; goes with ROADMAP 2(b).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelMode;

#[doc(hidden)]
#[allow(non_upper_case_globals)]
impl KernelMode {
    pub const Auto: KernelMode = KernelMode;
    pub const Off: KernelMode = KernelMode;
}

/// The executor label of every run ([`SystolicRun::engine`]).
const ENGINE: &str = "coop";

/// Everything about a simulation except the program and its data.
pub struct SimSpec {
    /// The fast-path gate (`--batch auto|off`, see
    /// `systolic_runtime::batch`). `Auto` runs the wavefront engine
    /// unless an observer, a non-FIFO schedule or a program past the
    /// par-set mask closes the gate; `Off` pins the plain engine, the
    /// exactness oracle for everything above it.
    pub batch: BatchMode,
    // Spelled by the frozen `benchmark/src/layers.rs:107,115`; goes with ROADMAP 2(b).
    #[doc(hidden)]
    pub wavefront: WavefrontMode,
    // Spelled by the frozen `benchmark/src/layers.rs:14,102–104`; goes with ROADMAP 2(b).
    #[doc(hidden)]
    pub kernel: KernelMode,
    // Spelled by the frozen `benchmark/src/layers.rs:119,123`; goes with ROADMAP 2(b).
    #[doc(hidden)]
    pub executor: ExecutorChoice,
    /// Permutes (and may defer) the cooperative scheduler's per-round
    /// channel worklist. Non-FIFO policies force the plain engine — the
    /// wavefront engine has no worklist to permute.
    pub sched: Option<Box<dyn SchedulePolicy>>,
    /// Protocol variants and ablations; part of the module-cache key.
    pub elab: ElabOptions,
    /// Observers of every VM op, scheduler step and channel transfer
    /// (see `systolic_runtime::record`). Any recorder closes the
    /// fast-path gate: only the plain engine emits per-event streams.
    pub recorders: Vec<SharedRecorder>,
}

impl Default for SimSpec {
    fn default() -> SimSpec {
        SimSpec {
            batch: BatchMode::Auto,
            wavefront: WavefrontMode,
            kernel: KernelMode,
            executor: ExecutorChoice::Coop,
            sched: None,
            elab: ElabOptions::default(),
            recorders: Vec::new(),
        }
    }
}

impl SimSpec {
    /// The rendezvous reference engine: the default spec with the
    /// fast-path gate shut.
    pub fn plain() -> SimSpec {
        SimSpec {
            batch: BatchMode::Off,
            ..SimSpec::default()
        }
    }
}

/// Outcome of a systolic run.
pub struct SystolicRun {
    /// The host store after recovery/extraction.
    pub store: HostStore,
    pub stats: RunStats,
    pub census: crate::elaborate::Census,
    /// The label of the executor that ran: `coop`, plain or wavefront
    /// alike (service responses and [`VerifyError`]s carry it).
    pub engine: &'static str,
    /// Whether the fast-path gate opened, and so the wavefront executor
    /// ran this module (see `systolic_runtime::wavefront`).
    pub wavefront: bool,
    /// The `systolic-opt-v1` mapping report when this was a wavefront run
    /// and the ProcIR optimizer rewrote the module; `stats` then describe
    /// the *optimized* module, and differ from the plain run's by the
    /// count law of `systolic_runtime::opt` over the report's chains. The
    /// store stays bit-identical either way.
    pub opt: Option<Arc<OptReport>>,
    /// The compiled-kernel engagement report, `Some` exactly when
    /// `wavefront` is true. Kernels change wall-clock only.
    pub kernel: Option<KernelReport>,
}

/// Why executing an elaborated plan failed.
#[derive(Debug)]
pub enum ExecError {
    /// The plan did not instantiate at this problem size / host store.
    Elab(ElabError),
    /// The network stopped early: a deadlock or a protocol violation.
    Run(RunError),
    /// An output pipe delivered a different number of elements than the
    /// plan's output map expects — a plan/elaboration bug, diagnosed
    /// instead of panicking.
    ShortOutput {
        variable: String,
        got: usize,
        want: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Elab(e) => e.fmt(f),
            ExecError::Run(e) => e.fmt(f),
            ExecError::ShortOutput {
                variable,
                got,
                want,
            } => write!(
                f,
                "output pipe for {variable} returned {got} of {want} elements"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<RunError> for ExecError {
    fn from(e: RunError) -> Self {
        ExecError::Run(e)
    }
}

impl From<ElabError> for ExecError {
    fn from(e: ElabError) -> Self {
        ExecError::Elab(e)
    }
}

/// Restore every output buffer of a finished run into the host store,
/// through the table the inputs were gathered by
/// ([`Elaborated::host_words`]).
fn writeback(
    outputs: &[OutputSpec],
    host_words: &[u32],
    buffers: &[Vec<Value>],
    store: &mut HostStore,
) -> Result<(), ExecError> {
    for out in outputs {
        let values = &buffers[out.output as usize];
        let words = &host_words[out.words.0 as usize..out.words.1 as usize];
        if values.len() != words.len() {
            return Err(ExecError::ShortOutput {
                variable: out.variable.clone(),
                got: values.len(),
                want: words.len(),
            });
        }
        let raw = store.get_mut(&out.variable).raw_mut();
        for (&at, &v) in words.iter().zip(values.iter()) {
            raw[at as usize] = v;
        }
    }
    Ok(())
}

/// Run the plan. `store` supplies the input data; the result store
/// contains everything the array recovered. The cached module is code
/// for a (program, size, store shape); every run, on a module hit and on
/// a miss alike, gathers its own data segment from `store` and executes
/// that code over it. Stores are bit-identical
/// across both engines and every mode — the repo-wide oracle
/// contract; the spec only chooses *how* the identical result is
/// produced. `messages`/`steps`/`processes` are invariant too, except
/// that a wavefront run of a module the optimizer rewrote counts less by
/// exactly what its report itemizes ([`SystolicRun::opt`]); `rounds`
/// (scheduler sweeps) differs between rungs.
pub fn simulate(
    ms: &ModuleStore,
    plan: &SystolicProgram,
    env: &Env,
    store: &HostStore,
    spec: SimSpec,
) -> Result<SystolicRun, ExecError> {
    let SimSpec {
        batch,
        sched,
        elab,
        recorders,
        ..
    } = spec;
    let cm = ms.module(plan, env, store, &elab)?;
    let el = &cm.elab;
    let data = el.gather(store)?;
    // The one gate: every observable feature wins over speed, and the
    // program must fit the par-set mask (a fact of its skeleton).
    let fast = batch == BatchMode::Auto
        && recorders.is_empty()
        && sched.as_ref().is_none_or(|s| s.is_fifo())
        && el.wide.is_none();

    let (stats, sinks, opt_report, kernel_report) = if fast {
        // The optimizer keeps the data segment word for word, so one
        // gather serves whichever module runs.
        let fast_plan = cm.fast_plan();
        let module = &fast_plan.module.with_data(data);
        let kernels = Some(&*fast_plan.kernels);
        let (stats, sinks, report) =
            systolic_runtime::run_wavefront(module, &fast_plan.wavefront, kernels, false)?;
        (stats, sinks, fast_plan.opt_report().cloned(), Some(report))
    } else {
        let mut net = Network::of(&el.module.with_data(data));
        if let Some(s) = sched {
            net.set_schedule_policy(s);
        }
        for r in recorders {
            net.add_recorder(r);
        }
        let (stats, sinks) = net.run_with_outputs()?;
        (stats, sinks, None, None)
    };

    let mut result = store.clone();
    writeback(&el.outputs, &el.host_words, &sinks, &mut result)?;
    Ok(SystolicRun {
        store: result,
        stats,
        census: el.census.clone(),
        engine: ENGINE,
        wavefront: fast,
        opt: opt_report,
        kernel: kernel_report,
    })
}

/// The experiment's input data: a store allocated for `plan` at `env`
/// with the `i`-th named input filled from `seed + i`, values in -9..=9.
/// The seeding convention is shared by the CLI, the service and every
/// bench, so the same (seed, sizes) means the same problem everywhere.
/// Front ends reach it through [`Problem::seeded`], which checks what a
/// request supplied first.
pub fn seeded_store(plan: &SystolicProgram, env: &Env, inputs: &[&str], seed: u64) -> HostStore {
    let mut store = HostStore::allocate(&plan.source, env);
    for (i, name) in inputs.iter().enumerate() {
        store.fill_random(name, seed.wrapping_add(i as u64), -9, 9);
    }
    store
}

/// The most any front end binds, applied alike to a single problem size,
/// to the words of the host store and to the points of the process-space
/// box: two orders of magnitude above the largest problem the tests, CI
/// and the benchmark run, and far below what exhausts memory.
pub const PROBLEM_BUDGET: u64 = 1 << 22;

/// A plan bound to one concrete problem (Sec. 4.2: sizes and data reach
/// the compiled program only through the host): the size environment and
/// the seeded host store.
pub struct Problem {
    pub env: Env,
    pub store: HostStore,
}

/// Why a request's sizes or inputs do not make a problem for the plan;
/// the message names the offender.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProblemError {
    /// The wrong number of sizes, a negative one, an input that is no
    /// variable of the program.
    Invalid(String),
    /// A quantity past [`PROBLEM_BUDGET`].
    TooLarge(String),
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (ProblemError::Invalid(message) | ProblemError::TooLarge(message)) = self;
        f.write_str(message)
    }
}

impl std::error::Error for ProblemError {}

/// `value` of `quantity` against the budget.
fn within_budget(quantity: &str, value: u64) -> Result<u64, ProblemError> {
    if value > PROBLEM_BUDGET {
        return Err(ProblemError::TooLarge(format!(
            "problem too large: {quantity} {value} exceeds the limit {PROBLEM_BUDGET}"
        )));
    }
    Ok(value)
}

/// Points of the box with the given inclusive corners, saturating.
fn volume(corners: impl Iterator<Item = (i64, i64)>) -> u64 {
    corners.fold(1, |acc: u64, (lo, hi)| {
        acc.saturating_mul(hi.saturating_sub(lo).saturating_add(1).max(0) as u64)
    })
}

impl Problem {
    /// One problem size: in `0..=PROBLEM_BUDGET` (0 is the one-point
    /// problem).
    pub fn size(size: i64) -> Result<u64, ProblemError> {
        let negative = || format!("problem sizes must be non-negative (got {size})");
        let value = u64::try_from(size).map_err(|_| ProblemError::Invalid(negative()))?;
        within_budget("problem size", value)
    }

    /// Bind `sizes` to the plan's size parameters, in declaration order —
    /// the only place request values meet size symbols. Checked before
    /// anything is allocated: the arity, every size ([`Problem::size`]),
    /// and the budget on the host store and the process space those
    /// sizes imply.
    pub fn sizes(plan: &SystolicProgram, sizes: &[i64]) -> Result<Env, ProblemError> {
        let source = &plan.source;
        if sizes.len() != source.sizes.len() {
            let names: Vec<&str> = source.sizes.iter().map(|&v| plan.vars.name(v)).collect();
            return Err(ProblemError::Invalid(format!(
                "program {} takes {} size(s), one per size parameter ({}); {} given",
                source.name,
                names.len(),
                names.join(", "),
                sizes.len()
            )));
        }
        let mut env = Env::new();
        for (&v, &size) in source.sizes.iter().zip(sizes) {
            Problem::size(size)?;
            env.bind(v, size);
        }
        let at = |lo: &Affine, hi: &Affine| (lo.eval_int(&env), hi.eval_int(&env));
        let words = source.variables.iter().fold(0u64, |acc, v| {
            acc.saturating_add(volume(v.bounds.iter().map(|(lo, hi)| at(lo, hi))))
        });
        within_budget("host-store words", words)?;
        let corners = plan.ps_min.iter().zip(&plan.ps_max);
        let space = volume(corners.map(|(lo, hi)| at(lo, hi)));
        within_budget("process-space volume", space)?;
        Ok(env)
    }

    /// [`Problem::sizes`], then the store: every name in `inputs` must be
    /// a variable of the program, and the `i`-th is filled from
    /// `seed + i` ([`seeded_store`]).
    pub fn seeded(
        plan: &SystolicProgram,
        sizes: &[i64],
        inputs: &[impl AsRef<str>],
        seed: u64,
    ) -> Result<Problem, ProblemError> {
        let env = Problem::sizes(plan, sizes)?;
        let inputs: Vec<&str> = inputs.iter().map(AsRef::as_ref).collect();
        let declared = |name: &&str| plan.source.variables.iter().any(|v| v.name == **name);
        if let Some(name) = inputs.iter().find(|name| !declared(name)) {
            let unknown = format!("unknown input variable '{name}'");
            return Err(ProblemError::Invalid(unknown));
        }
        let store = seeded_store(plan, &env, &inputs, seed);
        Ok(Problem { env, store })
    }
}

/// Why a differential check failed, with the engine label preserved
/// structurally: service-side checks key their diagnostics on *which*
/// executor misbehaved, which a flat `String` loses.
#[derive(Clone, Debug)]
pub enum VerifyError {
    /// Elaboration (or store writeback) failed before the run could be
    /// compared.
    Setup { message: String },
    /// The named engine stopped with a runtime diagnosis.
    Engine {
        engine: &'static str,
        error: RunError,
    },
    /// The named engine completed, but its store disagrees with the
    /// sequential reference on `variable`.
    Divergence {
        engine: &'static str,
        variable: String,
    },
}

impl VerifyError {
    /// The executor label the failure is attributed to, when one is.
    pub fn engine(&self) -> Option<&'static str> {
        match self {
            VerifyError::Setup { .. } => None,
            VerifyError::Engine { engine, .. } | VerifyError::Divergence { engine, .. } => {
                Some(engine)
            }
        }
    }
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Setup { message } => write!(f, "{message}"),
            VerifyError::Engine { engine, error } => write!(f, "{engine}: {error}"),
            VerifyError::Divergence { engine, variable } => write!(
                f,
                "{engine}: variable {variable} differs between sequential and systolic execution"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The end-to-end equivalence experiment: [`simulate`], then compare
/// every variable of the resulting store against the sequential
/// reference (`systolic_ir::seq`). Failures name the engine that
/// actually ran.
pub fn simulate_verified(
    ms: &ModuleStore,
    plan: &SystolicProgram,
    env: &Env,
    store: &HostStore,
    spec: SimSpec,
) -> Result<SystolicRun, VerifyError> {
    let engine = ENGINE;
    let run = simulate(ms, plan, env, store, spec).map_err(|e| match e {
        ExecError::Run(error) => VerifyError::Engine { engine, error },
        other => VerifyError::Setup {
            message: format!("{engine}: {other}"),
        },
    })?;
    let mut expected = store.clone();
    seq::run(&plan.source, env, &mut expected);
    for name in expected.names() {
        if run.store.get(name) != expected.get(name) {
            return Err(VerifyError::Divergence {
                engine,
                variable: name.to_string(),
            });
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_core::{compile, Options};
    use systolic_runtime::ChanId;
    use systolic_synthesis::placement::paper;

    fn d1(n: i64, seed: u64) -> (SystolicProgram, Env, HostStore) {
        let (p, a) = paper::polyprod_d1();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(plan.source.sizes[0], n);
        let store = seeded_store(&plan, &env, &["a", "b"], seed);
        (plan, env, store)
    }

    /// Reverses each round's firing order and honestly reports
    /// `is_fifo() == false`.
    struct ReversePolicy;

    impl SchedulePolicy for ReversePolicy {
        fn schedule_round(&mut self, _: u64, fire: &mut Vec<ChanId>, _: &mut Vec<ChanId>) {
            fire.reverse();
        }

        fn label(&self) -> String {
            "reverse".into()
        }
    }

    #[test]
    fn a_problem_is_checked_before_anything_is_allocated() {
        let (plan, _, _) = d1(2, 0);
        let seeded = |sizes: &[i64], inputs: &[&str]| {
            Problem::seeded(&plan, sizes, inputs, 1)
                .map(|p| p.store.get("c").len())
                .map_err(|e| e.to_string())
        };
        assert_eq!(seeded(&[0], &["a", "b"]), Ok(1), "the one-point problem");
        assert_eq!(seeded(&[3], &["a", "b"]), Ok(7));
        let err = |sizes: &[i64], inputs: &[&str]| seeded(sizes, inputs).unwrap_err();
        let takes = "takes 1 size(s), one per size parameter (n);";
        assert!(err(&[], &[]).contains(takes), "{}", err(&[], &[]));
        assert!(err(&[3, 3], &[]).contains(takes));
        assert!(err(&[-3], &[]).contains("non-negative (got -3)"));
        assert_eq!(err(&[3], &["a", "z"]), "unknown input variable 'z'");
        // Past the budget: a single size, then the store those sizes imply.
        let over = PROBLEM_BUDGET as i64 + 1;
        assert!(err(&[over], &[]).contains(&format!("problem size {over} exceeds")));
        // a[0..n], b[0..n], c[0..2n] at n = budget / 4: three words over.
        let words = PROBLEM_BUDGET + 3;
        let message = format!("problem too large: host-store words {words} exceeds");
        assert!(err(&[PROBLEM_BUDGET as i64 / 4], &[]).contains(&message));

        // Three cubes of side 3 000 001: the word count is past i64 (and
        // u64) if multiplied naively, and saturates instead of wrapping
        // back under the budget.
        let tensor = systolic_ir::gallery::tensor_contraction();
        let opts = Options {
            step_bound: 1,
            sample_size: 3,
            ..Default::default()
        };
        let plan = systolic_core::systolize(&tensor, &opts).unwrap();
        let ProblemError::TooLarge(message) = Problem::sizes(&plan, &[3_000_000]).unwrap_err()
        else {
            panic!("a size in range whose store is not is too large, not invalid");
        };
        let saturated = format!("host-store words {} exceeds", u64::MAX);
        assert!(message.contains(&saturated), "{message}");
        assert!(Problem::sizes(&plan, &[2]).is_ok());
    }

    #[test]
    fn a_non_fifo_schedule_runs_the_plain_engine() {
        let (plan, env, store) = d1(4, 7);
        let ms = ModuleStore::new();
        let run = simulate_verified(
            &ms,
            &plan,
            &env,
            &store,
            SimSpec {
                sched: Some(Box::new(ReversePolicy)),
                ..SimSpec::default()
            },
        )
        .unwrap();
        assert_eq!(run.engine, "coop");
        assert!(!run.wavefront, "a non-FIFO policy closes the gate");
    }

    #[test]
    fn internal_buffer_ablation() {
        // D.1's stream b has flow 1/2; Sec. 7.6 inserts one buffer per
        // edge to realize the half-speed movement of the synchronous
        // schedule. The *asynchronous* semantics tolerates their removal
        // (results stay correct — rendezvous never loses FIFO order), but
        // the timing changes: the buffers add pipeline slack. We verify
        // correctness in both configurations and that the round counts
        // differ, which is what the ablation benchmark measures.
        let (plan, env, store) = d1(5, 1);
        let ms = ModuleStore::new();
        let with = simulate_verified(&ms, &plan, &env, &store, SimSpec::plain()).unwrap();
        let without = simulate_verified(
            &ms,
            &plan,
            &env,
            &store,
            SimSpec {
                elab: ElabOptions {
                    internal_buffers: false,
                    ..Default::default()
                },
                ..SimSpec::plain()
            },
        )
        .unwrap();
        assert!(with.census.internal_buffers > 0);
        assert_eq!(without.census.internal_buffers, 0);
        assert_ne!(with.stats.rounds, without.stats.rounds, "timing differs");
    }

    #[test]
    fn short_output_pipe_is_a_descriptive_error() {
        // A spec expecting two elements whose pipe delivered one.
        let (_, _, mut store) = d1(2, 0);
        let outputs = vec![OutputSpec {
            variable: "c".into(),
            output: 0,
            words: (0, 2),
        }];
        let err = writeback(&outputs, &[0, 1], &[vec![7]], &mut store).unwrap_err();
        let ExecError::ShortOutput {
            variable,
            got,
            want,
        } = &err
        else {
            panic!("expected ShortOutput, got {err}");
        };
        assert_eq!((variable.as_str(), *got, *want), ("c", 1, 2));
        assert!(err.to_string().contains("returned 1 of 2"));
    }
}
