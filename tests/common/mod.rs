//! Shared by the integration suites: the design corpus and the seeded
//! equivalence experiment.
#![allow(dead_code)]

use systolizer::core::{compile, Options, SystolicProgram};
use systolizer::interp::{
    seeded_store, simulate, simulate_verified, BatchMode, ElabOptions, ExecutorChoice, KernelMode,
    ModuleStore, OptMode, SimSpec, SystolicRun, VerifyError, WavefrontMode,
};
use systolizer::ir::{gallery, seq, HostStore, SourceProgram, Value};
use systolizer::math::Env;
use systolizer::synthesis::{derive_array, placement::paper};

/// Designs `0..CORPUS` of [`prepared`]: the 4 paper appendix designs
/// followed by the 5 gallery programs on derived arrays. Index `CORPUS`
/// is the shipped `programs/fir.sys` through the full front end — its
/// long relay pipes make it a second witness for chain fusion.
pub const CORPUS: usize = 9;

/// A compiled design at one size with its seeded input data.
pub type Prepared = (SystolicProgram, Env, HostStore);

/// Compile one design of the corpus at size `n` (every size parameter),
/// with seeded inputs.
pub fn prepared(design: usize, n: i64, seed: u64) -> Prepared {
    let plan = if design < 4 {
        let (_, p, a) = paper::all().swap_remove(design);
        compile(&p, &a, &Options::default()).unwrap()
    } else if design < CORPUS {
        let p = gallery::all().swap_remove(design - 4);
        let a = derive_array(&p, 2, 4).unwrap();
        compile(&p, &a, &Options::default()).unwrap()
    } else {
        let src = include_str!("../../programs/fir.sys");
        systolizer::systolize_source(src, &Default::default())
            .unwrap()
            .plan
    };
    let mut env = Env::new();
    for &s in &plan.source.sizes {
        env.bind(s, n);
    }
    let inputs: &[&str] = if plan.source.name.starts_with("fir") {
        &["h", "x"]
    } else {
        &["a", "b"]
    };
    let store = seeded_store(&plan, &env, inputs, seed);
    (plan, env, store)
}

/// The oracle's own oracle: the point-by-point sequential walker
/// `ir::seq::run` was until it became a strided walk, written against
/// public API only. Per stream per iteration it looks the variable up by
/// name, applies the index map and goes through the bounds-checked
/// `get`/`set`, so it shares no address arithmetic with `seq::run`.
pub fn seq_reference(program: &SourceProgram, env: &Env, store: &mut HostStore) -> usize {
    let name = |k: usize| program.variables[program.streams[k].variable].name.as_str();
    let written = program.body.streams_written();
    let mut locals: Vec<Value> = vec![0; program.streams.len()];
    let mut count = 0;
    for x in program.index_space_seq(env) {
        for (k, s) in program.streams.iter().enumerate() {
            locals[k] = store.get(name(k)).get(&s.index_map.apply_int(&x));
        }
        program.body.execute(&mut locals, &x);
        for sid in &written {
            let idx = program.streams[sid.0].index_map.apply_int(&x);
            store.get_mut(name(sid.0)).set(&idx, locals[sid.0]);
        }
        count += 1;
    }
    count
}

/// `seq::run` and [`seq_reference`] leave bit-equal stores and count the
/// same statements, starting from `store`. Returns the count.
pub fn assert_seq_matches_reference(
    label: &str,
    program: &SourceProgram,
    env: &Env,
    store: &HostStore,
) -> usize {
    let (mut fast, mut reference) = (store.clone(), store.clone());
    let n_fast = seq::run(program, env, &mut fast);
    let n_reference = seq_reference(program, env, &mut reference);
    assert_eq!(n_fast, n_reference, "{label}: statement counts differ");
    assert_eq!(fast, reference, "{label}: stores differ");
    n_fast
}

/// The rendezvous reference engine under a protocol variant.
pub fn plain_under(elab: ElabOptions) -> SimSpec {
    SimSpec {
        elab,
        ..SimSpec::plain()
    }
}

/// Run a prepared design under `spec` on the process-wide module store.
pub fn run((plan, env, store): &Prepared, spec: SimSpec) -> SystolicRun {
    simulate(ModuleStore::global(), plan, env, store, spec).unwrap()
}

/// Fill `inputs` from `seed`, run `spec` on the process-wide module
/// store, and compare with the sequential reference.
pub fn verify(
    plan: &SystolicProgram,
    env: &Env,
    inputs: &[&str],
    seed: u64,
    spec: SimSpec,
) -> Result<SystolicRun, VerifyError> {
    let store = seeded_store(plan, env, inputs, seed);
    simulate_verified(ModuleStore::global(), plan, env, &store, spec)
}

/// One rung of `simulate`'s ladder (see the diagram in
/// `docs/scheduler.md`): what a [`SimSpec`] can choose besides the
/// program, the data and the protocol variant.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    pub executor: ExecutorChoice,
    pub batch: BatchMode,
    pub opt: OptMode,
    pub wavefront: WavefrontMode,
    pub kernel: KernelMode,
}

impl Rung {
    pub fn spec(self) -> SimSpec {
        SimSpec {
            executor: self.executor,
            batch: self.batch,
            opt: self.opt,
            wavefront: self.wavefront,
            kernel: self.kernel,
            ..SimSpec::default()
        }
    }
}

/// executor × batch × opt, and on the cooperative engine also
/// × wavefront × kernel (inert on the other two).
pub fn rungs() -> Vec<Rung> {
    let mut out = Vec::new();
    for batch in [BatchMode::Auto, BatchMode::Off] {
        for opt in [OptMode::Auto, OptMode::Off] {
            let rung = |executor, wavefront, kernel| Rung {
                executor,
                batch,
                opt,
                wavefront,
                kernel,
            };
            for executor in [
                ExecutorChoice::Threaded,
                ExecutorChoice::Partitioned { workers: 1 },
                ExecutorChoice::Partitioned { workers: 3 },
            ] {
                out.push(rung(executor, WavefrontMode::Auto, KernelMode::Auto));
            }
            for wavefront in [WavefrontMode::Off, WavefrontMode::Auto] {
                for kernel in [KernelMode::Auto, KernelMode::Off] {
                    out.push(rung(ExecutorChoice::Coop, wavefront, kernel));
                }
            }
        }
    }
    out
}
