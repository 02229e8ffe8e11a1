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

/// Compile a `rustgen` program with `rustc` (`-O` when `optimized`, else
/// the debug profile with its overflow checks), run it, and hold it to
/// its embedded self-check against the sequential reference.
pub fn compile_and_run(name: &str, source: &str, optimized: bool) {
    use std::process::Command;
    let dir = std::env::temp_dir().join(format!("systolizer-gen-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src_path = dir.join(format!("{name}.rs"));
    let bin_path = dir.join(name);
    std::fs::write(&src_path, source).unwrap();

    let out = Command::new("rustc")
        .args(optimized.then_some("-O"))
        .arg("-o")
        .arg(&bin_path)
        .arg(&src_path)
        .output()
        .expect("rustc available");
    assert!(
        out.status.success(),
        "{name}: generated program failed to compile:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let run = Command::new(&bin_path)
        .output()
        .expect("run generated binary");
    assert!(
        run.status.success(),
        "{name}: generated program failed its self-check:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("all pipes verified"), "{name}: {stdout}");

    let _ = std::fs::remove_dir_all(&dir);
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

/// Each distinct execution once. The fast rungs are the cooperative
/// executor's: plain, batched × opt, wavefront × opt × kernel; the
/// OS-thread engine has the plain rung only — `threaded`, and
/// `partitioned` at 1 and 3 workers. A gate that cannot matter on a rung
/// is spelled `Off` here; [`inert_rungs`] spells it `Auto`.
pub fn rungs() -> Vec<Rung> {
    use ExecutorChoice::{Coop, Partitioned, Threaded};
    let plain = |executor| Rung {
        executor,
        batch: BatchMode::Off,
        opt: OptMode::Off,
        wavefront: WavefrontMode::Off,
        kernel: KernelMode::Off,
    };
    let mut out = vec![
        plain(Coop),
        plain(Threaded),
        plain(Partitioned { workers: 1 }),
        plain(Partitioned { workers: 3 }),
    ];
    for opt in [OptMode::Auto, OptMode::Off] {
        let fast = |wavefront, kernel| Rung {
            batch: BatchMode::Auto,
            opt,
            wavefront,
            kernel,
            ..plain(Coop)
        };
        out.push(fast(WavefrontMode::Off, KernelMode::Off));
        for kernel in [KernelMode::Auto, KernelMode::Off] {
            out.push(fast(WavefrontMode::Auto, kernel));
        }
    }
    out
}

/// Specs whose `Auto` gates must do nothing: the OS-thread engine under
/// the default gates, and the cooperative one with the batching gate —
/// which the other three ride — shut. Each lands on its executor's plain
/// rung.
pub fn inert_rungs() -> Vec<Rung> {
    let auto = |executor, batch| Rung {
        executor,
        batch,
        opt: OptMode::Auto,
        wavefront: WavefrontMode::Auto,
        kernel: KernelMode::Auto,
    };
    vec![
        auto(ExecutorChoice::Partitioned { workers: 3 }, BatchMode::Auto),
        auto(ExecutorChoice::Threaded, BatchMode::Auto),
        auto(ExecutorChoice::Coop, BatchMode::Off),
    ]
}
