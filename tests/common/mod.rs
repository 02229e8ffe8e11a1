//! Shared by the integration suites: the design corpus and the seeded
//! equivalence experiment.
#![allow(dead_code)]

use systolizer::core::{compile, Options, SystolicProgram};
use systolizer::interp::{
    seeded_store, simulate, simulate_verified, BatchMode, ElabOptions, ModuleStore, SimSpec,
    SystolicRun, VerifyError,
};
use systolizer::ir::{gallery, seq, HostStore, SourceProgram, Value};
use systolizer::math::Env;
use systolizer::runtime::{
    analyze_wavefront, check, run_wavefront, BatchPlan, ProcIrModule, ProcOp, RunStats,
    WavefrontPlan, Window,
};
use systolizer::synthesis::{derive_array, placement::paper};

/// Designs `0..CORPUS` of [`prepared`]: the 4 paper appendix designs
/// followed by the 5 gallery programs on derived arrays. Index `CORPUS`
/// is the shipped `programs/fir.sys` through the full front end — its
/// long relay pipes make it a second witness for chain fusion.
pub const CORPUS: usize = 9;

/// Every elaboration-options variant the executors can request.
pub fn option_variants() -> Vec<(&'static str, ElabOptions)> {
    vec![
        ("default", ElabOptions::default()),
        (
            "split_propagation",
            ElabOptions {
                split_propagation: true,
                ..Default::default()
            },
        ),
        (
            "merge_io",
            ElabOptions {
                merge_io: true,
                ..Default::default()
            },
        ),
        (
            "no_internal_buffers",
            ElabOptions {
                internal_buffers: false,
                ..Default::default()
            },
        ),
    ]
}

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

/// The lockstep counterexample (see tests/protocol_findings.rs) in the
/// front-end syntax: streams `a` and `c` share the index map `i+j`, the
/// outer loop is one longer — the paper protocol deadlocks on it at
/// n = 2 under step bound 1.
pub const LOCKSTEP_SRC: &str = "
    program lockstep;
    size n;
    var a[0..2*n+1], b[0..n+1], c[0..2*n+1];
    for i = 0 <- 1 -> n+1
    for j = 0 <- 1 -> n {
      c[i+j] = c[i+j] + a[i+j] * b[i];
    }
";

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
    pub batch: BatchMode,
}

impl Rung {
    pub fn spec(self) -> SimSpec {
        SimSpec {
            batch: self.batch,
            ..SimSpec::default()
        }
    }
}

/// Each distinct execution once: the plain rendezvous rung and the
/// wavefront rung, whose eligible chunks always take the kernels
/// ([`assert_kernels_match_the_scalar_sweep`] holds them to the sweep the
/// rest take).
pub fn rungs() -> Vec<Rung> {
    vec![
        Rung {
            batch: BatchMode::Off,
        },
        Rung {
            batch: BatchMode::Auto,
        },
    ]
}

/// The kernel path held to the runtime's scalar reference. The cached
/// fast plan of `prepared` runs through `run_wavefront` with its kernel
/// plan and without one — the scalar sweep every ineligible chunk takes —
/// over the problem's own data. The two runs must have equal stats
/// (rounds included) and sinks. Both must equal `simulate`'s default run:
/// its stats and kernel report are the kernel run's, and its store is
/// that of the plain rung, which `simulate_verified` holds to the
/// sequential oracle. Its counts are the plain rung's by the optimizer's
/// count law. Returns the default run.
pub fn assert_kernels_match_the_scalar_sweep(
    ctx: &str,
    ms: &ModuleStore,
    prepared: &Prepared,
) -> SystolicRun {
    let (plan, env, store) = prepared;
    let plain = simulate_verified(ms, plan, env, store, SimSpec::plain())
        .unwrap_or_else(|e| panic!("{ctx}: plain rung: {e}"));
    let run = simulate(ms, plan, env, store, SimSpec::default())
        .unwrap_or_else(|e| panic!("{ctx}: default run: {e}"));
    assert!(run.wavefront, "{ctx}: the default run is a wavefront run");
    assert_eq!(run.store, plain.store, "{ctx}: default run vs plain rung");
    assert_count_law(ctx, &plain.stats, &run);

    let cm = ms
        .module(plan, env, store, &ElabOptions::default())
        .unwrap();
    let (el, fast) = (&cm.elab, cm.fast_plan());
    let module = fast.module.with_data(el.gather(store).unwrap());
    let (kstats, ksinks, report) =
        run_wavefront(&module, &fast.wavefront, Some(&fast.kernels), false).unwrap();
    let (sstats, ssinks, _) = run_wavefront(&module, &fast.wavefront, None, false).unwrap();
    assert_eq!(kstats, sstats, "{ctx}: kernels vs scalar sweep");
    assert_eq!(ksinks, ssinks, "{ctx}: kernels vs scalar sweep");
    assert_eq!(
        kstats, run.stats,
        "{ctx}: the default run is the kernel run"
    );
    assert_eq!(Some(report), run.kernel, "{ctx}: kernel report");
    for out in &el.outputs {
        let raw = plain.store.get(&out.variable).raw();
        let want: Vec<_> = el
            .words_of(out)
            .iter()
            .map(|&at| raw[at as usize])
            .collect();
        assert_eq!(ksinks[out.output as usize], want, "{ctx}: {}", out.variable);
    }
    run
}

/// The optimizer's count law (`systolic_runtime::opt`): a run counts
/// less than the plain run of the same elaboration by exactly what its
/// report itemizes — per relay of a chain with traffic `t`, `t` messages,
/// `2t + 1` steps and one process — and a run the optimizer did not
/// rewrite counts the same.
pub fn assert_count_law(ctx: &str, plain: &RunStats, run: &SystolicRun) {
    let (mut relays, mut moved) = (0u64, 0u64);
    for chain in run.opt.iter().flat_map(|r| &r.chains) {
        relays += chain.relays.len() as u64;
        moved += chain.relays.len() as u64 * chain.traffic;
    }
    let stats = &run.stats;
    assert_eq!(plain.messages, stats.messages + moved, "{ctx}: messages");
    assert_eq!(
        plain.steps,
        stats.steps + 2 * moved + relays,
        "{ctx}: steps"
    );
    let processes = stats.processes as u64 + relays;
    assert_eq!(plain.processes as u64, processes, "{ctx}: processes");
}

/// Check a [`WavefrontPlan`] against the module it was derived from,
/// re-deriving the window graph value by value (no interval arithmetic
/// shared with `analyze_wavefront`):
///
/// - the windows of a process are contiguous, ordered, and tile its ops
///   exactly; only the last ends where the record ends; a repeater is a
///   window of its own;
/// - per channel, the values the windows send and the values they
///   receive both sum to `BatchPlan::traffic`;
/// - every edge — program order between consecutive windows of a
///   process, and the window that sends a channel's k-th value to the
///   window that receives it — joins windows of one chunk or strictly
///   increases the wave;
/// - every chunk of more than one window really is strongly connected;
/// - `neighbors` holds whatever a blocked window can be waiting for: the
///   chunk at the other end of every edge, and on a channel busier than
///   its ring the chunk that receives the value one capacity before
///   each value sent (a full ring blocks the sender until it is popped).
pub fn check_wavefront_plan(
    label: &str,
    module: &ProcIrModule,
    batch: &BatchPlan,
    wf: &WavefrontPlan,
) {
    // Every window with its chunk and wave, in (pid, program) order.
    let mut nodes: Vec<(Window, usize, usize)> = Vec::new();
    let mut next_chunk = 0;
    for w in 0..wf.n_waves() {
        let wave = wf.wave(w);
        assert_eq!(wave.start, next_chunk, "{label}: waves tile the chunks");
        assert!(!wave.is_empty(), "{label}: wave {w} is empty");
        next_chunk = wave.end;
        for k in wave {
            assert!(!wf.chunk(k).is_empty(), "{label}: chunk {k} is empty");
            nodes.extend(wf.chunk(k).iter().map(|&win| (win, k, w)));
        }
    }
    assert_eq!(next_chunk, wf.n_chunks(), "{label}: waves tile the chunks");
    nodes.sort_by_key(|(win, ..)| (win.pid, win.start));

    let mut edges: Vec<(usize, usize)> = Vec::new();
    // Per channel, the window that moves each value, in value order.
    let mut sent: Vec<Vec<usize>> = vec![Vec::new(); module.n_chans];
    let mut received = sent.clone();
    let mut at = 0;
    for (pid, rec) in module.procs.iter().enumerate() {
        let mut pc = rec.ops.0;
        loop {
            let (win, ..) = nodes[at];
            let ctx = format!("{label}: process {pid} ({}), window {win:?}", rec.label);
            assert_eq!((win.pid as usize, win.start), (pid, pc), "{ctx}: tiling");
            assert!(win.end <= rec.ops.1, "{ctx}: past the record");
            assert!(
                win.end > win.start || rec.ops.0 == rec.ops.1,
                "{ctx}: empty"
            );
            for op in &module.ops[win.start as usize..win.end as usize] {
                let repeater = matches!(op, ProcOp::Compute { count } if *count > 0);
                assert!(
                    !repeater || win.end - win.start == 1,
                    "{ctx}: uncut repeater"
                );
                assert_eq!(repeater, win.is_compute(module), "{ctx}");
                let mut moves = |out: bool, chan: usize, n: u64| {
                    let side = if out { &mut sent } else { &mut received };
                    side[chan].extend(std::iter::repeat_n(at, n as usize));
                };
                match *op {
                    ProcOp::Emit { chan } | ProcOp::Eject { chan, .. } => moves(true, chan, 1),
                    ProcOp::Collect { chan } | ProcOp::Keep { chan, .. } => moves(false, chan, 1),
                    ProcOp::Pass { inp, out, n } => {
                        moves(false, inp, n);
                        moves(true, out, n);
                    }
                    ProcOp::Compute { count } => {
                        for mc in module.moving_of(pid) {
                            moves(false, mc.inp, count);
                            moves(true, mc.out, count);
                        }
                    }
                }
            }
            pc = win.end;
            at += 1;
            if pc == rec.ops.1 {
                break;
            }
            edges.push((at - 1, at));
        }
    }
    assert_eq!(at, nodes.len(), "{label}: windows beyond the processes");
    for c in 0..module.n_chans {
        let traffic = batch.traffic[c] as usize;
        assert_eq!(sent[c].len(), traffic, "{label}: channel {c} sends");
        assert_eq!(received[c].len(), traffic, "{label}: channel {c} receives");
        edges.extend(sent[c].iter().copied().zip(received[c].iter().copied()));
    }
    edges.retain(|(u, v)| u != v);
    edges.sort_unstable();
    edges.dedup();

    for &(u, v) in &edges {
        let ((a, ka, wa), (b, kb, wb)) = (nodes[u], nodes[v]);
        assert!(
            ka == kb || wa < wb,
            "{label}: edge {a:?} (chunk {ka}, wave {wa}) -> {b:?} (chunk {kb}, wave {wb})"
        );
    }
    let wakes = |by: usize, k: usize| by == k || wf.neighbors(by).contains(&(k as u32));
    for &(u, v) in &edges {
        let ((a, ka, _), (b, kb, _)) = (nodes[u], nodes[v]);
        assert!(
            wakes(ka, kb) && wakes(kb, ka),
            "{label}: {a:?} and {b:?} share an edge and are not neighbours"
        );
    }
    for c in 0..module.n_chans {
        let cap = wf.capacities[c] as usize;
        for (&u, &v) in sent[c].iter().skip(cap).zip(&received[c]) {
            let ((a, ka, _), (b, kb, _)) = (nodes[u], nodes[v]);
            assert!(
                wakes(kb, ka),
                "{label}: channel {c}: {a:?} can block on the full ring and {b:?} drains it"
            );
        }
    }
    for k in (0..wf.n_chunks()).filter(|&k| wf.chunk(k).len() > 1) {
        let inside = |&&(u, v): &&(usize, usize)| nodes[u].1 == k && nodes[v].1 == k;
        let inside: Vec<(usize, usize)> = edges.iter().filter(inside).copied().collect();
        let root = nodes.iter().position(|n| n.1 == k).unwrap();
        for forward in [true, false] {
            let mut seen = vec![root];
            let mut next = 0;
            while let Some(&u) = seen.get(next) {
                next += 1;
                for &(a, b) in &inside {
                    let (from, to) = if forward { (a, b) } else { (b, a) };
                    if from == u && !seen.contains(&to) {
                        seen.push(to);
                    }
                }
            }
            assert_eq!(
                seen.len(),
                wf.chunk(k).len(),
                "{label}: chunk {k} is not strongly connected (forward: {forward})"
            );
        }
    }
}

/// [`check_wavefront_plan`] on the elaborated module's plan, built
/// through the runtime API, and on the fast plan `simulate` takes for
/// this problem off `ms` — one and the same plan unless the optimizer
/// rewrote the module. Returns how many distinct plans it checked.
pub fn check_wavefront_plans(label: &str, ms: &ModuleStore, prepared: &Prepared) -> usize {
    let (plan, env, store) = prepared;
    let cm = ms
        .module(plan, env, store, &ElabOptions::default())
        .unwrap();
    let elaborated = analyze_wavefront(&cm.elab.module, cm.batch_plan(), &[]);
    check_wavefront_plan(
        &format!("{label}, as elaborated"),
        &cm.elab.module,
        cm.batch_plan(),
        &elaborated,
    );
    let fast = cm.fast_plan();
    let Some(od) = &fast.optimized else {
        assert_eq!(
            *fast.wavefront, elaborated,
            "{label}: the optimizer declined"
        );
        return 1;
    };
    check_wavefront_plan(
        &format!("{label}, optimized"),
        &od.0.module,
        &od.1,
        &fast.wavefront,
    );
    2
}

/// The channel law on one problem: the channel tables the elaborator
/// recorded equal, field by field, the walk of the module's ops
/// (`systolic_runtime::check`, called here so that release builds run it
/// too), and so do the tables the optimizer mapped onto the fused
/// module; and the default run takes the fast engine. The run may
/// deadlock (the paper protocol on some random designs); the tables are
/// checked anyway. Returns the modules checked: 2 when the optimizer
/// rewrote the module, else 1.
pub fn assert_channel_law(
    label: &str,
    ms: &ModuleStore,
    prepared: &Prepared,
    elab: &ElabOptions,
) -> usize {
    let (plan, env, store) = prepared;
    let cm = ms.module(plan, env, store, elab).unwrap();
    assert_eq!(check(&cm.elab.module, cm.batch_plan()), Ok(()), "{label}");
    assert_eq!(cm.elab.wide, None, "{label}: within the par-set mask");
    let fast = cm.fast_plan();
    if let Some(od) = &fast.optimized {
        assert_eq!(check(&od.0.module, &od.1), Ok(()), "{label}, fused");
    }
    let spec = SimSpec {
        elab: elab.clone(),
        ..SimSpec::default()
    };
    if let Ok(run) = simulate(ms, plan, env, store, spec) {
        assert!(run.wavefront, "{label}: the default run is a fast run");
    }
    1 + fast.optimized.is_some() as usize
}
