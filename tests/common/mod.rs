//! Shared by the integration suites: the design corpus, the seeded
//! equivalence experiment, the differential matrix ([`matrix`]) and
//! random basic statements ([`statements`]).
#![allow(dead_code)]

pub mod matrix;
pub mod statements;

use std::sync::{Arc, OnceLock};
use systolizer::core::{compile, Options, StreamKind, SystolicProgram};
use systolizer::interp::{
    seeded_store, simulate, simulate_verified, CachedModule, ElabOptions, ModuleStore, SimSpec,
    SystolicRun, VerifyError,
};
use systolizer::ir::{gallery, seq, HostStore, SourceProgram, Value};
use systolizer::math::Env;
use systolizer::runtime::{
    analyze_wavefront, run_wavefront, BatchPlan, ProcIrModule, ProcOp, RunStats, WavefrontPlan,
    Window,
};
use systolizer::synthesis::{derive_array, placement::paper};

/// Designs `0..CORPUS` of [`prepared`]: the 4 paper appendix designs
/// followed by the 5 gallery programs on derived arrays. Index `CORPUS`
/// is the shipped `programs/fir.sys` through the full front end — its
/// long relay pipes make it a second witness for chain fusion — and
/// [`MATMUL_SYS`] and [`POLYPROD_SYS`] the other two shipped programs.
pub const CORPUS: usize = 9;
pub const MATMUL_SYS: usize = CORPUS + 1;
pub const POLYPROD_SYS: usize = CORPUS + 2;

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

/// A proptest's case count: `default`, or `PROPTEST_CASES` for a deeper
/// run (CI's release jobs).
pub fn env_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A compiled design at one size with its seeded input data.
pub type Prepared = (SystolicProgram, Env, HostStore);

/// The same with the plan shared.
pub type Problem = (Arc<SystolicProgram>, Env, HostStore);

/// The compiled plan of design `design` (see [`CORPUS`]), compiled once
/// per process.
pub fn plan_of(design: usize) -> Arc<SystolicProgram> {
    static PLANS: OnceLock<Vec<Arc<SystolicProgram>>> = OnceLock::new();
    let plans = PLANS.get_or_init(|| {
        let mut plans: Vec<SystolicProgram> = paper::all()
            .into_iter()
            .map(|(_, p, a)| compile(&p, &a, &Options::default()).unwrap())
            .collect();
        for p in gallery::all() {
            let a = derive_array(&p, 2, 4).unwrap();
            plans.push(compile(&p, &a, &Options::default()).unwrap());
        }
        for src in [
            include_str!("../../programs/fir.sys"),
            include_str!("../../programs/matmul.sys"),
            include_str!("../../programs/polyprod.sys"),
        ] {
            let sys = systolizer::systolize_source(src, &Default::default()).unwrap();
            plans.push(sys.plan);
        }
        plans.into_iter().map(Arc::new).collect()
    });
    Arc::clone(&plans[design])
}

/// Design `design` with its size parameters bound to `sizes` in order
/// (one value binds them all), and its inputs seeded.
pub fn problem(design: usize, sizes: &[i64], seed: u64) -> Problem {
    let plan = plan_of(design);
    let env = bind(&plan, sizes);
    let store = seeded_store(&plan, &env, inputs_of(design), seed);
    (plan, env, store)
}

/// `plan`'s size parameters bound to `sizes` in order; one value binds
/// them all.
pub fn bind(plan: &SystolicProgram, sizes: &[i64]) -> Env {
    let mut env = Env::new();
    for (i, &s) in plan.source.sizes.iter().enumerate() {
        env.bind(s, sizes[i.min(sizes.len() - 1)]);
    }
    env
}

/// The input variables of design `design`.
pub fn inputs_of(design: usize) -> &'static [&'static str] {
    match design {
        7 | CORPUS => &["h", "x"],
        MATMUL_SYS => &["a", "b", "c"],
        _ => &["a", "b"],
    }
}

/// Compile one design of the corpus at size `n` (every size parameter),
/// with seeded inputs.
pub fn prepared(design: usize, n: i64, seed: u64) -> Prepared {
    let (plan, env, store) = problem(design, &[n], seed);
    ((*plan).clone(), env, store)
}

/// The committed golden file `tests/golden/<name>`.
pub fn read_golden(name: &str) -> String {
    let path = golden_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {path:?}; run with UPDATE_GOLDEN=1"))
}

pub fn golden_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// `actual` must be the golden file `name` byte for byte; with
/// `UPDATE_GOLDEN` set it becomes it.
pub fn check_golden(name: &str, actual: &str) {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(golden_dir().join(name), actual).unwrap();
        return;
    }
    assert_eq!(
        actual,
        read_golden(name),
        "generated text for {name} changed; review and regenerate with UPDATE_GOLDEN=1"
    );
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
/// this module — one and the same plan unless the optimizer rewrote the
/// module. Returns how many distinct plans it checked.
pub fn check_wavefront_plans(label: &str, cm: &CachedModule) -> usize {
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

/// The op law of the elaborator: no process of an elaborated module
/// holds a zero-count `Pass`/`Compute`, two consecutive `Pass` ops over
/// one channel pair, or a `Keep` followed by an `Eject` of the same slot
/// on another channel. Relay fusion is then the only rewrite the module
/// admits, and the only one `systolic_runtime::optimize` makes. Returns
/// the module's single-`Pass` processes: its relays.
pub fn assert_lean_ops(label: &str, module: &ProcIrModule) -> usize {
    let mut relays = 0;
    for pid in 0..module.procs.len() {
        let ops = module.ops_of(pid);
        let at = |what: &str, i: usize| format!("{label}: {} op {i}: {what}", module.label_of(pid));
        for (i, op) in ops.iter().enumerate() {
            let zero = matches!(op, ProcOp::Pass { n: 0, .. } | ProcOp::Compute { count: 0 });
            assert!(!zero, "{}", at("a zero-count op", i));
        }
        for (i, w) in ops.windows(2).enumerate() {
            let shape = match (w[0], w[1]) {
                (ProcOp::Pass { inp: a, out: b, .. }, ProcOp::Pass { inp: c, out: d, .. }) => {
                    ((a, b) == (c, d)).then_some("two passes over one pair")
                }
                (ProcOp::Keep { chan: ci, slot: a }, ProcOp::Eject { chan: co, slot: b }) => {
                    (a == b && ci != co).then_some("a keep/eject of one slot")
                }
                _ => None,
            };
            assert_eq!(shape.map(|what| at(what, i)), None);
        }
        relays += matches!(ops, [ProcOp::Pass { .. }]) as usize;
    }
    relays
}
