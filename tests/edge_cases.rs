//! Edge-case integration tests: degenerate problem sizes, minimal
//! arrays, asymmetric bounds, and failure surfaces.

mod common;

use common::{verify, LOCKSTEP_SRC};
use systolizer::core::{compile, Options};
use systolizer::interp::{simulate, ModuleStore, SimSpec};
use systolizer::math::Env;
use systolizer::synthesis::placement::paper;

fn env1(p: &systolizer::ir::SourceProgram, n: i64) -> Env {
    let mut env = Env::new();
    env.bind(p.sizes[0], n);
    env
}

#[test]
fn n_zero_degenerates_to_one_process() {
    // n = 0: a single basic statement; the array is one process plus its
    // i/o. Every design must still work.
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let env = env1(&p, 0);
        let stats = verify(&plan, &env, &["a", "b"], 1, SimSpec::plain())
            .unwrap_or_else(|e| panic!("{label}: {e}"))
            .stats;
        assert!(stats.processes >= 3, "{label}: at least comp + i/o");
    }
}

#[test]
fn n_one_smallest_nontrivial() {
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let env = env1(&p, 1);
        verify(&plan, &env, &["a", "b"], 2, SimSpec::plain())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn asymmetric_bounds_with_offsets() {
    // Loops over [2 .. n+2] and [-1 .. n]: exercises non-zero lower
    // bounds everywhere (basis, faces, guards, pipes).
    use systolizer::ir::{gallery, IndexedVar};
    use systolizer::math::Affine;
    let mut p = gallery::polynomial_product();
    let n = p.sizes[0];
    let two = Affine::int(2);
    let minus_one = Affine::int(-1);
    p.loops[0].lb = two.clone();
    p.loops[0].rb = Affine::var(n) + two.clone();
    p.loops[1].lb = minus_one.clone();
    p.loops[1].rb = Affine::var(n);
    // Variable spaces must cover the accessed elements:
    // a[i] over [2, n+2]; b[j] over [-1, n]; c[i+j] over [1, 2n+2].
    p.variables = vec![
        IndexedVar {
            name: "a".into(),
            bounds: vec![(two.clone(), Affine::var(n) + two.clone())],
        },
        IndexedVar {
            name: "b".into(),
            bounds: vec![(minus_one.clone(), Affine::var(n))],
        },
        IndexedVar {
            name: "c".into(),
            bounds: vec![(
                Affine::int(1),
                Affine::var(n).scale(systolizer::math::Rational::int(2)) + two,
            )],
        },
    ];
    let a = systolizer::synthesis::derive_array(&p, 2, 5).expect("array");
    let plan = compile(&p, &a, &Options::default()).unwrap();
    for n_val in [0i64, 1, 4, 7] {
        let env = env1(&p, n_val);
        verify(&plan, &env, &["a", "b"], 4, SimSpec::plain())
            .unwrap_or_else(|e| panic!("n={n_val}: {e}"));
    }
}

#[test]
fn rectangular_not_square_index_space() {
    // FIR with wildly different extents in the two loops.
    let p = systolizer::ir::gallery::fir_filter();
    let a = systolizer::synthesis::derive_array(&p, 2, 4).unwrap();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    for (n, m) in [(0i64, 0i64), (0, 9), (5, 0), (1, 20), (6, 2)] {
        let mut env = Env::new();
        env.bind(p.sizes[0], n).bind(p.sizes[1], m);
        verify(&plan, &env, &["h", "x"], 6, SimSpec::plain())
            .unwrap_or_else(|e| panic!("(n,m)=({n},{m}): {e}"));
    }
}

#[test]
fn tensor_r4_runs_at_small_sizes() {
    let p = systolizer::ir::gallery::tensor_contraction();
    let a = systolizer::synthesis::derive_array(&p, 1, 3).unwrap();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    for n in [0i64, 1, 2] {
        let env = env1(&p, n);
        verify(&plan, &env, &["a", "b"], 8, SimSpec::plain())
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
    }
}

#[test]
fn kung_leiserson_tensor_style_place_for_r4() {
    // A non-simple place for the r = 4 kernel: project along (1,1,0,1)
    // if valid, else fall back to enumeration and pick any non-simple one.
    let p = systolizer::ir::gallery::tensor_contraction();
    let step = systolizer::synthesis::optimal_step(&p, 1, 3).unwrap();
    let arrays = systolizer::synthesis::enumerate_places(&p, &step);
    let non_simple = arrays.iter().find(|a| {
        a.projection_direction()
            .map(|u| u.iter().filter(|&&c| c != 0).count() > 1)
            .unwrap_or(false)
    });
    if let Some(a) = non_simple {
        let plan = compile(&p, a, &Options::default()).unwrap();
        let env = env1(&p, 1);
        verify(&plan, &env, &["a", "b"], 9, SimSpec::plain()).unwrap();
    }
}

#[test]
fn all_zero_inputs_roundtrip() {
    // Zero data must still be injected, propagated, and recovered
    // (counts, not values, drive the protocol).
    let (p, a) = paper::matmul_e2();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let env = env1(&p, 3);
    let store = systolizer::ir::HostStore::allocate(&p, &env);
    let run = simulate(ModuleStore::global(), &plan, &env, &store, SimSpec::plain()).unwrap();
    assert_eq!(run.store, store, "all-zero store is a fixed point");
}

#[test]
fn cli_renders_deadlock_as_a_message_not_a_panic() {
    use systolizer::cli::{execute, parse_args};
    // `--batch off`: the rendezvous engine is the deadlock oracle. The
    // fast engine's ring slack elides this protocol deadlock (see the
    // companion test below and the caveat in docs/scheduler.md).
    let raw: Vec<String> = [
        "verify", "f.sys", "--sizes", "2", "--bound", "1", "--batch", "off",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let inv = parse_args(&raw).unwrap();
    let err = execute(&inv, LOCKSTEP_SRC).expect_err("deadlocks under the paper protocol");
    assert!(err.contains("FAILED"), "{err}");
    assert!(err.contains("deadlock"), "{err}");
    // The diagnosis names blocked processes and their channel endpoints.
    assert!(err.contains("recv@") || err.contains("send@"), "{err}");
}

/// The deliberate flip side: under the default full-auto modes, the ring
/// slack of the fast-path engines lets the lockstep design *complete* —
/// and the result is still verified against the sequential reference, so
/// what the paper's strict rendezvous protocol turns into a deadlock is,
/// semantically, only a scheduling artifact. The default ladder lands on
/// the wavefront rung, whose batch-proven rings give the slack. The
/// strict diagnosis remains available via `--batch off` (previous test)
/// and is pinned on the rendezvous engine in
/// `tests/protocol_findings.rs`.
#[test]
fn cli_batched_slack_rescues_the_lockstep_deadlock_correctly() {
    use systolizer::cli::{execute, parse_args};
    let raw: Vec<String> = ["verify", "f.sys", "--sizes", "2", "--bound", "1"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let inv = parse_args(&raw).unwrap();
    let out = execute(&inv, LOCKSTEP_SRC).expect("ring slack completes the lockstep design");
    assert!(out.contains("OK:"), "{out}");
    assert!(out.contains("[wavefront"), "{out}");
}

#[test]
fn cli_split_protocol_rescues_the_lockstep_design() {
    use systolizer::cli::{execute, parse_args};
    let raw: Vec<String> = [
        "verify",
        "f.sys",
        "--sizes",
        "2",
        "--bound",
        "1",
        "--protocol",
        "split",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let inv = parse_args(&raw).unwrap();
    let out = execute(&inv, LOCKSTEP_SRC).unwrap();
    assert!(out.contains("OK:"), "{out}");
}

#[test]
fn repeated_runs_are_deterministic() {
    let (p, a) = paper::polyprod_d2();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let env = env1(&p, 5);
    let s1 = verify(&plan, &env, &["a", "b"], 42, SimSpec::plain()).unwrap();
    let s2 = verify(&plan, &env, &["a", "b"], 42, SimSpec::plain()).unwrap();
    assert_eq!(s1.stats, s2.stats, "cooperative scheduler is deterministic");
}

/// An update whose value leaves `i64` within three iterations.
const OVERFLOW_SRC: &str = "
    program overflow;
    size n;
    var a[0..n], b[0..n], c[0..2*n];
    for i = 0 <- 1 -> n
    for j = 0 <- 1 -> n {
      c[i+j] = c[i+j] * c[i+j] * a[i] + b[j] * 1000003;
    }
";

/// Integer overflow has one law, two's-complement wrapping, in every
/// evaluator and build profile: the sequential oracle
/// (`ScalarExpr::eval`), the kernel tape (`Kernel::run`) one lane wide —
/// the scalar VMs — and struct-of-arrays, and the printed tape, the
/// generated Rust program, with and without `-O`.
#[test]
fn integer_overflow_wraps_alike_in_every_evaluator() {
    let sys = systolizer::systolize_source(OVERFLOW_SRC, &Default::default()).unwrap();

    // One evaluation that wraps, every local the same value.
    let v: i64 = (1 << 40) + 7;
    assert!(v.checked_mul(v).is_none(), "the square leaves i64");
    let wrapped = v
        .wrapping_mul(v)
        .wrapping_mul(v)
        .wrapping_add(v.wrapping_mul(1000003));
    let target = sys.source.body.updates[0].target.0;
    let mut via_eval = vec![v; sys.source.streams.len()];
    let mut via_tape = via_eval.clone();
    sys.source.body.execute(&mut via_eval, &[0, 0]);
    let kernel = systolizer::interp::kernelize(&sys.source.body);
    kernel.run(&mut vec![0; kernel.ops.len()], &mut via_tape, &[0, 0], 1);
    assert_eq!(via_eval[target], wrapped);
    assert_eq!(via_tape, via_eval);

    // Every rung against the oracle, under this test's own profile; the
    // default rung runs the update on the struct-of-arrays tape.
    let env = sys.size_env(&[12]).unwrap();
    for rung in common::rungs() {
        verify(&sys.plan, &env, &["a", "b", "c"], 7, rung.spec())
            .unwrap_or_else(|e| panic!("{rung:?}: {e}"));
    }
    let run = verify(&sys.plan, &env, &["a", "b", "c"], 7, SimSpec::default()).unwrap();
    assert!(run.kernel.is_some_and(|k| k.waves_fused > 0));
    let max = run.store.get("c").raw().iter().map(|c| c.unsigned_abs());
    assert!(max.max() > Some(1 << 62), "the run must really overflow");

    let program = systolizer::interp::rustgen::generate_rust(&sys.plan, &env, 7);
    common::compile_and_run("overflow-opt", &program, true);
    common::compile_and_run("overflow-debug", &program, false);
}

/// `c[i] = c[i] + a0[j] + … + a{arrays-1}[j]` over `for i, j = 0..n`.
fn wide_source(arrays: usize) -> String {
    let names: Vec<String> = (0..arrays).map(|k| format!("a{k}")).collect();
    let vars: String = names.iter().map(|a| format!(", {a}[0..n]")).collect();
    let sum: String = names.iter().map(|a| format!(" + {a}[j]")).collect();
    format!(
        "program wide;\nsize n;\nvar c[0..n]{vars};\n\
         for i = 0 <- 1 -> n\nfor j = 0 <- 1 -> n {{\n  c[i] = c[i]{sum};\n}}\n"
    )
}

/// 65 moving streams give every computation process 65 moving links,
/// one past the par-set mask of the fast engine's op step
/// (`systolic_runtime::MAX_MOVING_LINKS`). The program is a working one:
/// under both protocols `verify` runs it on the plain engine (no
/// `[wavefront…]` marker) and its store equals the sequential oracle's,
/// and the metrics document's `wavefront` section names the cap. The
/// 64-array twin takes the fast path.
#[test]
fn a_program_past_the_par_set_mask_runs_on_the_plain_engine() {
    use systolizer::cli::{execute, parse_args};
    use systolizer::runtime::json::{parse, Json};
    let verify_cli = |src: &str, protocol: &str, extra: &[&str]| {
        let mut raw = vec!["verify", "wide.sys", "--sizes", "2", "--protocol", protocol];
        raw.extend(extra);
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        execute(&parse_args(&raw).unwrap(), src).unwrap()
    };
    let (wide, twin) = (wide_source(65), wide_source(64));
    let metrics = std::env::temp_dir().join(format!("systolizer-wide-{}", std::process::id()));
    let path = metrics.to_str().unwrap();
    for protocol in ["paper", "split"] {
        let out = verify_cli(&wide, protocol, &["--metrics", path]);
        assert!(out.starts_with("OK:"), "{protocol}: {out}");
        assert!(!out.contains("[wavefront"), "{protocol}: {out}");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let _ = std::fs::remove_file(path);
        let wavefront = doc.get("wavefront").unwrap();
        assert_eq!(wavefront.get("eligible"), Some(&Json::Bool(false)));
        let reason = wavefront.get("reason").and_then(Json::as_str).unwrap();
        assert_eq!(
            reason,
            "65 moving streams exceed the 64-link par-set mask (runs on the rendezvous engine)"
        );

        let out = verify_cli(&twin, protocol, &[]);
        assert!(out.contains("[wavefront"), "{protocol}, 64 arrays: {out}");
    }

    // The library gate says the same, and the store is the oracle's.
    let sys = systolizer::systolize_source(&wide, &Default::default()).unwrap();
    let env = sys.size_env(&[2]).unwrap();
    let inputs = sys.source.variable_names();
    let run = verify(&sys.plan, &env, &inputs, 5, SimSpec::default()).unwrap();
    assert!(!run.wavefront, "the gate keeps it on the plain engine");
}
