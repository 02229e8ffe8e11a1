//! Regression tests for the two reproduction findings about the paper's
//! data-propagation protocol (recorded in EXPERIMENTS.md).
//!
//! 1. The sequential-phase protocol (load / soak per stream / repeater /
//!    drain per stream / recover) is *not* deadlock-free for every valid
//!    design: when two streams share an index map their pipes move in
//!    lock-step, and a downstream cell soaking one stream refuses the
//!    repeater's par-send of the other — a circular wait. The paper's
//!    own designs never hit this; a fuzzer-generated valid program does.
//! 2. The split-propagation protocol (per-stream escort processes,
//!    within the paper's "only one of many possible choices" latitude)
//!    executes the same plans deadlock-free.

mod common;

use common::{plain_under, verify};
use systolizer::core::{compile, Options};
use systolizer::interp::{ElabOptions, SimSpec};
use systolizer::ir::expr::build::*;
use systolizer::ir::{
    program::covering_bounds, BasicStatement, IndexedVar, Loop, SourceProgram, Stream,
};
use systolizer::math::{Affine, Env, Matrix, VarTable};
use systolizer::synthesis::placement::paper;

/// The minimal fuzzer counterexample: streams `a` and `c` share the
/// index map `(i + j)`; `b` uses `(i)`; outer loop one longer.
fn lockstep_program() -> SourceProgram {
    let mut vars = VarTable::new();
    let n = vars.size("n");
    let loops = vec![
        Loop {
            index_name: "i".into(),
            lb: Affine::zero(),
            rb: Affine::var(n) + Affine::int(1),
            step: 1,
        },
        Loop {
            index_name: "j".into(),
            lb: Affine::zero(),
            rb: Affine::var(n),
            step: 1,
        },
    ];
    let maps = [
        Matrix::from_rows(&[vec![1, 1]]),
        Matrix::from_rows(&[vec![1, 0]]),
        Matrix::from_rows(&[vec![1, 1]]),
    ];
    let variables: Vec<IndexedVar> = ["a", "b", "c"]
        .iter()
        .zip(&maps)
        .map(|(name, m)| IndexedVar {
            name: (*name).into(),
            bounds: covering_bounds(m, &loops),
        })
        .collect();
    let streams: Vec<Stream> = maps
        .iter()
        .enumerate()
        .map(|(k, m)| Stream {
            variable: k,
            index_map: m.clone(),
        })
        .collect();
    SourceProgram {
        name: "lockstep".into(),
        vars,
        sizes: vec![n],
        loops,
        variables,
        streams,
        body: BasicStatement {
            updates: vec![assign(2, add(s(2), mul(s(0), s(1))))],
        },
    }
}

#[test]
fn lockstep_program_is_within_the_appendix_a_envelope() {
    let p = lockstep_program();
    systolizer::ir::validate(&p, 3).expect("valid per Appendix A");
}

#[test]
fn paper_protocol_deadlocks_on_the_lockstep_design() {
    let p = lockstep_program();
    let a = systolizer::synthesis::derive_array(&p, 1, 3).expect("valid array exists");
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let mut env = Env::new();
    env.bind(p.sizes[0], 2);
    let Err(err) = verify(&plan, &env, &["a", "b"], 0, SimSpec::plain()) else {
        panic!("the sequential-phase protocol deadlocks here");
    };
    assert!(err.to_string().contains("deadlock"), "{err}");
}

#[test]
fn split_propagation_executes_the_lockstep_design_correctly() {
    let p = lockstep_program();
    let a = systolizer::synthesis::derive_array(&p, 1, 3).unwrap();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let opts = ElabOptions {
        split_propagation: true,
        ..Default::default()
    };
    for n in [1i64, 2, 4] {
        let mut env = Env::new();
        env.bind(p.sizes[0], n);
        verify(&plan, &env, &["a", "b"], 5, plain_under(opts.clone()))
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
    }
}

#[test]
fn split_propagation_also_runs_all_paper_designs() {
    let opts = ElabOptions {
        split_propagation: true,
        ..Default::default()
    };
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(p.sizes[0], 3);
        verify(&plan, &env, &["a", "b"], 21, plain_under(opts.clone()))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn merged_io_runs_all_paper_designs() {
    // Sec. 4.2 defers merging the i/o processes "to a later stage"; our
    // round-robin merged host processes execute every appendix design
    // correctly. (Whether merging is *always* safe is a different
    // question — the fuzz suite exercises it on generated designs.)
    let opts = ElabOptions {
        merge_io: true,
        ..Default::default()
    };
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        for n in [1i64, 3] {
            let mut env = Env::new();
            env.bind(p.sizes[0], n);
            verify(&plan, &env, &["a", "b"], 33, plain_under(opts.clone()))
                .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
        }
    }
}

#[test]
fn merged_io_reduces_host_process_count() {
    let (p, a) = paper::matmul_e2();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let mut env = Env::new();
    env.bind(p.sizes[0], 3);
    let store = systolizer::ir::HostStore::allocate(&p, &env);
    let separate =
        systolizer::interp::elaborate(&plan, &env, &store, &ElabOptions::default()).unwrap();
    let merged = systolizer::interp::elaborate(
        &plan,
        &env,
        &store,
        &ElabOptions {
            merge_io: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(merged.census.inputs, 3, "one host input per stream");
    assert_eq!(merged.census.outputs, 3);
    assert!(separate.census.inputs > 9, "E.2 has many per-pipe inputs");
}

#[test]
fn deadlock_diagnosis_names_processes_and_channels() {
    // The structured error, not just its rendering: RunError::Deadlock
    // carries every blocked process label with the channel endpoints it
    // waits on ("label [recv@N,send@M]").
    use systolizer::interp::{seeded_store, simulate, ExecError, ModuleStore};
    use systolizer::runtime::RunError;
    let p = lockstep_program();
    let a = systolizer::synthesis::derive_array(&p, 1, 3).unwrap();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let mut env = Env::new();
    env.bind(p.sizes[0], 2);
    let store = seeded_store(&plan, &env, &["a", "b"], 1);
    let err = match simulate(ModuleStore::global(), &plan, &env, &store, SimSpec::plain()) {
        Err(e) => e,
        Ok(_) => panic!("the sequential-phase protocol deadlocks here"),
    };
    let ExecError::Run(RunError::Deadlock(d)) = &err else {
        panic!("expected a structured deadlock, got {err}");
    };
    assert!(!d.blocked.is_empty());
    for b in &d.blocked {
        assert!(
            b.contains("recv@") || b.contains("send@"),
            "blocked entry without a channel endpoint: {b}"
        );
        assert!(b.contains('['), "blocked entry without a label: {b}");
    }
    // Computation processes are among the blocked, by label.
    assert!(
        d.blocked.iter().any(|b| b.starts_with("comp@")),
        "{:?}",
        d.blocked
    );
    let msg = err.to_string();
    assert!(msg.contains("deadlock") && msg.contains("blocked"), "{msg}");
}

#[test]
fn protocol_violation_names_both_claimants_and_the_channel() {
    // A malformed network — two sources driving one channel — is
    // diagnosed as RunError::Protocol with the channel id, the claimed
    // endpoint, and both process labels.
    use systolizer::runtime::{Network, ProcIrBuilder, RunError};
    let mut b = ProcIrBuilder::new();
    b.source(0, &[1], "src-one");
    b.source(0, &[2], "src-two");
    b.sink(0, 2, "sink");
    let err = Network::of(&b.build()).run().unwrap_err();
    let RunError::Protocol(v) = &err else {
        panic!("expected a protocol violation, got {err}");
    };
    assert_eq!(v.chan, 0);
    assert_eq!(v.endpoint, "sender");
    let claimants = [v.first.as_str(), v.second.as_str()];
    assert!(claimants.contains(&"src-one"), "{claimants:?}");
    assert!(claimants.contains(&"src-two"), "{claimants:?}");
    let msg = err.to_string();
    assert!(msg.contains("protocol violation"), "{msg}");
    assert!(msg.contains("src-one") && msg.contains("src-two"), "{msg}");
}

#[test]
fn non_rectangular_image_is_rejected_by_validation() {
    // The other fuzzer finding: a map like (i-k, k) images the index box
    // onto a parallelogram, so a covering rectangular variable has
    // untouched elements — requirement A.1, now checked.
    let mut vars = VarTable::new();
    let n = vars.size("n");
    let mk_loop = |name: &str| Loop {
        index_name: name.into(),
        lb: Affine::zero(),
        rb: Affine::var(n),
        step: 1,
    };
    let loops = vec![mk_loop("i"), mk_loop("j"), mk_loop("k")];
    let skewed = Matrix::from_rows(&[vec![1, 0, -1], vec![0, 0, 1]]);
    let square = Matrix::from_rows(&[vec![1, 0, 0], vec![0, 1, 0]]);
    let kj = Matrix::from_rows(&[vec![0, 0, 1], vec![0, 1, 0]]);
    let p = SourceProgram {
        name: "skewed".into(),
        sizes: vec![n],
        loops: loops.clone(),
        variables: vec![
            IndexedVar {
                name: "a".into(),
                bounds: covering_bounds(&skewed, &loops),
            },
            IndexedVar {
                name: "b".into(),
                bounds: covering_bounds(&kj, &loops),
            },
            IndexedVar {
                name: "c".into(),
                bounds: covering_bounds(&square, &loops),
            },
        ],
        streams: vec![
            Stream {
                variable: 0,
                index_map: skewed,
            },
            Stream {
                variable: 1,
                index_map: kj,
            },
            Stream {
                variable: 2,
                index_map: square,
            },
        ],
        body: BasicStatement {
            updates: vec![assign(2, add(s(2), mul(s(0), s(1))))],
        },
        vars,
    };
    let errs = systolizer::ir::validate(&p, 3).unwrap_err();
    assert!(
        errs.iter().any(|e| matches!(
            e,
            systolizer::ir::Violation::ElementsNotCovered { stream: 0, .. }
        )),
        "{errs:?}"
    );
}
