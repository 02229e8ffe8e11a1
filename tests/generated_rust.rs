//! The mechanized Sec. 8 experiment: generate a standalone Rust program
//! from each appendix design, compile it with `rustc`, run it, and let
//! its embedded self-check compare the systolic results against the
//! sequential reference. The paper's hand translations become generated,
//! compiled, executed translations — "the only errors were mistakes made
//! in the hand translation", and there is no hand translation left.

mod common;

use common::compile_and_run;
use systolizer::core::{compile, Options};
use systolizer::interp::rustgen::generate_rust;
use systolizer::math::Env;
use systolizer::synthesis::placement::paper;

/// `rustc -O`, as the paper's translations were run.
const OPTIMIZED: bool = true;

#[test]
fn d1_generated_rust_compiles_and_verifies() {
    let (p, a) = paper::polyprod_d1();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let mut env = Env::new();
    env.bind(p.sizes[0], 5);
    compile_and_run("d1", &generate_rust(&plan, &env, 11), OPTIMIZED);
}

/// The generated program is the module a run executes: D.2's relay
/// chains become channel capacity (the delay rings), and the program
/// still passes its embedded self-check.
#[test]
fn d2_generated_rust_compiles_and_verifies() {
    let (p, a) = paper::polyprod_d2();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let mut env = Env::new();
    env.bind(p.sizes[0], 4);
    let src = generate_rust(&plan, &env, 12);
    assert!(src.contains("//! Optimized:"), "D.2 n=4 should fuse chains");
    compile_and_run("d2", &src, OPTIMIZED);
}

#[test]
fn e1_generated_rust_compiles_and_verifies() {
    let (p, a) = paper::matmul_e1();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let mut env = Env::new();
    env.bind(p.sizes[0], 3);
    compile_and_run("e1", &generate_rust(&plan, &env, 13), OPTIMIZED);
}

#[test]
fn e2_generated_rust_compiles_and_verifies() {
    let (p, a) = paper::matmul_e2();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let mut env = Env::new();
    env.bind(p.sizes[0], 4);
    let src = generate_rust(&plan, &env, 14);
    assert!(src.contains("//! Optimized:"), "E.2 n=4 should fuse chains");
    compile_and_run("e2", &src, OPTIMIZED);
}

#[test]
fn guarded_body_generated_rust() {
    // A guarded update exercises the if-rendering in the generated code.
    let src = "
        program tri;
        size n;
        var a[0..n], b[0..n], c[0..2*n];
        for i = 0 <- 1 -> n
        for j = 0 <- 1 -> n {
          if i <= j -> c[i+j] = c[i+j] + a[i] * b[j];
        }
    ";
    let sys = systolizer::systolize_source(src, &systolizer::SystolizeOptions::default()).unwrap();
    let env = sys.size_env(&[4]).unwrap();
    compile_and_run("tri", &generate_rust(&sys.plan, &env, 15), OPTIMIZED);
}

/// The one program here the rendezvous engine cannot run: the lockstep
/// design at n = 2 under step bound 1 deadlocks on the plain engine
/// (`verify --batch off`), while its emitted program — one OS thread per
/// process, each channel a one-slot `sync_channel` — completes and
/// matches the sequential result. The slot is the difference; this pins
/// the contrast until the engines agree on such a program.
#[test]
fn lockstep_generated_rust_completes_where_the_rendezvous_engine_deadlocks() {
    let opts = systolizer::SystolizeOptions {
        step_bound: 1,
        ..Default::default()
    };
    let sys = systolizer::systolize_source(common::LOCKSTEP_SRC, &opts).unwrap();
    let env = sys.size_env(&[2]).unwrap();
    let store = systolizer::interp::seeded_store(&sys.plan, &env, &["a", "b", "c"], 16);
    let ms = systolizer::interp::ModuleStore::new();
    let plain = systolizer::interp::SimSpec::plain();
    match systolizer::interp::simulate(&ms, &sys.plan, &env, &store, plain) {
        Err(e) => assert!(e.to_string().contains("deadlock"), "{e}"),
        Ok(_) => panic!("the rendezvous engine completed the lockstep design"),
    }
    compile_and_run("lockstep", &generate_rust(&sys.plan, &env, 16), OPTIMIZED);
}
