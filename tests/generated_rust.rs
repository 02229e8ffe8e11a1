//! The mechanized Sec. 8 experiment: generate a standalone Rust program
//! from each appendix design, compile it with `rustc`, run it, and let
//! its embedded self-check compare the systolic results against the
//! sequential reference. The paper's hand translations become generated,
//! compiled, executed translations — "the only errors were mistakes made
//! in the hand translation", and there is no hand translation left.

mod common;

use common::compile_and_run;
use systolizer::core::{compile, Options};
use systolizer::interp::rustgen::{generate_rust, generate_rust_opt};
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

#[test]
fn d2_generated_rust_compiles_and_verifies() {
    let (p, a) = paper::polyprod_d2();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let mut env = Env::new();
    env.bind(p.sizes[0], 4);
    compile_and_run("d2", &generate_rust(&plan, &env, 12), OPTIMIZED);
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
    env.bind(p.sizes[0], 2);
    compile_and_run("e2", &generate_rust(&plan, &env, 14), OPTIMIZED);
}

#[test]
fn e2_optimized_generated_rust_compiles_and_verifies() {
    // The delay-ring back end: fused relays become channel capacity, and
    // the generated program still passes its embedded self-check.
    let (p, a) = paper::matmul_e2();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let mut env = Env::new();
    env.bind(p.sizes[0], 4);
    let src = generate_rust_opt(&plan, &env, 14);
    assert!(src.contains("//! Optimized:"), "E.2 n=4 should fuse chains");
    compile_and_run("e2opt", &src, OPTIMIZED);
}

#[test]
fn d2_optimized_generated_rust_compiles_and_verifies() {
    let (p, a) = paper::polyprod_d2();
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let mut env = Env::new();
    env.bind(p.sizes[0], 5);
    compile_and_run("d2opt", &generate_rust_opt(&plan, &env, 12), OPTIMIZED);
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
