//! Experiment X1: end-to-end observational equivalence.
//!
//! For each appendix design and each gallery kernel, across a sweep of
//! problem sizes and random seeds, the compiled systolic program executed
//! on the simulated distributed-memory machine must recover exactly the
//! variables the sequential reference computes. This mechanizes the
//! paper's Sec. 8 hardware experiments.

mod common;

use common::verify;
use systolizer::core::{compile, Options};
use systolizer::interp::SimSpec;
use systolizer::math::Env;
use systolizer::synthesis::placement::paper;

fn env_for(sizes: &[systolizer::math::Var], vals: &[i64]) -> Env {
    let mut env = Env::new();
    for (&v, &x) in sizes.iter().zip(vals) {
        env.bind(v, x);
    }
    env
}

#[test]
fn appendix_designs_across_sizes_and_seeds() {
    for (label, p, a) in paper::all() {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let sweep: &[i64] = if p.r() == 2 {
            &[1, 2, 3, 5, 8, 13]
        } else {
            &[1, 2, 3, 5]
        };
        for &n in sweep {
            for seed in [1u64, 99, 512] {
                let env = env_for(&p.sizes, &[n]);
                verify(&plan, &env, &["a", "b"], seed, SimSpec::plain())
                    .unwrap_or_else(|e| panic!("{label} n={n} seed={seed}: {e}"));
            }
        }
    }
}

#[test]
fn gallery_kernels_with_derived_arrays() {
    for p in systolizer::ir::gallery::all() {
        let a = systolizer::synthesis::derive_array(&p, 2, 5)
            .unwrap_or_else(|| panic!("{}: no array derived", p.name));
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let inputs: Vec<&str> = if p.name == "fir_filter" {
            vec!["h", "x"]
        } else {
            vec!["a", "b"]
        };
        for vals in [[2i64, 3], [4, 6], [5, 9]] {
            let env = env_for(&p.sizes, &vals[..p.sizes.len()]);
            verify(&plan, &env, &inputs, 77, SimSpec::plain())
                .unwrap_or_else(|e| panic!("{} {vals:?}: {e}", p.name));
        }
    }
}

#[test]
fn every_enumerated_place_for_matmul_executes_correctly() {
    // Not just the paper's two designs: every valid unit-projection
    // place for step (1,1,1) must compile and run correctly.
    let p = systolizer::ir::gallery::matrix_product();
    let arrays = systolizer::synthesis::enumerate_places(&p, &[1, 1, 1]);
    assert!(arrays.len() >= 2, "at least the two appendix designs");
    for a in arrays {
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let env = env_for(&p.sizes, &[3]);
        verify(&plan, &env, &["a", "b"], 5, SimSpec::plain())
            .unwrap_or_else(|e| panic!("projection {:?}: {e}", a.projection_direction()));
    }
}

#[test]
fn alternate_loading_vectors_work() {
    use systolizer::ir::StreamId;
    let (p, a) = paper::matmul_e1();
    for lv in [vec![1, 0], vec![0, 1], vec![0, -1], vec![1, 1]] {
        let opts = Options::default().with_loading_vector(StreamId(2), lv.clone());
        let plan = compile(&p, &a, &opts).unwrap();
        let env = env_for(&p.sizes, &[3]);
        verify(&plan, &env, &["a", "b"], 31, SimSpec::plain())
            .unwrap_or_else(|e| panic!("loading vector {lv:?}: {e}"));
    }
}

#[test]
fn reversed_loop_directions_still_compile_and_run() {
    // Negative loop steps change the sequential order; the scheme must
    // honour them (Sec. 3.1's implicit case distinction).
    let mut p = systolizer::ir::gallery::polynomial_product();
    p.loops[0].step = -1;
    let a = systolizer::synthesis::derive_array(&p, 2, 5).expect("array for reversed loop");
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let env = env_for(&p.sizes, &[5]);
    verify(&plan, &env, &["a", "b"], 3, SimSpec::plain()).unwrap();
}

#[test]
fn guarded_bodies_execute_correctly() {
    // A guarded basic statement (triangular accumulation) through the
    // full pipeline.
    let src = "
        program tri;
        size n;
        var a[0..n], b[0..n], c[0..2*n];
        for i = 0 <- 1 -> n
        for j = 0 <- 1 -> n {
          if i <= j -> c[i+j] = c[i+j] + a[i] * b[j];
          if i > j  -> c[i+j] = c[i+j] - a[i] * b[j];
        }
    ";
    let sys = systolizer::systolize_source(src, &systolizer::SystolizeOptions::default()).unwrap();
    for n in [2i64, 4, 7] {
        sys.verify(&[n], &["a", "b"], 13).unwrap();
    }
}
