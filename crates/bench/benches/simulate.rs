//! Benchmarks X1/X2/B2 (timing side): simulated execution of the four
//! appendix designs vs the sequential reference, across problem sizes.
//!
//! Expected shape: sequential time grows with the index-space volume
//! (quadratic for polyprod, cubic for matmul); the simulator pays a
//! large constant per message but its *virtual* clock (measured by the
//! experiments runner, not here) grows linearly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use systolic_core::{compile, Options};
use systolic_interp::{
    seeded_store, simulate, ElabOptions, ExecutorChoice, ModuleStore, SimSpec, SystolicRun,
};
use systolic_ir::{seq, HostStore};
use systolic_math::Env;
use systolic_runtime::ChannelPolicy;
use systolic_synthesis::placement::paper;

fn setup(
    pair: (
        systolic_ir::SourceProgram,
        systolic_synthesis::SystolicArray,
    ),
    n: i64,
) -> (systolic_core::SystolicProgram, Env, HostStore) {
    let (p, a) = pair;
    let plan = compile(&p, &a, &Options::default()).unwrap();
    let mut env = Env::new();
    env.bind(p.sizes[0], n);
    let store = seeded_store(&plan, &env, &["a", "b"], 1);
    (plan, env, store)
}

/// One run on the plain engine `spec` refines (every caller starts from
/// `SimSpec::plain()`: these benches time the rendezvous engines).
fn run(
    plan: &systolic_core::SystolicProgram,
    env: &Env,
    store: &HostStore,
    spec: SimSpec,
) -> SystolicRun {
    simulate(ModuleStore::global(), plan, env, store, spec).unwrap()
}

fn bench_sequential_baseline(c: &mut Criterion) {
    let mut g = c.benchmark_group("execute/sequential");
    for n in [8i64, 16, 32] {
        let (plan, env, store) = setup(paper::matmul_e1(), n);
        g.bench_with_input(BenchmarkId::new("matmul", n), &n, |b, _| {
            b.iter(|| {
                let mut s = store.clone();
                seq::run(&plan.source, &env, &mut s);
                black_box(s)
            })
        });
    }
    g.finish();
}

type DesignFn = fn() -> (
    systolic_ir::SourceProgram,
    systolic_synthesis::SystolicArray,
);

fn bench_simulated_designs(c: &mut Criterion) {
    let mut g = c.benchmark_group("execute/simulated");
    g.sample_size(10);
    let designs: [(&str, DesignFn); 4] = [
        ("D.1", paper::polyprod_d1),
        ("D.2", paper::polyprod_d2),
        ("E.1", paper::matmul_e1),
        ("E.2", paper::matmul_e2),
    ];
    for (label, mk) in designs {
        for n in [4i64, 8] {
            let (plan, env, store) = setup(mk(), n);
            g.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| run(black_box(&plan), &env, &store, SimSpec::plain()))
            });
        }
    }
    g.finish();
}

fn bench_channel_policy_ablation(c: &mut Criterion) {
    // B3b: rendezvous vs buffered channels on the same design.
    let mut g = c.benchmark_group("execute/channel-policy");
    g.sample_size(10);
    let (plan, env, store) = setup(paper::polyprod_d2(), 8);
    for (label, policy) in [
        ("rendezvous", ChannelPolicy::Rendezvous),
        ("buffered-1", ChannelPolicy::Buffered(1)),
        ("buffered-4", ChannelPolicy::Buffered(4)),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let spec = SimSpec {
                    policy,
                    ..SimSpec::plain()
                };
                run(&plan, &env, &store, spec)
            })
        });
    }
    g.finish();
}

fn bench_internal_buffer_ablation(c: &mut Criterion) {
    // B3a: with and without the Sec. 7.6 buffers on the fractional-flow
    // design D.1.
    let mut g = c.benchmark_group("execute/internal-buffers");
    g.sample_size(10);
    let (plan, env, store) = setup(paper::polyprod_d1(), 12);
    for (label, buffers) in [("with", true), ("without", false)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let elab = ElabOptions {
                    internal_buffers: buffers,
                    ..Default::default()
                };
                let spec = SimSpec {
                    elab,
                    ..SimSpec::plain()
                };
                run(&plan, &env, &store, spec)
            })
        });
    }
    g.finish();
}

fn bench_threaded_executor(c: &mut Criterion) {
    // B2: the OS-thread executor.
    let mut g = c.benchmark_group("execute/threaded");
    g.sample_size(10);
    let (plan, env, store) = setup(paper::matmul_e1(), 6);
    g.bench_function("matmul-E.1-n6", |b| {
        b.iter(|| {
            let spec = SimSpec {
                executor: ExecutorChoice::Threaded,
                deadline: std::time::Duration::from_secs(60),
                ..SimSpec::plain()
            };
            run(&plan, &env, &store, spec)
        })
    });
    g.finish();
}

fn bench_partitioned_speedup(c: &mut Criterion) {
    // B2 (partitioned): wall-clock vs worker count on the Kung-Leiserson
    // array — the partitioning refinement of Sec. 8.
    let mut g = c.benchmark_group("execute/partitioned");
    g.sample_size(10);
    let (plan, env, store) = setup(paper::matmul_e2(), 8);
    for workers in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &w| {
            b.iter(|| {
                let spec = SimSpec {
                    executor: ExecutorChoice::Partitioned { workers: w },
                    deadline: std::time::Duration::from_secs(120),
                    ..SimSpec::plain()
                };
                run(black_box(&plan), &env, &store, spec)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_sequential_baseline, bench_simulated_designs,
              bench_channel_policy_ablation, bench_internal_buffer_ablation,
              bench_threaded_executor, bench_partitioned_speedup
}
criterion_main!(benches);
