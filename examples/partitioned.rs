//! Partitioned execution: mapping the systolic program onto a machine
//! with fewer processors than processes — the Sec. 8 refinement
//! ("not enough processors ... techniques of partitioning").
//!
//! The Kung–Leiserson array at n = 8 elaborates to several hundred
//! virtual processes; we run it on 1, 2, 4, and 8 worker threads and
//! check the results stay identical.
//!
//! ```sh
//! cargo run --release --example partitioned
//! ```

use std::time::{Duration, Instant};
use systolizer::interp::{seeded_store, simulate, ExecutorChoice, ModuleStore, SimSpec};
use systolizer::ir::seq;
use systolizer::synthesis::placement::paper;
use systolizer::{systolize, PlaceChoice, SystolizeOptions};

fn main() {
    let (program, array) = paper::matmul_e2();
    let sys = systolize(
        &program,
        &SystolizeOptions {
            place: PlaceChoice::Explicit(array),
            ..Default::default()
        },
    )
    .unwrap();

    let n = 8i64;
    let env = sys.size_env(&[n]).unwrap();
    let store = seeded_store(&sys.plan, &env, &["a", "b"], 11);
    let mut expected = store.clone();
    seq::run(&sys.source, &env, &mut expected);

    println!("Kung-Leiserson matrix product at n = {n}");
    println!(
        "{:>8} {:>10} {:>12} {:>8}",
        "workers", "procs", "wall", "agree"
    );
    for workers in [1usize, 2, 4, 8] {
        let spec = SimSpec {
            executor: ExecutorChoice::Partitioned { workers },
            deadline: Duration::from_secs(120),
            ..SimSpec::plain()
        };
        let t0 = Instant::now();
        let run = simulate(ModuleStore::global(), &sys.plan, &env, &store, spec)
            .expect("partitioned run");
        let wall = t0.elapsed();
        let agree = run.store.get("c") == expected.get("c");
        println!(
            "{:>8} {:>10} {:>12?} {:>8}",
            workers, run.stats.processes, wall, agree
        );
    }
    println!();
    println!("Every worker count multiplexes the same virtual processes over the");
    println!("same rendezvous engine; the partition changes scheduling only.");
}
