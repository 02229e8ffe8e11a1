//! The threaded executor: run the Kung–Leiserson matrix-product array on
//! real OS threads (one per process, blocking rendezvous) and compare
//! wall-clock time with the single-threaded cooperative simulation and
//! the plain sequential reference.
//!
//! ```sh
//! cargo run --release --example threaded
//! ```

use std::time::{Duration, Instant};
use systolizer::interp::{seeded_store, simulate, ExecutorChoice, ModuleStore, SimSpec};
use systolizer::ir::seq;
use systolizer::synthesis::placement::paper;
use systolizer::{systolize, PlaceChoice, SystolizeOptions};

fn main() {
    let (program, _) = paper::matmul_e2();
    let opts = SystolizeOptions {
        place: PlaceChoice::Projection(vec![1, 1, 1]),
        ..Default::default()
    };
    let sys = systolize(&program, &opts).unwrap();

    println!(
        "{:>4} {:>10} {:>12} {:>12} {:>12} {:>8}",
        "n", "procs", "seq", "coop sim", "threads", "agree"
    );
    for n in [4i64, 6, 8] {
        let env = sys.size_env(&[n]).unwrap();
        let store = seeded_store(&sys.plan, &env, &["a", "b"], 1);

        let t0 = Instant::now();
        let mut expected = store.clone();
        seq::run(&sys.source, &env, &mut expected);
        let t_seq = t0.elapsed();

        let t0 = Instant::now();
        let coop = sys.run(&[n], &store).unwrap();
        let t_coop = t0.elapsed();

        let spec = SimSpec {
            executor: ExecutorChoice::Threaded,
            deadline: Duration::from_secs(60),
            ..SimSpec::plain()
        };
        let t0 = Instant::now();
        let threaded = simulate(ModuleStore::global(), &sys.plan, &env, &store, spec).unwrap();
        let t_thr = t0.elapsed();

        let agree = coop.store.get("c") == expected.get("c")
            && threaded.store.get("c") == expected.get("c");
        println!(
            "{:>4} {:>10} {:>12?} {:>12?} {:>12?} {:>8}",
            n, threaded.stats.processes, t_seq, t_coop, t_thr, agree
        );
    }
    println!();
    println!("The simulator exists for semantics and schedule measurement, not speed:");
    println!("per-element compute here is one multiply-add, so communication dominates.");
}
