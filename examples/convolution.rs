//! A kernel beyond the paper's appendices: FIR filtering (correlation)
//! with two independent problem-size symbols — `n+1` taps over an
//! `m+1`-sample output window — written in the textual front end and
//! systolized fully automatically.
//!
//! ```sh
//! cargo run --example convolution
//! ```

use systolizer::ir::HostStore;
use systolizer::{systolize_source, SystolizeOptions};

const SOURCE: &str = "
    program fir;
    size n, m;
    var h[0..n], x[-n..m], y[0..m];
    for i = 0 <- 1 -> m
    for j = 0 <- 1 -> n {
      y[i] = y[i] + h[j] * x[i-j];
    }
";

fn main() {
    let sys = systolize_source(SOURCE, &SystolizeOptions::default()).unwrap();
    println!("{}", sys.report());

    // A 3-tap moving-average-like filter over a step signal.
    let (n, m) = (2i64, 11i64);
    let env = sys.size_env(&[n, m]).unwrap();
    let mut store = HostStore::allocate(&sys.source, &env);
    for j in 0..=n {
        store.get_mut("h").set(&[j], 1); // box filter
    }
    for i in -n..=m {
        store
            .get_mut("x")
            .set(&[i], if (0..=5).contains(&i) { 3 } else { 0 });
    }
    let run = sys.run(&[n, m], &store).unwrap();
    let y: Vec<i64> = (0..=m).map(|i| run.store.get("y").get(&[i])).collect();
    println!("box-filtered step signal: {y:?}");
    println!(
        "processes {} | rounds {} | messages {}",
        run.stats.processes, run.stats.rounds, run.stats.messages
    );

    // Independent size scaling: the array length follows the projection,
    // not the signal length.
    println!();
    println!("== scaling the signal at fixed tap count (n = 4) ==");
    println!(
        "{:>6} {:>10} {:>10} {:>10}",
        "m", "seq ops", "procs", "rounds"
    );
    for m in [8i64, 16, 32, 64] {
        let stats = sys.verify(&[4, m], &["h", "x"], 3).unwrap();
        println!(
            "{:>6} {:>10} {:>10} {:>10}",
            m,
            5 * (m + 1),
            stats.processes,
            stats.rounds
        );
    }
}
