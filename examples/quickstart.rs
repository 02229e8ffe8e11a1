//! Quickstart: parse a nested-loop source program, derive a systolic
//! array automatically, compile it to a distributed program, and run the
//! result on the simulated processor network.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use systolizer::{systolize_source, SystolizeOptions};

const SOURCE: &str = "
    program polyprod;
    size n;
    var a[0..n], b[0..n], c[0..2*n];
    for i = 0 <- 1 -> n
    for j = 0 <- 1 -> n {
      c[i+j] = c[i+j] + a[i] * b[j];
    }
";

fn main() {
    // 1. Parse + derive (step, place) + compile.
    let sys = systolize_source(SOURCE, &SystolizeOptions::default())
        .expect("the source program satisfies the paper's restrictions");

    println!("== derived systolic array ==");
    println!("step coefficients : {:?}", sys.array.step);
    println!(
        "makespan at n=8   : {} steps (vs 81 sequential ops)",
        sys.makespan(&[8]).unwrap()
    );
    println!();

    // 2. The symbolic derivation report (Secs. 6-7 of the paper).
    println!("{}", sys.report());

    // 3. The generated distributed program, in the paper's notation.
    println!("== generated program (paper notation) ==");
    println!("{}", sys.paper_code());

    // 4. Execute on the simulated distributed-memory machine and verify
    //    against sequential execution.
    let n = 8;
    let stats = sys
        .verify(&[n], &["a", "b"], 2024)
        .expect("executions agree");
    println!("== simulated execution at n={n} ==");
    println!("processes          : {}", stats.processes);
    println!("rendezvous rounds  : {}", stats.rounds);
    println!("messages           : {}", stats.messages);
    println!("result matches the sequential reference — OK");
}
