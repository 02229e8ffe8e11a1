//! Appendix D end to end: polynomial product under both of the paper's
//! place functions — `place.(i,j) = i` (D.1, a simple place) and
//! `place.(i,j) = i + j` (D.2) — with the derived quantities, generated
//! programs, and simulated executions side by side.
//!
//! ```sh
//! cargo run --example polyprod
//! ```

use systolizer::ir::HostStore;
use systolizer::synthesis::placement::paper;
use systolizer::{systolize, PlaceChoice, SystolizeOptions};

fn main() {
    let n = 6i64;
    let designs = [
        ("D.1: step 2i+j, place.(i,j) = i", paper::polyprod_d1()),
        ("D.2: step 2i+j, place.(i,j) = i + j", paper::polyprod_d2()),
    ];
    for (label, (program, array)) in designs {
        println!("==================== {label} ====================");
        let opts = SystolizeOptions {
            place: PlaceChoice::Explicit(array),
            ..Default::default()
        };
        let sys = systolize(&program, &opts).unwrap();
        println!("{}", sys.report());

        // Deterministic input data: f(x) with coefficients 1..n+1,
        // g(x) with alternating signs.
        let env = sys.size_env(&[n]).unwrap();
        let mut store = HostStore::allocate(&sys.source, &env);
        for i in 0..=n {
            store.get_mut("a").set(&[i], i + 1);
            store
                .get_mut("b")
                .set(&[i], if i % 2 == 0 { 1 } else { -1 });
        }
        let run = sys.run(&[n], &store).unwrap();
        let c: Vec<i64> = (0..=2 * n).map(|k| run.store.get("c").get(&[k])).collect();
        println!("product coefficients: {c:?}");
        println!(
            "processes {} | rounds {} | messages {} | internal buffers {}",
            run.stats.processes, run.stats.rounds, run.stats.messages, run.census.internal_buffers
        );
        println!();
    }

    // Both designs compute the same polynomial, with different layouts:
    // D.1 uses n+1 processes (a stays put), D.2 uses 2n+1 (c stays put).
    println!("Note: D.1 keeps stream a stationary on n+1 processes;");
    println!("      D.2 keeps stream c stationary on 2n+1 processes.");
    println!("      Both reproduce the coefficients of f(x) * g(x).");
}
