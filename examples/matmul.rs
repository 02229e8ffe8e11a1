//! Appendix E end to end: matrix-matrix multiplication under the simple
//! place `(i,j)` (E.1 — one stationary operand, the parallelizing-compiler
//! projection) and the Kung–Leiserson place `(i-k, j-k)` (E.2 — all three
//! streams moving through a hexagonally-connected array with external
//! buffer processes).
//!
//! ```sh
//! cargo run --example matmul
//! ```

use systolizer::ir::HostStore;
use systolizer::synthesis::placement::paper;
use systolizer::{systolize, PlaceChoice, SystolizeOptions};

fn main() {
    let (program, _) = paper::matmul_e1();

    for (label, projection) in [
        ("E.1: place.(i,j,k) = (i,j)", vec![0, 0, 1]),
        (
            "E.2: place.(i,j,k) = (i-k, j-k)  [Kung-Leiserson]",
            vec![1, 1, 1],
        ),
    ] {
        println!("==================== {label} ====================");
        let opts = SystolizeOptions {
            place: PlaceChoice::Projection(projection),
            ..Default::default()
        };
        let sys = systolize(&program, &opts).unwrap();
        println!("{}", sys.report());

        let n = 3i64;
        let env = sys.size_env(&[n]).unwrap();
        let mut store = HostStore::allocate(&sys.source, &env);
        // A deterministic pair: A[i][k] = i + k, B[k][j] = (k+1)*(j+1).
        for i in 0..=n {
            for k in 0..=n {
                store.get_mut("a").set(&[i, k], i + k);
                store.get_mut("b").set(&[i, k], (i + 1) * (k + 1));
            }
        }
        let run = sys.run(&[n], &store).unwrap();
        println!("C = A * B at n = {n}:");
        for i in 0..=n {
            let row: Vec<i64> = (0..=n).map(|j| run.store.get("c").get(&[i, j])).collect();
            println!("  {row:?}");
        }
        println!(
            "processes {} (comp {}, external buffers {}) | rounds {} | messages {}",
            run.stats.processes,
            run.census.computation,
            run.census.external_buffers,
            run.stats.rounds,
            run.stats.messages,
        );
        println!();
    }

    // Makespan scaling: linear in n for both designs, cubic work.
    println!("== makespan scaling (virtual rendezvous rounds) ==");
    println!("{:>4} {:>12} {:>10} {:>12}", "n", "seq ops", "E.1", "E.2");
    for n in [2i64, 4, 6, 8] {
        let mut cells = Vec::new();
        for projection in [vec![0, 0, 1], vec![1, 1, 1]] {
            let opts = SystolizeOptions {
                place: PlaceChoice::Projection(projection),
                ..Default::default()
            };
            let sys = systolize(&program, &opts).unwrap();
            let stats = sys.verify(&[n], &["a", "b"], 7).unwrap();
            cells.push(stats.rounds);
        }
        println!(
            "{:>4} {:>12} {:>10} {:>12}",
            n,
            (n + 1).pow(3),
            cells[0],
            cells[1]
        );
    }
}
