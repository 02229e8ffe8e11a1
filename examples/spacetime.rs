//! Space–time diagram: the classic picture of a systolic computation.
//!
//! Runs Appendix D.1 (polynomial product, place `i`) with tracing and
//! prints which streams arrive at which cell in which rendezvous round —
//! the software analogue of the data-flow figures in the systolic-array
//! literature (Kung & Leiserson 1980). Then shows the activity wavefront
//! of the 2-D Kung–Leiserson matrix array.
//!
//! ```sh
//! cargo run --example spacetime
//! ```

use systolizer::interp::trace::{activity_profile, render_1d, run_traced};
use systolizer::ir::HostStore;
use systolizer::synthesis::placement::paper;
use systolizer::{systolize, PlaceChoice, SystolizeOptions};

fn main() {
    // 1-D: Appendix D.1.
    let (program, array) = paper::polyprod_d1();
    let sys = systolize(
        &program,
        &SystolizeOptions {
            place: PlaceChoice::Explicit(array),
            ..Default::default()
        },
    )
    .unwrap();
    let n = 4i64;
    let env = sys.size_env(&[n]).unwrap();
    let mut store = HostStore::allocate(&sys.source, &env);
    store.fill_random("a", 1, 1, 9);
    store.fill_random("b", 2, 1, 9);
    let (events, rounds) = run_traced(&sys.plan, &env, &store).unwrap();
    println!("Appendix D.1 at n = {n}: cell activity per rendezvous round");
    println!("(letters = streams arriving at that cell; a is loaded/");
    println!(" recovered, b moves at half speed, c at full speed)");
    println!();
    println!("{}", render_1d(&sys.plan, &events, &env));
    println!("total rounds: {rounds}");
    println!();

    // 2-D: the Kung-Leiserson wavefront.
    let (program, array) = paper::matmul_e2();
    let sys = systolize(
        &program,
        &SystolizeOptions {
            place: PlaceChoice::Explicit(array),
            ..Default::default()
        },
    )
    .unwrap();
    let n = 4i64;
    let env = sys.size_env(&[n]).unwrap();
    let mut store = HostStore::allocate(&sys.source, &env);
    store.fill_random("a", 3, 1, 9);
    store.fill_random("b", 4, 1, 9);
    let (events, rounds) = run_traced(&sys.plan, &env, &store).unwrap();
    println!("Kung-Leiserson array at n = {n}: transfers per round (the wavefront)");
    for (round, count) in activity_profile(&events) {
        println!("{round:>5} | {}", "#".repeat(count.min(100)));
    }
    println!("total rounds: {rounds}");
}
