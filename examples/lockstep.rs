//! The protocol-deadlock finding, interactively (see EXPERIMENTS.md,
//! "Protocol findings").
//!
//! A perfectly valid source program — streams `a` and `c` share the
//! index map `(i+j)` — deadlocks the paper's sequential-phase
//! propagation protocol. The simulator detects the deadlock exactly and
//! names the blocked processes; switching to the split-propagation
//! protocol (per-stream escort processes) executes it correctly.
//!
//! ```sh
//! cargo run --example lockstep
//! ```

use systolizer::core::{compile, Options};
use systolizer::interp::{simulate, ElabOptions, ModuleStore, SimSpec};
use systolizer::ir::expr::build::*;
use systolizer::ir::{
    program::covering_bounds, seq, BasicStatement, HostStore, IndexedVar, Loop, SourceProgram,
    Stream,
};
use systolizer::math::{Affine, Env, Matrix, VarTable};

fn lockstep_program() -> SourceProgram {
    let mut vars = VarTable::new();
    let n = vars.size("n");
    let loops = vec![
        Loop {
            index_name: "i".into(),
            lb: Affine::zero(),
            rb: Affine::var(n) + Affine::int(1),
            step: 1,
        },
        Loop {
            index_name: "j".into(),
            lb: Affine::zero(),
            rb: Affine::var(n),
            step: 1,
        },
    ];
    let maps = [
        Matrix::from_rows(&[vec![1, 1]]), // a[i+j]  <- same map as c!
        Matrix::from_rows(&[vec![1, 0]]), // b[i]
        Matrix::from_rows(&[vec![1, 1]]), // c[i+j]
    ];
    let variables: Vec<IndexedVar> = ["a", "b", "c"]
        .iter()
        .zip(&maps)
        .map(|(name, m)| IndexedVar {
            name: (*name).into(),
            bounds: covering_bounds(m, &loops),
        })
        .collect();
    let streams: Vec<Stream> = maps
        .iter()
        .enumerate()
        .map(|(k, m)| Stream {
            variable: k,
            index_map: m.clone(),
        })
        .collect();
    SourceProgram {
        name: "lockstep".into(),
        vars,
        sizes: vec![n],
        loops,
        variables,
        streams,
        body: BasicStatement {
            updates: vec![assign(2, add(s(2), mul(s(0), s(1))))],
        },
    }
}

fn main() {
    let p = lockstep_program();
    println!("source: c[i+j] += a[i+j] * b[i]   (a and c share an index map)");
    systolizer::ir::validate(&p, 3).expect("inside the Appendix A envelope");
    println!("Appendix A validation: OK — this is a legal source program\n");

    let a = systolizer::synthesis::derive_array(&p, 1, 3).unwrap();
    println!(
        "derived array: step {:?}, projection {:?}\n",
        a.step,
        a.projection_direction()
    );
    let plan = compile(&p, &a, &Options::default()).unwrap();

    let n = 3i64;
    let mut env = Env::new();
    env.bind(p.sizes[0], n);
    let mut store = HostStore::allocate(&p, &env);
    store.fill_random("a", 1, -5, 5);
    store.fill_random("b", 2, -5, 5);
    let mut expected = store.clone();
    seq::run(&p, &env, &mut expected);

    println!("--- the paper's sequential-phase protocol ---");
    let ms = ModuleStore::global();
    match simulate(ms, &plan, &env, &store, SimSpec::plain()) {
        Ok(_) => println!("(completed — unexpected on this design)"),
        Err(d) => println!("{d}\n"),
    }

    println!("--- split-propagation protocol (per-stream escorts) ---");
    let elab = ElabOptions {
        split_propagation: true,
        ..Default::default()
    };
    let spec = SimSpec {
        elab,
        ..SimSpec::plain()
    };
    let run = simulate(ms, &plan, &env, &store, spec).unwrap();
    let ok = run.store.get("c") == expected.get("c");
    println!(
        "completed: {} processes ({} escorts), {} rounds; matches sequential: {ok}",
        run.stats.processes, run.census.escorts, run.stats.rounds
    );
}
