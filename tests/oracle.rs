//! The sequential oracle and its own oracle. The differential half —
//! every design's store on both engines against `ir::seq`, their
//! statistics by the optimizer's count law, observed runs and their op
//! totals, `seq::run` against `common::seq_reference` on the whole
//! corpus — is columns of `tests/matrix.rs`; the tests of those names
//! below run their columns on the rows their loops reached. What stays
//! here by hand: the shipped `polyprod.sys` pinned by checksum, and
//! `seq::run` on hand-built corners and on random statements in small
//! loop nests (CI runs that law at `PROPTEST_CASES=2000`).

mod common;

use common::statements::{pick, value, Statements};
use common::{assert_seq_matches_reference, env_cases, seq_reference};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use systolizer::interp::{seeded_store, simulate_verified, ModuleStore, SimSpec};
use systolizer::ir::expr::build::*;
use systolizer::ir::program::covering_bounds;
use systolizer::ir::{
    seq, BasicStatement, CmpOp, GuardedUpdate, HostStore, IndexedVar, Loop, SourceProgram, Stream,
};
use systolizer::math::{Affine, Env, Matrix, VarTable};

matrix_rows!(
    coop_matches_the_sequential_oracle_on_every_design,
    executors_agree_on_stores_and_invariant_statistics,
    observed_runs_match_the_oracle_too,
    metrics_op_totals_are_the_modules_static_counts,
    seq_run_matches_its_reference_on_the_whole_corpus,
);

/// Order-sensitive checksum over a host array's backing values, used to
/// pin golden stores without serializing whole arrays into the test.
fn checksum(values: &[systolizer::ir::Value]) -> i64 {
    values
        .iter()
        .fold(0i64, |h, &v| h.wrapping_mul(31).wrapping_add(v))
}

#[test]
fn polyprod_sys_golden_stores_are_pinned_at_three_sizes() {
    // The shipped `programs/polyprod.sys` through the full front end,
    // with the recovered `c` store pinned by checksum at three sizes.
    // The sequential oracle already guards correctness; these goldens
    // additionally guard the *front end* — a parser, normalizer, or
    // systolization change that alters what the program computes fails
    // here even if the simulated network faithfully executes the new
    // (wrong) plan. Seed and fill range are part of the golden.
    let goldens: [(i64, i64); 3] = [
        (1, 6554),
        (3, 6_018_320_591),
        (6, 5_341_326_772_481_792_544),
    ];
    let sys = systolizer::systolize_source(
        include_str!("../programs/polyprod.sys"),
        &systolizer::SystolizeOptions::default(),
    )
    .unwrap();
    for (n, want) in goldens {
        let mut env = Env::new();
        env.bind(sys.plan.source.sizes[0], n);
        let store = seeded_store(&sys.plan, &env, &["a", "b"], 101);
        let ms = ModuleStore::global();
        let run = simulate_verified(ms, &sys.plan, &env, &store, SimSpec::plain())
            .unwrap_or_else(|e| panic!("polyprod.sys n={n}: {e}"));
        let got = checksum(run.store.get("c").raw());
        assert_eq!(
            got, want,
            "polyprod.sys n={n}: golden store checksum drifted"
        );
    }
}

/// A hand-built nest of `steps.len()` loops `0 <- step -> n` over the
/// named streams. Each distinct name is one variable, declared with the
/// bounds that cover its first stream's accesses.
fn corner(
    steps: &[i64],
    streams: &[(&str, &[&[i64]])],
    updates: Vec<GuardedUpdate>,
) -> SourceProgram {
    let mut vars = VarTable::new();
    let n = vars.size("n");
    let loops: Vec<Loop> = steps
        .iter()
        .enumerate()
        .map(|(i, &step)| Loop {
            index_name: format!("x{i}"),
            lb: Affine::zero(),
            rb: Affine::var(n),
            step,
        })
        .collect();
    let mut variables: Vec<IndexedVar> = Vec::new();
    let streams = streams
        .iter()
        .map(|&(name, rows)| {
            let rows: Vec<Vec<i64>> = rows.iter().map(|r| r.to_vec()).collect();
            let index_map = Matrix::from_rows(&rows);
            let variable = variables
                .iter()
                .position(|v| v.name == name)
                .unwrap_or_else(|| {
                    variables.push(IndexedVar {
                        name: name.into(),
                        bounds: covering_bounds(&index_map, &loops),
                    });
                    variables.len() - 1
                });
            Stream {
                variable,
                index_map,
            }
        })
        .collect();
    SourceProgram {
        name: "corner".into(),
        vars,
        sizes: vec![n],
        loops,
        variables,
        streams,
        body: BasicStatement { updates },
    }
}

#[test]
fn seq_run_matches_its_reference_on_hand_built_corners() {
    let corners = [
        (
            // Order matters in every loop (`c := 2c + a*b`), and every
            // loop runs right to left.
            "every loop reversed",
            corner(
                &[-1, -1, -1],
                &[
                    ("a", &[&[1, 0, 0], &[0, 0, 1]]),
                    ("b", &[&[0, 0, 1], &[0, 1, 0]]),
                    ("c", &[&[1, 0, 0], &[0, 1, 0]]),
                ],
                vec![assign(2, add(mul(c(2), s(2)), mul(s(0), s(1))))],
            ),
        ),
        (
            // The body sees the index vector itself, in the guard and in
            // the value: right offsets under a wrong `x` would pass the
            // other corners and fail this one.
            "a guard and a value that read the loop indices",
            corner(
                &[1, -1],
                &[("a", &[&[1, 0]]), ("b", &[&[0, 1]]), ("c", &[&[1, 1]])],
                vec![
                    guarded(
                        cmp(CmpOp::Le, idx(0), idx(1)),
                        2,
                        add(s(2), mul(s(0), idx(1))),
                    ),
                    assign(2, sub(s(2), mul(s(1), idx(0)))),
                ],
            ),
        ),
        (
            // `a[i+j]` and `a[i]` are one element when j = 0: both locals
            // read the old value and the second write wins.
            "two written streams on one variable",
            corner(
                &[1, 1],
                &[("a", &[&[1, 1]]), ("a", &[&[1, 0]]), ("b", &[&[0, 1]])],
                vec![assign(0, add(s(0), s(2))), assign(1, sub(s(1), s(0)))],
            ),
        ),
        (
            // The guard never holds, so the second `a` local keeps the
            // element it gathered, and its scatter, after the first's,
            // puts the old value back.
            "a disabled write on the variable another stream writes",
            corner(
                &[1, -1],
                &[("a", &[&[1, 0]]), ("a", &[&[1, 0]]), ("b", &[&[0, 1]])],
                vec![
                    assign(0, add(s(0), s(2))),
                    guarded(cmp(CmpOp::Lt, idx(0), c(0)), 1, s(2)),
                ],
            ),
        ),
        (
            // `c` is assigned before it is read, so it needs no gather.
            "a stream assigned before it is read",
            corner(
                &[-1, 1],
                &[("a", &[&[1, 0]]), ("b", &[&[0, 1]]), ("c", &[&[1, 1]])],
                vec![assign(2, mul(s(0), s(1))), assign(2, add(s(2), idx(1)))],
            ),
        ),
        (
            // One level deeper than the random nests reach.
            "four loops",
            corner(
                &[1, -1, 1, -1],
                &[
                    ("a", &[&[1, 0, 0, 0], &[0, 1, 0, 0], &[0, 0, 0, 1]]),
                    ("b", &[&[0, 1, 0, 0], &[0, 0, 1, 0], &[0, 0, 0, 1]]),
                    ("c", &[&[1, 0, 0, 0], &[0, 0, 1, 0], &[0, 0, 0, 1]]),
                ],
                vec![assign(2, sub(mul(c(3), s(2)), mul(s(0), s(1))))],
            ),
        ),
        (
            // `a[i-j]` and `b[j-i, i]` live in -n..n.
            "variables with negative lower bounds",
            corner(
                &[-1, 1, 1],
                &[
                    ("a", &[&[1, -1, 0], &[0, 0, 1]]),
                    ("b", &[&[-1, 1, 0], &[1, 0, 0]]),
                    ("c", &[&[0, 1, 0], &[0, 1, -1]]),
                ],
                vec![assign(2, max(s(2), add(s(0), s(1))))],
            ),
        ),
    ];
    for (label, program) in &corners {
        for n in [0, 1, 2, 3, 5] {
            let mut env = Env::new();
            env.bind(program.sizes[0], n);
            let mut store = HostStore::allocate(program, &env);
            for (i, v) in program.variables.iter().enumerate() {
                store.fill_random(&v.name, 7 + i as u64, -9, 9);
            }
            let label = format!("{label}, n={n}");
            let count = assert_seq_matches_reference(&label, program, &env, &store);
            assert_eq!(count, program.index_space_size(&env), "{label}");
        }
    }
    // An empty index space: nothing runs and nothing is touched, whatever
    // the store holds.
    let (_, program) = &corners[1];
    let mut env = Env::new();
    env.bind(program.sizes[0], 3);
    let mut store = HostStore::allocate(program, &env);
    store.fill_random("c", 1, -9, 9);
    env.bind(program.sizes[0], -1);
    assert_eq!(
        assert_seq_matches_reference("empty", program, &env, &store),
        0
    );
    let before = store.clone();
    assert_eq!(seq::run(program, &env, &mut store), 0);
    assert_eq!(store, before);
}

/// A random statement (`common::statements`) in a small loop nest, with
/// its size bound and its store filled: r = 2 or 3 loops of step ±1 over
/// `0..n` for n ≤ 3, now and then a loop of one iteration or of none;
/// two to four streams whose index maps have entries in -1..=1, the
/// first two on one variable, so the statement reads and writes it
/// through both; every element drawn by `value`, the ends of `i64`
/// among them.
struct Nests;

impl Strategy for Nests {
    type Value = (SourceProgram, Env, HostStore);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let (r, slots) = (2 + pick(rng, 2), 2 + pick(rng, 3));
        let mut vars = VarTable::new();
        let size = vars.size("n");
        let mut env = Env::new();
        env.bind(size, pick(rng, 4) as i64);
        let loops: Vec<Loop> = (0..r)
            .map(|d| {
                let (lb, rb) = match pick(rng, 8) {
                    0 => (Affine::int(2), Affine::int(2)),
                    1 => (Affine::int(1), Affine::zero()),
                    _ => (Affine::zero(), Affine::var(size)),
                };
                let step = [1, -1][pick(rng, 2)];
                Loop {
                    index_name: format!("x{d}"),
                    lb,
                    rb,
                    step,
                }
            })
            .collect();
        let streams: Vec<Stream> = (0..slots)
            .map(|k| {
                let rows: Vec<Vec<i64>> = (0..r - 1)
                    .map(|_| (0..r).map(|_| pick(rng, 3) as i64 - 1).collect())
                    .collect();
                Stream {
                    variable: k.saturating_sub(1),
                    index_map: Matrix::from_rows(&rows),
                }
            })
            .collect();
        // Each variable's box at this size: the hull of its streams'
        // images, so every access lies inside it.
        let mut boxes = vec![vec![(i64::MAX, i64::MIN); r - 1]; slots - 1];
        for s in &streams {
            let cover = covering_bounds(&s.index_map, &loops);
            for ((lo, hi), (lb, rb)) in boxes[s.variable].iter_mut().zip(cover) {
                *lo = (*lo).min(lb.eval_int(&env));
                *hi = (*hi).max(rb.eval_int(&env));
            }
        }
        let variables = boxes
            .iter()
            .enumerate()
            .map(|(v, bounds)| IndexedVar {
                name: format!("v{v}"),
                bounds: bounds
                    .iter()
                    .map(|&(lo, hi)| (Affine::int(lo), Affine::int(hi)))
                    .collect(),
            })
            .collect();
        let body = Statements { slots, dims: r }.generate(rng);
        let program = SourceProgram {
            name: "nest".into(),
            vars,
            sizes: vec![size],
            loops,
            variables,
            streams,
            body,
        };
        let mut store = HostStore::allocate(&program, &env);
        for v in &program.variables {
            store.get_mut(&v.name).raw_mut().fill_with(|| value(rng));
        }
        (program, env, store)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: env_cases(256), ..ProptestConfig::default() })]

    /// The oracle's compiled statement and its walk, against the
    /// point-by-point reference that runs `BasicStatement::execute`.
    #[test]
    fn seq_run_is_its_reference_on_random_statements((program, env, store) in Nests) {
        let (mut fast, mut reference) = (store.clone(), store.clone());
        let count = seq::run(&program, &env, &mut fast);
        let context = || format!("{:?} over {:?}", program.body, program.streams);
        prop_assert_eq!(count, seq_reference(&program, &env, &mut reference), "{}", context());
        prop_assert_eq!(count, program.index_space_size(&env), "{}", context());
        prop_assert_eq!(&fast, &reference, "{}", context());
    }
}
