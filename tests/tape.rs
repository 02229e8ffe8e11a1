//! The kernel tape is the statement. Every engine executes the basic
//! statement only as its compiled tape (`Kernel::run`): one lane wide in
//! the rendezvous VM and the scalar macro-step, many lanes in a wave
//! batch. Over random statements — guarded updates with nested
//! `and`/`or`/`not` over all six comparisons, index reads, `min`/`max`/
//! negation, constants at the ends of `i64` — two things hold:
//!
//! - one lane of the tape equals `BasicStatement::execute`, the
//!   sequential oracle's evaluator, on every input;
//! - a run of L lanes equals L one-lane runs.
//!
//! CI runs it at `PROPTEST_CASES=2000`.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use systolizer::interp::kernelize;
use systolizer::ir::{BasicStatement, BoolExpr, CmpOp, GuardedUpdate, ScalarExpr, StreamId, Value};

const SLOTS: usize = 4;
const DIMS: usize = 3;
const MAX_LANES: usize = 6;

fn pick(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n as u128) as usize
}

/// Small values, with the ends of `i64` and their neighbours often
/// enough that every op meets them.
fn value(rng: &mut TestRng) -> Value {
    const EDGES: [Value; 6] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX];
    match pick(rng, 3) {
        0 => EDGES[pick(rng, EDGES.len())],
        _ => pick(rng, 21) as Value - 10,
    }
}

fn scalar(rng: &mut TestRng, depth: usize) -> ScalarExpr {
    if depth == 0 || pick(rng, 4) == 0 {
        return match pick(rng, 3) {
            0 => ScalarExpr::Stream(StreamId(pick(rng, SLOTS))),
            1 => ScalarExpr::Index(pick(rng, DIMS)),
            _ => ScalarExpr::Const(value(rng)),
        };
    }
    let sub = |rng: &mut TestRng| Box::new(scalar(rng, depth - 1));
    match pick(rng, 6) {
        0 => ScalarExpr::Add(sub(rng), sub(rng)),
        1 => ScalarExpr::Sub(sub(rng), sub(rng)),
        2 => ScalarExpr::Mul(sub(rng), sub(rng)),
        3 => ScalarExpr::Min(sub(rng), sub(rng)),
        4 => ScalarExpr::Max(sub(rng), sub(rng)),
        _ => ScalarExpr::Neg(sub(rng)),
    }
}

fn boolean(rng: &mut TestRng, depth: usize) -> BoolExpr {
    if depth == 0 || pick(rng, 3) == 0 {
        const OPS: [CmpOp; 6] = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        return match pick(rng, 8) {
            0 => BoolExpr::True,
            _ => BoolExpr::Cmp(OPS[pick(rng, 6)], scalar(rng, 2), scalar(rng, 2)),
        };
    }
    let sub = |rng: &mut TestRng| Box::new(boolean(rng, depth - 1));
    match pick(rng, 3) {
        0 => BoolExpr::And(sub(rng), sub(rng)),
        1 => BoolExpr::Or(sub(rng), sub(rng)),
        _ => BoolExpr::Not(sub(rng)),
    }
}

/// Zero to four updates, half of them guarded; targets may repeat, so
/// later updates read and overwrite earlier ones.
struct Statements;

impl Strategy for Statements {
    type Value = BasicStatement;
    fn generate(&self, rng: &mut TestRng) -> BasicStatement {
        let updates = (0..pick(rng, 5))
            .map(|_| GuardedUpdate {
                guard: (pick(rng, 2) == 0).then(|| boolean(rng, 3)),
                target: StreamId(pick(rng, SLOTS)),
                value: scalar(rng, 4),
            })
            .collect();
        BasicStatement { updates }
    }
}

/// One to `MAX_LANES` lanes, each its locals and its index point.
struct Lanes;

impl Strategy for Lanes {
    type Value = Vec<(Vec<Value>, Vec<i64>)>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (0..1 + pick(rng, MAX_LANES))
            .map(|_| {
                let locals = (0..SLOTS).map(|_| value(rng)).collect();
                let x = (0..DIMS).map(|_| value(rng)).collect();
                (locals, x)
            })
            .collect()
    }
}

/// Case count override (see `tests/random_programs.rs`).
fn env_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: env_cases(256), ..ProptestConfig::default() })]

    #[test]
    fn the_tape_is_the_statement(body in Statements, lanes in Lanes) {
        let kernel = kernelize(&body);
        let n = lanes.len();
        let mut regs = vec![0; kernel.ops.len() * n];
        let mut expected = Vec::with_capacity(n);
        for (locals, x) in &lanes {
            let mut via_statement = locals.clone();
            body.execute(&mut via_statement, x);
            let mut via_tape = locals.clone();
            kernel.run(&mut regs, &mut via_tape, x, 1);
            prop_assert_eq!(&via_tape, &via_statement, "{:?} on {:?} at {:?}", body, locals, x);
            expected.push(via_statement);
        }

        // The same lanes struct-of-arrays: `[slot][lane]`, `[dim][lane]`.
        let mut locals: Vec<Value> =
            (0..SLOTS).flat_map(|s| lanes.iter().map(move |(l, _)| l[s])).collect();
        let x: Vec<i64> = (0..DIMS).flat_map(|d| lanes.iter().map(move |(_, x)| x[d])).collect();
        kernel.run(&mut regs, &mut locals, &x, n);
        for (lane, want) in expected.iter().enumerate() {
            let got: Vec<Value> = (0..SLOTS).map(|s| locals[s * n + lane]).collect();
            prop_assert_eq!(&got, want, "{:?}, lane {} of {}", body, lane, n);
        }
    }
}
