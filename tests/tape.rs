//! The kernel tape is the statement. Every engine executes the basic
//! statement only as its compiled tape (`Kernel::run`): one lane wide in
//! the rendezvous VM and the scalar macro-step, many lanes and
//! iterations in a wave batch. Over random statements — guarded updates
//! with nested `and`/`or`/`not` over all six comparisons, index reads,
//! `min`/`max`/negation, accumulators, constants at the ends of `i64` —
//! three things hold:
//!
//! - one lane of the tape equals `BasicStatement::execute`, the
//!   sequential oracle's evaluator, on every input;
//! - a run of L lanes equals L one-lane runs;
//! - a wave batch — the tape split into its stream and carried sections
//!   (`TapeSplit`) and run over I iterations of L lanes (`WaveBatch`) —
//!   equals, lane by lane, I one-lane iterations that receive into the
//!   moving slots, run the tape and send the slots.
//!
//! CI runs it at `PROPTEST_CASES=2000`.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use systolizer::interp::kernelize;
use systolizer::ir::{BasicStatement, BoolExpr, CmpOp, GuardedUpdate, ScalarExpr, StreamId, Value};
use systolizer::runtime::{Kernel, TapeSplit, WaveBatch};

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

/// `s ⊕ e` or `e ⊕ s` for ⊕ one of `+`, `min`, `max`: an accumulator,
/// which a wave batch may fold.
fn accumulate(rng: &mut TestRng, s: StreamId) -> ScalarExpr {
    let (mut acc, mut e) = (Box::new(ScalarExpr::Stream(s)), Box::new(scalar(rng, 3)));
    if pick(rng, 2) == 0 {
        std::mem::swap(&mut acc, &mut e);
    }
    match pick(rng, 3) {
        0 => ScalarExpr::Add(acc, e),
        1 => ScalarExpr::Min(acc, e),
        _ => ScalarExpr::Max(acc, e),
    }
}

/// Zero to four updates, half of them guarded and a third of them
/// accumulators; targets may repeat, so later updates read and
/// overwrite earlier ones.
struct Statements;

impl Strategy for Statements {
    type Value = BasicStatement;
    fn generate(&self, rng: &mut TestRng) -> BasicStatement {
        let updates = (0..pick(rng, 5))
            .map(|_| {
                let target = StreamId(pick(rng, SLOTS));
                GuardedUpdate {
                    guard: (pick(rng, 2) == 0).then(|| boolean(rng, 3)),
                    target,
                    value: match pick(rng, 3) {
                        0 => accumulate(rng, target),
                        _ => scalar(rng, 4),
                    },
                }
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

/// One lane of a wave batch: its locals, first index point, increment,
/// and the values each link receives, one per iteration.
#[derive(Clone, Debug)]
struct Lane {
    locals: Vec<Value>,
    x: Vec<i64>,
    incr: Vec<i64>,
    received: Vec<Vec<Value>>,
}

/// A batch: link `j` moves through local `slots[j]`.
#[derive(Clone, Debug)]
struct Batch {
    slots: Vec<u32>,
    iters: usize,
    lanes: Vec<Lane>,
}

/// A random non-empty subset of the slots in random order, now and then
/// with a second link into one of them; one to five iterations; one to
/// `MAX_LANES` lanes.
struct Batches;

impl Strategy for Batches {
    type Value = Batch;
    fn generate(&self, rng: &mut TestRng) -> Batch {
        let mut slots: Vec<u32> = (0..SLOTS as u32).filter(|_| pick(rng, 2) == 0).collect();
        if slots.is_empty() {
            slots.push(pick(rng, SLOTS) as u32);
        }
        for i in (1..slots.len()).rev() {
            slots.swap(i, pick(rng, i + 1));
        }
        if pick(rng, 4) == 0 {
            slots.push(slots[pick(rng, slots.len())]);
        }
        let iters = 1 + pick(rng, 5);
        let lanes = (0..1 + pick(rng, MAX_LANES))
            .map(|_| Lane {
                locals: (0..SLOTS).map(|_| value(rng)).collect(),
                x: (0..DIMS).map(|_| value(rng)).collect(),
                incr: (0..DIMS).map(|_| value(rng)).collect(),
                received: (0..slots.len())
                    .map(|_| (0..iters).map(|_| value(rng)).collect())
                    .collect(),
            })
            .collect();
        Batch {
            slots,
            iters,
            lanes,
        }
    }
}

/// `lane`'s iterations on the one-lane tape, as the scalar macro-step
/// runs them: receive into the moving slots, run, send the moving slots,
/// advance the point. The locals after, and what each link sent.
fn one_lane(kernel: &Kernel, slots: &[u32], lane: &Lane) -> (Vec<Value>, Vec<Vec<Value>>) {
    let (mut locals, mut x) = (lane.locals.clone(), lane.x.clone());
    let mut regs = vec![0; kernel.ops.len()];
    let mut sent = vec![Vec::new(); slots.len()];
    for it in 0..lane.received.first().map_or(0, Vec::len) {
        for (j, &s) in slots.iter().enumerate() {
            locals[s as usize] = lane.received[j][it];
        }
        kernel.run(&mut regs, &mut locals, &x, 1);
        for (j, &s) in slots.iter().enumerate() {
            sent[j].push(locals[s as usize]);
        }
        for (xv, &inc) in x.iter_mut().zip(&lane.incr) {
            *xv = xv.wrapping_add(inc);
        }
    }
    (locals, sent)
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

    #[test]
    fn the_split_batch_is_the_statement(body in Statements, batch in Batches) {
        let kernel = kernelize(&body);
        let split = TapeSplit::new(&kernel, &batch.slots);
        let mut wave = WaveBatch::default();
        wave.begin(&split, batch.lanes.len(), batch.iters);
        for (l, lane) in batch.lanes.iter().enumerate() {
            for s in 0..split.rows() {
                *wave.local(s, l) = lane.locals[s];
            }
            for d in 0..kernel.n_dims as usize {
                wave.set_point(d, l, lane.x[d], lane.incr[d]);
            }
            for (j, received) in lane.received.iter().enumerate() {
                wave.input(j, l).copy_from_slice(received);
            }
        }
        wave.run(&split);
        for (l, lane) in batch.lanes.iter().enumerate() {
            let (locals, sent) = one_lane(&kernel, &batch.slots, lane);
            for (s, &want) in locals.iter().enumerate().take(split.rows()) {
                prop_assert_eq!(*wave.local(s, l), want, "{:?} on {:?}: slot {} of lane {}", body, batch, s, l);
            }
            for (j, want) in sent.iter().enumerate() {
                let got = wave.sent(&split, j, l);
                prop_assert_eq!(got, &want[..], "{:?} on {:?}: link {} of lane {}", body, batch, j, l);
            }
        }
    }
}
