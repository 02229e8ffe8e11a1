//! Random basic statements, for the laws that hold a compiled form of the
//! statement to `BasicStatement::execute`: the kernel tape
//! (`tests/tape.rs`) and the sequential oracle's compiled statement
//! (`tests/oracle.rs`). Guarded updates with nested `and`/`or`/`not`
//! over all six comparisons, index reads, `min`/`max`/negation,
//! accumulators, and constants at the ends of `i64`.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use systolizer::ir::{BasicStatement, BoolExpr, CmpOp, GuardedUpdate, ScalarExpr, StreamId, Value};

pub fn pick(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n as u128) as usize
}

/// Small values, with the ends of `i64` and their neighbours often
/// enough that every op meets them.
pub fn value(rng: &mut TestRng) -> Value {
    const EDGES: [Value; 6] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX];
    match pick(rng, 3) {
        0 => EDGES[pick(rng, EDGES.len())],
        _ => pick(rng, 21) as Value - 10,
    }
}

/// Statements over `slots` stream locals and a `dims`-dimensional index
/// point: zero to four updates, half of them guarded and a third of them
/// accumulators; targets may repeat, so later updates read and overwrite
/// earlier ones.
pub struct Statements {
    pub slots: usize,
    pub dims: usize,
}

impl Statements {
    fn scalar(&self, rng: &mut TestRng, depth: usize) -> ScalarExpr {
        if depth == 0 || pick(rng, 4) == 0 {
            return match pick(rng, 3) {
                0 => ScalarExpr::Stream(StreamId(pick(rng, self.slots))),
                1 => ScalarExpr::Index(pick(rng, self.dims)),
                _ => ScalarExpr::Const(value(rng)),
            };
        }
        let sub = |rng: &mut TestRng| Box::new(self.scalar(rng, depth - 1));
        match pick(rng, 6) {
            0 => ScalarExpr::Add(sub(rng), sub(rng)),
            1 => ScalarExpr::Sub(sub(rng), sub(rng)),
            2 => ScalarExpr::Mul(sub(rng), sub(rng)),
            3 => ScalarExpr::Min(sub(rng), sub(rng)),
            4 => ScalarExpr::Max(sub(rng), sub(rng)),
            _ => ScalarExpr::Neg(sub(rng)),
        }
    }

    fn boolean(&self, rng: &mut TestRng, depth: usize) -> BoolExpr {
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
                _ => BoolExpr::Cmp(OPS[pick(rng, 6)], self.scalar(rng, 2), self.scalar(rng, 2)),
            };
        }
        let sub = |rng: &mut TestRng| Box::new(self.boolean(rng, depth - 1));
        match pick(rng, 3) {
            0 => BoolExpr::And(sub(rng), sub(rng)),
            1 => BoolExpr::Or(sub(rng), sub(rng)),
            _ => BoolExpr::Not(sub(rng)),
        }
    }

    /// `s ⊕ e` or `e ⊕ s` for ⊕ one of `+`, `min`, `max`: an accumulator,
    /// which a wave batch may fold.
    fn accumulate(&self, rng: &mut TestRng, s: StreamId) -> ScalarExpr {
        let (mut acc, mut e) = (
            Box::new(ScalarExpr::Stream(s)),
            Box::new(self.scalar(rng, 3)),
        );
        if pick(rng, 2) == 0 {
            std::mem::swap(&mut acc, &mut e);
        }
        match pick(rng, 3) {
            0 => ScalarExpr::Add(acc, e),
            1 => ScalarExpr::Min(acc, e),
            _ => ScalarExpr::Max(acc, e),
        }
    }
}

impl Strategy for Statements {
    type Value = BasicStatement;
    fn generate(&self, rng: &mut TestRng) -> BasicStatement {
        let updates = (0..pick(rng, 5))
            .map(|_| {
                let target = StreamId(pick(rng, self.slots));
                GuardedUpdate {
                    guard: (pick(rng, 2) == 0).then(|| self.boolean(rng, 3)),
                    target,
                    value: match pick(rng, 3) {
                        0 => self.accumulate(rng, target),
                        _ => self.scalar(rng, 4),
                    },
                }
            })
            .collect();
        BasicStatement { updates }
    }
}
