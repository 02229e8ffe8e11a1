//! The basic statement: the loop body of the source program (Sec. 3.1).
//!
//! The paper's loop body is a guarded-command set
//! `if B_0 -> S_0 [] ... [] B_{t-1} -> S_{t-1} fi` where the guards are
//! boolean functions of the loop indices and the computations refer only to
//! stream elements (global variables indexed by the loop indices) and the
//! indices themselves. We represent it as an ordered list of guarded
//! updates over *stream locals*: when a process executes an instance of the
//! basic statement it holds one scalar per stream (the element selected by
//! the stream's index map), evaluates the updates, and the new values flow
//! onward.

use std::fmt;

/// The deepest expression the front end accepts, in tree levels. Every
/// recursive walk of a statement (`eval`, the kernel compiler, the
/// sequential oracle's compiler and the closures it builds, `Debug`,
/// `Drop`) recurses once per level, so this bounds their stack. The
/// `.sys` parser counts parentheses, unary minus, `not`, `min`/`max` and
/// the length of an operator chain against it as it builds;
/// [`crate::validate`] applies it to programs built in code.
pub const MAX_EXPR_DEPTH: usize = 256;

/// Identifies a stream by position in the source program's stream list.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamId(pub usize);

/// The scalar value type carried by streams. Exact integers keep the
/// reference and systolic executions bit-identical.
pub type Value = i64;

/// Arithmetic over stream locals, loop indices, and constants.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ScalarExpr {
    /// The current value of a stream's local element.
    Stream(StreamId),
    /// The value of loop index `i` (0 = outermost).
    Index(usize),
    Const(Value),
    Add(Box<ScalarExpr>, Box<ScalarExpr>),
    Sub(Box<ScalarExpr>, Box<ScalarExpr>),
    Mul(Box<ScalarExpr>, Box<ScalarExpr>),
    /// Minimum / maximum, useful for dynamic-programming kernels.
    Min(Box<ScalarExpr>, Box<ScalarExpr>),
    Max(Box<ScalarExpr>, Box<ScalarExpr>),
    Neg(Box<ScalarExpr>),
}

/// Boolean guards over the same operands.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BoolExpr {
    Cmp(CmpOp, ScalarExpr, ScalarExpr),
    And(Box<BoolExpr>, Box<BoolExpr>),
    Or(Box<BoolExpr>, Box<BoolExpr>),
    Not(Box<BoolExpr>),
    True,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// One guarded update `B -> s := e`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GuardedUpdate {
    /// `None` is the unguarded (always-enabled) update.
    pub guard: Option<BoolExpr>,
    /// The stream local assigned.
    pub target: StreamId,
    pub value: ScalarExpr,
}

/// The loop body: an ordered sequence of guarded updates, executed
/// sequentially per instance.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BasicStatement {
    pub updates: Vec<GuardedUpdate>,
}

impl ScalarExpr {
    /// Arithmetic on [`Value`]s is two's-complement wrapping, in every
    /// build profile. This is the definition of the statement's
    /// arithmetic, not what runs: the sequential oracle executes the
    /// statement as the closures [`crate::seq`] compiles from it, the
    /// systolic side only as its compiled kernel tape
    /// (`systolic_runtime::Kernel::run`), and `systolic_interp::rustgen`
    /// prints only that tape. Each states the same law, and each is held
    /// to [`BasicStatement::execute`] by a property test.
    pub fn eval(&self, locals: &[Value], index: &[i64]) -> Value {
        match self {
            ScalarExpr::Stream(s) => locals[s.0],
            ScalarExpr::Index(i) => index[*i],
            ScalarExpr::Const(c) => *c,
            ScalarExpr::Add(a, b) => a.eval(locals, index).wrapping_add(b.eval(locals, index)),
            ScalarExpr::Sub(a, b) => a.eval(locals, index).wrapping_sub(b.eval(locals, index)),
            ScalarExpr::Mul(a, b) => a.eval(locals, index).wrapping_mul(b.eval(locals, index)),
            ScalarExpr::Min(a, b) => a.eval(locals, index).min(b.eval(locals, index)),
            ScalarExpr::Max(a, b) => a.eval(locals, index).max(b.eval(locals, index)),
            ScalarExpr::Neg(a) => a.eval(locals, index).wrapping_neg(),
        }
    }

    /// Streams read by this expression.
    pub fn collect_streams(&self, out: &mut Vec<StreamId>) {
        match self {
            ScalarExpr::Stream(s) => {
                if !out.contains(s) {
                    out.push(*s);
                }
            }
            ScalarExpr::Index(_) | ScalarExpr::Const(_) => {}
            ScalarExpr::Add(a, b)
            | ScalarExpr::Sub(a, b)
            | ScalarExpr::Mul(a, b)
            | ScalarExpr::Min(a, b)
            | ScalarExpr::Max(a, b) => {
                a.collect_streams(out);
                b.collect_streams(out);
            }
            ScalarExpr::Neg(a) => a.collect_streams(out),
        }
    }

    /// Whether the tree has more than `levels` levels (a leaf has one).
    /// Recurses at most `levels` deep, however deep the tree.
    pub(crate) fn deeper_than(&self, levels: usize) -> bool {
        let Some(below) = levels.checked_sub(1) else {
            return true;
        };
        match self {
            ScalarExpr::Stream(_) | ScalarExpr::Index(_) | ScalarExpr::Const(_) => false,
            ScalarExpr::Add(a, b)
            | ScalarExpr::Sub(a, b)
            | ScalarExpr::Mul(a, b)
            | ScalarExpr::Min(a, b)
            | ScalarExpr::Max(a, b) => a.deeper_than(below) || b.deeper_than(below),
            ScalarExpr::Neg(a) => a.deeper_than(below),
        }
    }
}

impl BoolExpr {
    pub fn eval(&self, locals: &[Value], index: &[i64]) -> bool {
        match self {
            BoolExpr::Cmp(op, a, b) => {
                let (a, b) = (a.eval(locals, index), b.eval(locals, index));
                match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                }
            }
            BoolExpr::And(a, b) => a.eval(locals, index) && b.eval(locals, index),
            BoolExpr::Or(a, b) => a.eval(locals, index) || b.eval(locals, index),
            BoolExpr::Not(a) => !a.eval(locals, index),
            BoolExpr::True => true,
        }
    }

    /// [`ScalarExpr::deeper_than`] for guards.
    pub(crate) fn deeper_than(&self, levels: usize) -> bool {
        let Some(below) = levels.checked_sub(1) else {
            return true;
        };
        match self {
            BoolExpr::Cmp(_, a, b) => a.deeper_than(below) || b.deeper_than(below),
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                a.deeper_than(below) || b.deeper_than(below)
            }
            BoolExpr::Not(a) => a.deeper_than(below),
            BoolExpr::True => false,
        }
    }

    pub fn collect_streams(&self, out: &mut Vec<StreamId>) {
        match self {
            BoolExpr::Cmp(_, a, b) => {
                a.collect_streams(out);
                b.collect_streams(out);
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                a.collect_streams(out);
                b.collect_streams(out);
            }
            BoolExpr::Not(a) => a.collect_streams(out),
            BoolExpr::True => {}
        }
    }
}

impl BasicStatement {
    /// Execute one instance on the stream locals, given the index point.
    pub fn execute(&self, locals: &mut [Value], index: &[i64]) {
        for u in &self.updates {
            let enabled = u.guard.as_ref().is_none_or(|g| g.eval(locals, index));
            if enabled {
                locals[u.target.0] = u.value.eval(locals, index);
            }
        }
    }

    /// Streams read anywhere in the body.
    pub fn streams_read(&self) -> Vec<StreamId> {
        let mut out = Vec::new();
        for u in &self.updates {
            if let Some(g) = &u.guard {
                g.collect_streams(&mut out);
            }
            u.value.collect_streams(&mut out);
        }
        out
    }

    /// Streams written by some update.
    pub fn streams_written(&self) -> Vec<StreamId> {
        let mut out = Vec::new();
        for u in &self.updates {
            if !out.contains(&u.target) {
                out.push(u.target);
            }
        }
        out
    }

    /// Streams accessed (read or written) anywhere.
    pub fn streams_accessed(&self) -> Vec<StreamId> {
        let mut out = self.streams_read();
        for s in self.streams_written() {
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out.sort();
        out
    }
}

/// Convenience constructors used throughout tests and the gallery.
pub mod build {
    use super::*;

    pub fn s(id: usize) -> ScalarExpr {
        ScalarExpr::Stream(StreamId(id))
    }

    pub fn idx(i: usize) -> ScalarExpr {
        ScalarExpr::Index(i)
    }

    pub fn c(v: Value) -> ScalarExpr {
        ScalarExpr::Const(v)
    }

    pub fn add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Add(Box::new(a), Box::new(b))
    }

    pub fn sub(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Sub(Box::new(a), Box::new(b))
    }

    pub fn mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Mul(Box::new(a), Box::new(b))
    }

    pub fn max(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Max(Box::new(a), Box::new(b))
    }

    pub fn min(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Min(Box::new(a), Box::new(b))
    }

    pub fn assign(target: usize, value: ScalarExpr) -> GuardedUpdate {
        GuardedUpdate {
            guard: None,
            target: StreamId(target),
            value,
        }
    }

    pub fn guarded(guard: BoolExpr, target: usize, value: ScalarExpr) -> GuardedUpdate {
        GuardedUpdate {
            guard: Some(guard),
            target: StreamId(target),
            value,
        }
    }

    pub fn cmp(op: CmpOp, a: ScalarExpr, b: ScalarExpr) -> BoolExpr {
        BoolExpr::Cmp(op, a, b)
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;

    #[test]
    fn polyprod_body() {
        // c := c + a * b  (streams: a=0, b=1, c=2)
        let body = BasicStatement {
            updates: vec![assign(2, add(s(2), mul(s(0), s(1))))],
        };
        let mut locals = [3, 4, 10];
        body.execute(&mut locals, &[0, 0]);
        assert_eq!(locals, [3, 4, 22]);
        assert_eq!(
            body.streams_read(),
            vec![StreamId(2), StreamId(0), StreamId(1)]
        );
        assert_eq!(body.streams_written(), vec![StreamId(2)]);
        assert_eq!(
            body.streams_accessed(),
            vec![StreamId(0), StreamId(1), StreamId(2)]
        );
    }

    #[test]
    fn guarded_update() {
        // if i == 0 -> c := a else skip (streams a=0, c=1)
        let body = BasicStatement {
            updates: vec![guarded(cmp(CmpOp::Eq, idx(0), c(0)), 1, s(0))],
        };
        let mut locals = [7, 0];
        body.execute(&mut locals, &[0, 5]);
        assert_eq!(locals[1], 7);
        let mut locals = [7, 0];
        body.execute(&mut locals, &[1, 5]);
        assert_eq!(locals[1], 0, "guard disabled");
    }

    #[test]
    fn updates_apply_in_order() {
        // s0 := s0 + 1; s1 := s0 (sees the new value)
        let body = BasicStatement {
            updates: vec![assign(0, add(s(0), c(1))), assign(1, s(0))],
        };
        let mut locals = [1, 0];
        body.execute(&mut locals, &[0]);
        assert_eq!(locals, [2, 2]);
    }

    #[test]
    fn min_max_eval() {
        let e = max(min(s(0), s(1)), c(0));
        assert_eq!(e.eval(&[-5, 3], &[]), 0);
        assert_eq!(e.eval(&[5, 3], &[]), 3);
    }
}
