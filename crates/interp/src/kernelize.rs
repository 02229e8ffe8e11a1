//! Compile a plan's [`BasicStatement`] into the runtime's straight-line
//! [`Kernel`] tape — the one form of the statement every engine executes
//! (see `docs/kernels.md`).
//!
//! The basic statement is a sequence of guarded updates `B -> s := e`
//! executed in order, later updates seeing earlier writes. The kernel is
//! an SSA tape — op `i` defines register `i` — so sequential semantics
//! compile to a *current-register* map: a `Stream(s)` read resolves to
//! whatever register last wrote slot `s` (or a fresh [`KernelOp::Slot`]
//! load on first touch), and each update rebinds its target slot to the
//! register holding the new value. The final map restricted to written
//! slots becomes the kernel's write-back list.
//!
//! A guard compiles to a 0/1 register — comparisons to `Eq`/`Lt`/`Le`
//! (`!=` as `1 − eq`, `>` and `>=` with the operands swapped), `and` /
//! `or` / `not` to `Min` / `Max` / `1 − r` — and its update to
//! `s := select(B, e, s)`. Evaluating `e` where the guard is false is
//! unobservable because every tape op is total: arithmetic wraps and
//! nothing divides. So every statement compiles, and the tape has no
//! control flow for the lanes of a batch to diverge on.

use std::collections::HashMap;
use systolic_ir::{BasicStatement, BoolExpr, CmpOp, ScalarExpr};
use systolic_runtime::{Kernel, KernelOp};

/// Compile `body` to its [`Kernel`]; the empty statement is the empty
/// tape.
pub fn kernelize(body: &BasicStatement) -> Kernel {
    let mut t = Tape::default();
    // Written slots in first-write order, for a stable write-back list.
    let mut written: Vec<usize> = Vec::new();
    for u in &body.updates {
        let target = u.target.0;
        let mut r = t.scalar(&u.value);
        if let Some(guard) = &u.guard {
            let (enabled, old) = (t.boolean(guard), t.slot(target));
            r = t.emit(KernelOp::Select(enabled, r, old));
        }
        t.n_slots = t.n_slots.max(target + 1);
        t.cur.insert(target, r);
        if !written.contains(&target) {
            written.push(target);
        }
    }
    let writes = written.iter().map(|&s| (s as u32, t.cur[&s])).collect();
    Kernel {
        ops: t.ops,
        writes,
        n_slots: t.n_slots as u32,
        n_dims: t.n_dims as u32,
    }
}

/// The tape under construction.
#[derive(Default)]
struct Tape {
    ops: Vec<KernelOp>,
    /// slot -> register currently holding its value.
    cur: HashMap<usize, u32>,
    /// The register holding the constant 1, once emitted.
    one: Option<u32>,
    n_slots: usize,
    n_dims: usize,
}

impl Tape {
    fn emit(&mut self, op: KernelOp) -> u32 {
        self.ops.push(op);
        (self.ops.len() - 1) as u32
    }

    /// The register holding slot `s`'s current value.
    fn slot(&mut self, s: usize) -> u32 {
        if let Some(&r) = self.cur.get(&s) {
            return r;
        }
        self.n_slots = self.n_slots.max(s + 1);
        let r = self.emit(KernelOp::Slot(s as u32));
        self.cur.insert(s, r);
        r
    }

    fn one(&mut self) -> u32 {
        match self.one {
            Some(r) => r,
            None => {
                let r = self.emit(KernelOp::Const(1));
                *self.one.insert(r)
            }
        }
    }

    /// `1 − r` for a 0/1 register `r`.
    fn not(&mut self, r: u32) -> u32 {
        let one = self.one();
        self.emit(KernelOp::Sub(one, r))
    }

    fn scalar(&mut self, e: &ScalarExpr) -> u32 {
        let op = match e {
            ScalarExpr::Stream(s) => return self.slot(s.0),
            ScalarExpr::Index(i) => {
                self.n_dims = self.n_dims.max(i + 1);
                KernelOp::Index(*i as u32)
            }
            ScalarExpr::Const(c) => KernelOp::Const(*c),
            ScalarExpr::Add(a, b) => KernelOp::Add(self.scalar(a), self.scalar(b)),
            ScalarExpr::Sub(a, b) => KernelOp::Sub(self.scalar(a), self.scalar(b)),
            ScalarExpr::Mul(a, b) => KernelOp::Mul(self.scalar(a), self.scalar(b)),
            ScalarExpr::Min(a, b) => KernelOp::Min(self.scalar(a), self.scalar(b)),
            ScalarExpr::Max(a, b) => KernelOp::Max(self.scalar(a), self.scalar(b)),
            ScalarExpr::Neg(a) => KernelOp::Neg(self.scalar(a)),
        };
        self.emit(op)
    }

    /// A register holding 1 where `g` holds, else 0.
    fn boolean(&mut self, g: &BoolExpr) -> u32 {
        let op = match g {
            BoolExpr::True => return self.one(),
            BoolExpr::Not(a) => {
                let r = self.boolean(a);
                return self.not(r);
            }
            BoolExpr::And(a, b) => KernelOp::Min(self.boolean(a), self.boolean(b)),
            BoolExpr::Or(a, b) => KernelOp::Max(self.boolean(a), self.boolean(b)),
            BoolExpr::Cmp(op, a, b) => {
                let (a, b) = (self.scalar(a), self.scalar(b));
                match op {
                    CmpOp::Eq => KernelOp::Eq(a, b),
                    CmpOp::Lt => KernelOp::Lt(a, b),
                    CmpOp::Le => KernelOp::Le(a, b),
                    CmpOp::Gt => KernelOp::Lt(b, a),
                    CmpOp::Ge => KernelOp::Le(b, a),
                    CmpOp::Ne => {
                        let eq = self.emit(KernelOp::Eq(a, b));
                        return self.not(eq);
                    }
                }
            }
        };
        self.emit(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_ir::expr::build::*;
    use systolic_ir::Value;

    /// One lane of `k` on `locals` at `x`.
    fn run1(k: &Kernel, locals: &mut [Value], x: &[i64]) {
        k.run(&mut vec![0; k.ops.len()], locals, x, 1);
    }

    /// The matmul body `c := c + a * b` and a second update reading the
    /// first's result: the kernel must match the sequential interpreter.
    #[test]
    fn kernel_matches_the_basic_statement_interpreter() {
        let body = BasicStatement {
            updates: vec![
                assign(2, add(s(2), mul(s(0), s(1)))),
                assign(0, sub(s(2), s(0))),
            ],
        };
        let kernel = kernelize(&body);
        assert_eq!(kernel.n_slots, 3);
        assert_eq!(kernel.n_dims, 0);

        let mut via_kernel = [3i64, 5, 7];
        let mut via_interp = via_kernel;
        run1(&kernel, &mut via_kernel, &[]);
        body.execute(&mut via_interp, &[]);
        assert_eq!(via_kernel, via_interp);
        assert_eq!(via_kernel, [19, 5, 22]);
    }

    #[test]
    fn slot_loads_are_shared_and_index_rank_is_tracked() {
        let body = BasicStatement {
            updates: vec![assign(1, add(mul(s(0), s(0)), idx(1)))],
        };
        let kernel = kernelize(&body);
        // `s(0)` is loaded once: Slot, Mul, Index, Add.
        assert_eq!(kernel.ops.len(), 4);
        assert_eq!(kernel.n_dims, 2);

        let mut locals = [4i64, 0];
        run1(&kernel, &mut locals, &[100, 9]);
        assert_eq!(locals, [4, 25]);
    }

    /// `if i <= j and not (a != 0) -> c := c + 1; if i > j or c >= 2 ->
    /// a := c`: both guards select per point, and the second sees the
    /// first's write.
    #[test]
    fn guarded_updates_select_between_the_new_and_the_old_value() {
        let first = BoolExpr::And(
            Box::new(cmp(CmpOp::Le, idx(0), idx(1))),
            Box::new(BoolExpr::Not(Box::new(cmp(CmpOp::Ne, s(0), c(0))))),
        );
        let second = BoolExpr::Or(
            Box::new(cmp(CmpOp::Gt, idx(0), idx(1))),
            Box::new(cmp(CmpOp::Ge, s(1), c(2))),
        );
        let body = BasicStatement {
            updates: vec![guarded(first, 1, add(s(1), c(1))), guarded(second, 0, s(1))],
        };
        let kernel = kernelize(&body);
        assert!(kernel
            .ops
            .iter()
            .any(|op| matches!(op, KernelOp::Select(..))));
        for (a, c0) in [(0, 0), (0, 1), (3, 1), (3, 5)] {
            for x in [[0, 0], [0, 1], [1, 0]] {
                let mut via_kernel = [a, c0];
                let mut via_interp = via_kernel;
                run1(&kernel, &mut via_kernel, &x);
                body.execute(&mut via_interp, &x);
                assert_eq!(via_kernel, via_interp, "a={a} c={c0} x={x:?}");
            }
        }
    }

    #[test]
    fn an_empty_body_is_the_empty_tape() {
        assert_eq!(kernelize(&BasicStatement::default()), Kernel::default());
    }
}
