//! Compile a plan's [`BasicStatement`] into the runtime's straight-line
//! [`Kernel`] tape (see `docs/kernels.md`).
//!
//! The basic statement is a sequence of unguarded updates
//! `s := e` executed in order, later updates seeing earlier writes. The
//! kernel is an SSA tape — op `i` defines register `i` — so sequential
//! semantics compile to a *current-register* map: a `Stream(s)` read
//! resolves to whatever register last wrote slot `s` (or a fresh
//! [`KernelOp::Slot`] load on first touch), and each update rebinds its
//! target slot to the register holding the computed value. The final map
//! restricted to written slots becomes the kernel's write-back list.
//!
//! Guarded updates are rejected: a data-dependent guard makes the body
//! control-divergent across lanes, which the struct-of-arrays batch
//! executor does not mask. Rejection is not an error — the module simply
//! runs on the scalar `macro_step` path, and the reason is surfaced in
//! the `kernels` metrics section.

use std::collections::HashMap;
use systolic_ir::{BasicStatement, ScalarExpr};
use systolic_runtime::{Kernel, KernelOp};

/// Upper bound on tape length. The gallery's bodies are 1–4 ops; a tape
/// past this size signals a degenerate expression tree where the
/// straight-line copy would bloat the per-wave register file.
pub const KERNEL_MAX_OPS: usize = 256;

/// Compile `body` to a [`Kernel`], or explain why it cannot run on the
/// vectorized wave path.
pub fn kernelize(body: &BasicStatement) -> Result<Kernel, String> {
    if body.updates.is_empty() {
        return Err("empty compute body".to_string());
    }
    let mut ops: Vec<KernelOp> = Vec::new();
    // slot -> register currently holding its value.
    let mut cur: HashMap<usize, u32> = HashMap::new();
    // Written slots in first-write order, for a stable write-back list.
    let mut written: Vec<usize> = Vec::new();
    let mut n_slots = 0usize;
    let mut n_dims = 0usize;

    for u in &body.updates {
        if u.guard.is_some() {
            return Err("guarded update (data-dependent control)".to_string());
        }
        let r = compile_expr(&u.value, &mut ops, &mut cur, &mut n_slots, &mut n_dims)?;
        let t = u.target.0;
        n_slots = n_slots.max(t + 1);
        cur.insert(t, r);
        if !written.contains(&t) {
            written.push(t);
        }
    }

    let writes = written.iter().map(|&s| (s as u32, cur[&s])).collect();
    Ok(Kernel {
        ops,
        writes,
        n_slots: n_slots as u32,
        n_dims: n_dims as u32,
    })
}

fn compile_expr(
    e: &ScalarExpr,
    ops: &mut Vec<KernelOp>,
    cur: &mut HashMap<usize, u32>,
    n_slots: &mut usize,
    n_dims: &mut usize,
) -> Result<u32, String> {
    if ops.len() >= KERNEL_MAX_OPS {
        return Err(format!("compute body exceeds {KERNEL_MAX_OPS} kernel ops"));
    }
    let emit = |ops: &mut Vec<KernelOp>, op: KernelOp| -> u32 {
        ops.push(op);
        (ops.len() - 1) as u32
    };
    Ok(match e {
        ScalarExpr::Stream(s) => {
            if let Some(&r) = cur.get(&s.0) {
                r
            } else {
                *n_slots = (*n_slots).max(s.0 + 1);
                let r = emit(ops, KernelOp::Slot(s.0 as u32));
                cur.insert(s.0, r);
                r
            }
        }
        ScalarExpr::Index(i) => {
            *n_dims = (*n_dims).max(*i + 1);
            emit(ops, KernelOp::Index(*i as u32))
        }
        ScalarExpr::Const(c) => emit(ops, KernelOp::Const(*c)),
        ScalarExpr::Add(a, b) => {
            let (ra, rb) = (
                compile_expr(a, ops, cur, n_slots, n_dims)?,
                compile_expr(b, ops, cur, n_slots, n_dims)?,
            );
            emit(ops, KernelOp::Add(ra, rb))
        }
        ScalarExpr::Sub(a, b) => {
            let (ra, rb) = (
                compile_expr(a, ops, cur, n_slots, n_dims)?,
                compile_expr(b, ops, cur, n_slots, n_dims)?,
            );
            emit(ops, KernelOp::Sub(ra, rb))
        }
        ScalarExpr::Mul(a, b) => {
            let (ra, rb) = (
                compile_expr(a, ops, cur, n_slots, n_dims)?,
                compile_expr(b, ops, cur, n_slots, n_dims)?,
            );
            emit(ops, KernelOp::Mul(ra, rb))
        }
        ScalarExpr::Min(a, b) => {
            let (ra, rb) = (
                compile_expr(a, ops, cur, n_slots, n_dims)?,
                compile_expr(b, ops, cur, n_slots, n_dims)?,
            );
            emit(ops, KernelOp::Min(ra, rb))
        }
        ScalarExpr::Max(a, b) => {
            let (ra, rb) = (
                compile_expr(a, ops, cur, n_slots, n_dims)?,
                compile_expr(b, ops, cur, n_slots, n_dims)?,
            );
            emit(ops, KernelOp::Max(ra, rb))
        }
        ScalarExpr::Neg(a) => {
            let ra = compile_expr(a, ops, cur, n_slots, n_dims)?;
            emit(ops, KernelOp::Neg(ra))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_ir::{BoolExpr, CmpOp, GuardedUpdate, StreamId};

    fn s(i: usize) -> ScalarExpr {
        ScalarExpr::Stream(StreamId(i))
    }

    fn upd(target: usize, value: ScalarExpr) -> GuardedUpdate {
        GuardedUpdate {
            guard: None,
            target: StreamId(target),
            value,
        }
    }

    /// The matmul body `c := c + a * b` and a second update reading the
    /// first's result: the kernel must match the sequential interpreter.
    #[test]
    fn kernel_matches_the_basic_statement_interpreter() {
        let body = BasicStatement {
            updates: vec![
                upd(
                    2,
                    ScalarExpr::Add(
                        Box::new(s(2)),
                        Box::new(ScalarExpr::Mul(Box::new(s(0)), Box::new(s(1)))),
                    ),
                ),
                upd(0, ScalarExpr::Sub(Box::new(s(2)), Box::new(s(0)))),
            ],
        };
        let kernel = kernelize(&body).unwrap();
        assert_eq!(kernel.n_slots, 3);
        assert_eq!(kernel.n_dims, 0);

        let mut via_kernel = [3i64, 5, 7];
        let mut via_interp = via_kernel;
        kernel.execute_scalar(&mut via_kernel, &[]);
        body.execute(&mut via_interp, &[]);
        assert_eq!(via_kernel, via_interp);
        assert_eq!(via_kernel, [19, 5, 22]);
    }

    #[test]
    fn slot_loads_are_shared_and_index_rank_is_tracked() {
        let body = BasicStatement {
            updates: vec![upd(
                1,
                ScalarExpr::Add(
                    Box::new(ScalarExpr::Mul(Box::new(s(0)), Box::new(s(0)))),
                    Box::new(ScalarExpr::Index(1)),
                ),
            )],
        };
        let kernel = kernelize(&body).unwrap();
        // `s(0)` is loaded once: Slot, Mul, Index, Add.
        assert_eq!(kernel.ops.len(), 4);
        assert_eq!(kernel.n_dims, 2);

        let mut locals = [4i64, 0];
        kernel.execute_scalar(&mut locals, &[100, 9]);
        assert_eq!(locals, [4, 25]);
    }

    #[test]
    fn guarded_updates_are_rejected_with_a_reason() {
        let body = BasicStatement {
            updates: vec![GuardedUpdate {
                guard: Some(BoolExpr::Cmp(CmpOp::Eq, s(0), ScalarExpr::Const(0))),
                target: StreamId(0),
                value: ScalarExpr::Const(1),
            }],
        };
        let err = kernelize(&body).unwrap_err();
        assert!(err.contains("guarded update"), "got: {err}");
    }

    #[test]
    fn an_empty_body_is_rejected() {
        assert!(kernelize(&BasicStatement::default()).is_err());
    }
}
