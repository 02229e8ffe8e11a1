//! Wave kernels: the one runtime form of the basic statement, and its
//! struct-of-arrays execution over homogeneous Compute ops.
//!
//! The wavefront executor (`crate::wavefront`) sweeps the array one
//! topological level at a time, but a Compute op retired one process at
//! a time pays per-value ring bookkeeping for a few ops of arithmetic.
//! This module removes that cost for the common case the paper's scheme
//! actually produces: every computation process runs the *same* basic
//! statement.
//!
//! - [`Kernel`] is the typed straight-line form of one basic statement:
//!   an SSA op tape over registers ([`KernelOp`]) plus a final list of
//!   local-slot writebacks. The compiler side (`systolic_interp`)
//!   lowers every `BasicStatement` into it once per skeleton — a guarded
//!   update `B -> s := e` becomes `s := select(B, e, s)`, sound because
//!   every op is total — and [`Kernel::run`] is the only code that
//!   executes a statement: a section of it over `lanes × iters` or
//!   `lanes` values at once on the wave path, the whole tape one lane
//!   wide on the scalar macro-step and in the rendezvous VM.
//! - [`analyze_kernels`] classifies every chunk of a [`WavefrontPlan`]
//!   once per module: a chunk is *kernel-eligible* when it is a single
//!   compute window — one process's repeater, which the plan has already
//!   cut from the load/soak ops before it and the drain/recover ops
//!   after it — moving values over pairwise-distinct rings, so that a
//!   batch's iterations are whole par-receive/body/par-send cycles of the
//!   op step (`crate::step`), taken batch-wise; or a cycle of such
//!   windows with a firing schedule (`CycleSchedule`), derived here by
//!   counting. Everything else (transport windows, cycles through a
//!   transport window or without a schedule, aliased rings) runs on
//!   the scalar macro-step, and the report counts what a reader counts:
//!   compute chunks and whole transport processes, each scalar one with
//!   its reason.
//! - [`TapeSplit`] is the tape cut once per module against the batch's
//!   moving-slot layout (loop summarization): the *stream* ops, which
//!   depend only on received values, index points, constants and slots
//!   the tape never writes, and the *carried* ops, which read a
//!   stationary slot the tape writes — the only values one iteration
//!   hands the next. A carried chain `s := s ⊕ r` with ⊕ a wrapping
//!   `Add`, `Min` or `Max` and `r` a stream register is a *fold*.
//! - [`kernel_wave`] runs a scheduled cycle round by round, each round
//!   one batch of one iteration per lane over a dense value array, and
//!   executes the wave's other eligible chunks as a batch
//!   ([`WaveBatch`]): every lane's `iters` ring heads are gathered out of
//!   the run arena's ring slab (`crate::arena`) into struct-of-arrays
//!   rows (lane = process, one bounds decision per batch instead of one
//!   per op); the stream tape runs once over `lanes × iters`, as long
//!   loops the compiler can auto-vectorize; each fold is one reduction
//!   per lane; the other carried ops, if any, run per iteration over the
//!   lanes; and the sent rows scatter back into the slab in FIFO order.
//!   The per-lane logical accounting (`steps`, `messages`, ring `moved`)
//!   is identical to the scalar op step's, so stores stay
//!   bit-identical and stats invariant — the same contract every other
//!   engine upholds.
//!
//! Safety of the gather/scatter: a lane only touches its own window's
//! rings — each its own span of the slab — every lane of a batch pops
//! all `m` iterations before any lane pushes, and `m` never exceeds the
//! input occupancy or output slack observed at the start of the batch.
//! That is stream-equivalent to the interleaved pop/push of the macro
//! path whoever holds a ring's other end — another lane of the same batch
//! (two compute windows of one wave can share a ring when their value
//! runs do not overlap), or the lane itself on a self-looped ring: only
//! values already queued are served, only slack already free is filled.
//! See `docs/kernels.md`.

use crate::arena::RunArena;
use crate::coop::RunStats;
use crate::json::Json;
use crate::process::{ChanId, Value};
use crate::procir::{MovingLink, ProcIrModule, ProcOp};
use crate::step::Port;
use crate::wavefront::{op_runs, WaveState, WavefrontPlan, Window};
use std::sync::Arc;

/// The longest tape a wave batch takes. Every stream op of a batch holds
/// a row of `lanes × iters` registers, so a longer tape leaves room for
/// few iterations under [`KERNEL_BATCH_VALUES`]: [`analyze_kernels`]
/// leaves such a module on the scalar path, where it runs one lane wide.
/// The gallery's tapes are 4–6 ops.
pub const KERNEL_MAX_OPS: usize = 256;

/// The most values the rows of one wave batch hold — gathered input,
/// stream registers, index points and snapshots, each `lanes × iters`
/// long ([`TapeSplit::row_values`] per lane and iteration). A batch that
/// would hold more is cut into several, first by iterations, then by
/// lanes. 2 MiB; E.1's largest batch at n = 24 holds 3 125 (25 lanes ×
/// 25 iterations × 5).
pub const KERNEL_BATCH_VALUES: usize = 1 << 18;

/// One op of the kernel tape. Ops form an SSA register file: op `i`
/// defines register `i`, and operand indices always point at earlier
/// ops, so the vector interpreter can split the register file at the
/// destination without aliasing. Every op is total (no division, and
/// arithmetic wraps), which is what lets a guard select between two
/// computed values instead of branching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelOp {
    /// Read local slot `s` as it stood before the statement (a slot an
    /// earlier update wrote is read from that update's register).
    Slot(u32),
    /// Read coordinate `d` of the repeater's current index point.
    Index(u32),
    Const(Value),
    Add(u32, u32),
    Sub(u32, u32),
    Mul(u32, u32),
    Min(u32, u32),
    Max(u32, u32),
    Neg(u32),
    /// `1` when the operands are equal, else `0`.
    Eq(u32, u32),
    /// `1` when the first operand is less than the second, else `0`.
    Lt(u32, u32),
    /// `1` when the first operand is at most the second, else `0`.
    Le(u32, u32),
    /// The second operand where the first is non-zero, else the third.
    Select(u32, u32, u32),
}

impl KernelOp {
    /// This op with every operand register `r` replaced by `f(r)`, in
    /// operand order.
    fn remap(self, mut f: impl FnMut(u32) -> u32) -> KernelOp {
        use KernelOp::*;
        match self {
            Slot(_) | Index(_) | Const(_) => self,
            Add(a, b) => Add(f(a), f(b)),
            Sub(a, b) => Sub(f(a), f(b)),
            Mul(a, b) => Mul(f(a), f(b)),
            Min(a, b) => Min(f(a), f(b)),
            Max(a, b) => Max(f(a), f(b)),
            Eq(a, b) => Eq(f(a), f(b)),
            Lt(a, b) => Lt(f(a), f(b)),
            Le(a, b) => Le(f(a), f(b)),
            Neg(a) => Neg(f(a)),
            Select(c, a, b) => Select(f(c), f(a), f(b)),
        }
    }

    /// Whether any operand register satisfies `p`.
    fn reads(self, mut p: impl FnMut(u32) -> bool) -> bool {
        let mut any = false;
        self.remap(|r| {
            any |= p(r);
            r
        });
        any
    }
}

/// The compiled basic statement: straight-line ops over named local
/// slots. Produced once per skeleton by the compiler side and shared via
/// the module (`ProcIrModule::kernel`). The empty tape is the empty
/// statement.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Kernel {
    pub ops: Vec<KernelOp>,
    /// Slot writebacks applied in order after the tape: `(slot, reg)`.
    pub writes: Vec<(u32, u32)>,
    /// One past the highest local slot the tape or writes touch.
    pub n_slots: u32,
    /// One past the highest index coordinate the tape reads.
    pub n_dims: u32,
}

impl Kernel {
    /// Execute the statement on `lanes` processes at once, laid out
    /// struct-of-arrays: `locals` is `[slot][lane]`, `x` is `[dim][lane]`
    /// and `regs`, scratch of at least `ops.len() × lanes` values,
    /// `[op][lane]`. The tape runs op-outer / lane-inner, then the
    /// writebacks land in `locals`. One lane is one process's locals at
    /// its index point — or, for a [`TapeSplit`]'s stream section, one
    /// process at one iteration. Arithmetic is two's-complement wrapping,
    /// the overflow law of `ScalarExpr::eval`.
    ///
    /// Always inlined: at the one-lane call sites `lanes` is the constant
    /// 1 and each op compiles to one scalar operation.
    #[inline(always)]
    pub fn run(&self, regs: &mut [Value], locals: &mut [Value], x: &[i64], lanes: usize) {
        let n = lanes;
        for (i, op) in self.ops.iter().enumerate() {
            let (head, tail) = regs.split_at_mut(i * n);
            let dst = &mut tail[..n];
            let reg = |r: u32| &head[r as usize * n..][..n];
            match *op {
                KernelOp::Slot(s) => dst.copy_from_slice(&locals[s as usize * n..][..n]),
                KernelOp::Index(d) => dst.copy_from_slice(&x[d as usize * n..][..n]),
                KernelOp::Const(c) => dst.fill(c),
                KernelOp::Add(a, b) => lanewise(dst, reg(a), reg(b), Value::wrapping_add),
                KernelOp::Sub(a, b) => lanewise(dst, reg(a), reg(b), Value::wrapping_sub),
                KernelOp::Mul(a, b) => lanewise(dst, reg(a), reg(b), Value::wrapping_mul),
                KernelOp::Min(a, b) => lanewise(dst, reg(a), reg(b), Value::min),
                KernelOp::Max(a, b) => lanewise(dst, reg(a), reg(b), Value::max),
                KernelOp::Eq(a, b) => lanewise(dst, reg(a), reg(b), |a, b| (a == b) as Value),
                KernelOp::Lt(a, b) => lanewise(dst, reg(a), reg(b), |a, b| (a < b) as Value),
                KernelOp::Le(a, b) => lanewise(dst, reg(a), reg(b), |a, b| (a <= b) as Value),
                KernelOp::Neg(a) => {
                    for (d, &a) in dst.iter_mut().zip(reg(a)) {
                        *d = a.wrapping_neg();
                    }
                }
                KernelOp::Select(c, a, b) => {
                    let (c, a, b) = (reg(c), reg(a), reg(b));
                    for l in 0..n {
                        dst[l] = if c[l] != 0 { a[l] } else { b[l] };
                    }
                }
            }
        }
        for &(slot, reg) in &self.writes {
            let (src, dst) = (reg as usize * n, slot as usize * n);
            locals[dst..dst + n].copy_from_slice(&regs[src..src + n]);
        }
    }
}

/// One binary op over a lane array.
#[inline(always)]
fn lanewise(dst: &mut [Value], a: &[Value], b: &[Value], f: impl Fn(Value, Value) -> Value) {
    for ((d, &a), &b) in dst.iter_mut().zip(a).zip(b) {
        *d = f(a, b);
    }
}

/// Push `op` onto a tape; its register.
fn push(ops: &mut Vec<KernelOp>, op: KernelOp) -> u32 {
    ops.push(op);
    ops.len() as u32 - 1
}

/// A register of the tape loading slot `s`: the first such load, or a
/// new one.
fn load(ops: &mut Vec<KernelOp>, s: u32) -> u32 {
    match ops.iter().position(|&op| op == KernelOp::Slot(s)) {
        Some(r) => r as u32,
        None => push(ops, KernelOp::Slot(s)),
    }
}

/// The position of `x` in `v`, appended if absent.
fn position_or_push(v: &mut Vec<u32>, x: u32) -> u32 {
    match v.iter().position(|&y| y == x) {
        Some(i) => i as u32,
        None => {
            v.push(x);
            v.len() as u32 - 1
        }
    }
}

/// The monoid a fold reduces with. Wrapping `Add`, `Min` and `Max` are
/// each commutative and associative under the overflow law, so a fold's
/// value does not depend on the order it is taken in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FoldOp {
    Add,
    Min,
    Max,
}

impl FoldOp {
    /// The name the `kernels` report gives it.
    fn name(self) -> &'static str {
        match self {
            FoldOp::Add => "add",
            FoldOp::Min => "min",
            FoldOp::Max => "max",
        }
    }

    /// `acc ⊕ row[0] ⊕ row[1] ⊕ …`.
    #[inline]
    fn reduce(self, acc: Value, row: &[Value]) -> Value {
        match self {
            FoldOp::Add => row.iter().fold(acc, |a, &v| a.wrapping_add(v)),
            FoldOp::Min => row.iter().fold(acc, |a, &v| a.min(v)),
            FoldOp::Max => row.iter().fold(acc, |a, &v| a.max(v)),
        }
    }
}

/// A carried slot summarized over a batch: `slot := slot ⊕ reg` at every
/// iteration, `reg` a register of the stream tape.
#[derive(Debug)]
struct Fold {
    slot: u32,
    op: FoldOp,
    reg: u32,
}

/// Where a link's sent values come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sent {
    /// A register row of the stream tape.
    Stream(u32),
    /// Snapshot row `r`: the link's slot after each carried iteration.
    Snapshot(u32),
}

/// The module's tape cut for a wave batch whose link `j` moves through
/// local `slots[j]`, every lane alike: derived once per module by
/// [`analyze_kernels`] and run by [`WaveBatch::run`].
///
/// An op is *carried* when it loads a stationary slot the tape writes —
/// the value the previous iteration left — or reads a carried op;
/// everything else is *stream*: it depends only on the values received
/// this iteration, the index point, constants and slots the tape never
/// writes, so all `lanes × iters` instances of it run as one row. A
/// carried slot whose chain is exactly `s := s ⊕ r` — ⊕ a [`FoldOp`],
/// `r` stream, nothing else reading `s` or the sum — is a fold; the
/// other carried ops run iteration by iteration over the lanes.
#[derive(Debug)]
pub struct TapeSplit {
    /// A lane's locals in a batch are slots `0..rows`: every slot the
    /// tape or a link touches.
    rows: u32,
    /// The stream section, run once over `lanes × iters`. `Slot(j)` reads
    /// input row `j`: link `j`'s received values for `j` below the link
    /// count, then stationary slot `bcast[j − links]` at every iteration.
    /// `Index(d)` reads the point at every iteration. No write-backs.
    stream: Kernel,
    bcast: Vec<u32>,
    /// The general carried section, run per iteration over the lanes'
    /// locals: `Slot(s)` reads local `s` below `rows`, and feed row
    /// `s − rows` above, which holds stream register `feed[s − rows]` at
    /// the current iteration. Empty when every carried op is in a fold.
    carried: Kernel,
    feed: Vec<u32>,
    folds: Vec<Fold>,
    /// Per link, what it sends.
    sends: Vec<Sent>,
    /// Per snapshot row, the slot it copies after each carried iteration.
    snapshots: Vec<u32>,
    /// `(slot, reg)`: the slot ends a batch holding stream register
    /// `reg` at the last iteration — a slot written from the stream
    /// section, or a received slot the tape does not write.
    finals: Vec<(u32, u32)>,
    /// The module tape's ops in each section; fold ops count as carried.
    stream_ops: usize,
    carried_ops: usize,
}

impl TapeSplit {
    /// Cut `kernel` for a batch whose link `j` moves through local
    /// `slots[j]`.
    pub fn new(kernel: &Kernel, slots: &[u32]) -> TapeSplit {
        let ops = &kernel.ops;
        let links = slots.len() as u32;
        // The link whose value a slot holds once the receive is done.
        let link_of = |s: u32| slots.iter().rposition(|&t| t == s).map(|j| j as u32);
        // A slot's effective write-back is its last: all read the
        // finished tape.
        let writes: Vec<(u32, u32)> = kernel
            .writes
            .iter()
            .enumerate()
            .filter(|&(i, &(s, _))| kernel.writes[i + 1..].iter().all(|&(t, _)| t != s))
            .map(|(_, &w)| w)
            .collect();
        let written = |s: u32| writes.iter().find(|w| w.0 == s).map(|w| w.1 as usize);

        let mut carried = vec![false; ops.len()];
        for (i, &op) in ops.iter().enumerate() {
            let c = match op {
                KernelOp::Slot(s) => link_of(s).is_none() && written(s).is_some(),
                _ => op.reads(|r| carried[r as usize]),
            };
            carried[i] = c;
        }

        // Folds: `s := s ⊕ r` where nothing else reads `s` or the sum.
        let mut uses = vec![0usize; ops.len()];
        for &op in ops {
            op.remap(|r| {
                uses[r as usize] += 1;
                r
            });
        }
        for &(_, r) in &writes {
            uses[r as usize] += 1;
        }
        let mut folded = vec![false; ops.len()];
        let mut folds = Vec::new();
        for &(s, w) in &writes {
            let (op, a, b) = match ops[w as usize] {
                KernelOp::Add(a, b) => (FoldOp::Add, a, b),
                KernelOp::Min(a, b) => (FoldOp::Min, a, b),
                KernelOp::Max(a, b) => (FoldOp::Max, a, b),
                _ => continue,
            };
            let is_load = |r: u32| ops[r as usize] == KernelOp::Slot(s);
            let (acc, r) = if is_load(a) { (a, b) } else { (b, a) };
            let alone = |r: u32| uses[r as usize] == 1;
            let one_load = ops.iter().filter(|&&op| op == KernelOp::Slot(s)).count() == 1;
            let chain = is_load(acc) && carried[acc as usize] && !carried[r as usize];
            if chain && alone(acc) && alone(w) && one_load {
                folded[acc as usize] = true;
                folded[w as usize] = true;
                folds.push(Fold {
                    slot: s,
                    op,
                    reg: r,
                });
            }
        }

        let mut stream = Kernel {
            n_dims: kernel.n_dims,
            ..Kernel::default()
        };
        let mut bcast = Vec::new();
        let mut sreg = vec![u32::MAX; ops.len()];
        for (i, &op) in ops.iter().enumerate().filter(|&(i, _)| !carried[i]) {
            let op = match op {
                KernelOp::Slot(s) => KernelOp::Slot(
                    link_of(s).unwrap_or_else(|| links + position_or_push(&mut bcast, s)),
                ),
                _ => op.remap(|r| sreg[r as usize]),
            };
            sreg[i] = push(&mut stream.ops, op);
        }
        stream.n_slots = links + bcast.len() as u32;
        for f in &mut folds {
            f.reg = sreg[f.reg as usize];
        }

        let mut snapshots = Vec::new();
        let sends = slots
            .iter()
            .map(|&s| match written(s) {
                Some(w) if carried[w] => Sent::Snapshot(position_or_push(&mut snapshots, s)),
                Some(w) => Sent::Stream(sreg[w]),
                None => Sent::Stream(load(&mut stream.ops, link_of(s).expect("a link's slot"))),
            })
            .collect();
        let mut finals: Vec<(u32, u32)> = writes
            .iter()
            .filter(|&&(_, w)| !carried[w as usize])
            .map(|&(s, w)| (s, sreg[w as usize]))
            .collect();
        for (j, &s) in slots.iter().enumerate() {
            if written(s).is_none() && link_of(s) == Some(j as u32) {
                finals.push((s, load(&mut stream.ops, j as u32)));
            }
        }

        let rows = slots.iter().map(|&s| s + 1).fold(kernel.n_slots, u32::max);
        let mut tape = Kernel::default();
        let mut feed = Vec::new();
        let mut creg = vec![u32::MAX; ops.len()];
        // A stream register at the current iteration: its feed row.
        let fed = |ops: &mut Vec<KernelOp>, feed: &mut Vec<u32>, r: u32| {
            load(ops, rows + position_or_push(feed, r))
        };
        for (i, &op) in ops.iter().enumerate() {
            if !carried[i] || folded[i] {
                continue;
            }
            let op = op.remap(|r| {
                if carried[r as usize] {
                    creg[r as usize]
                } else {
                    fed(&mut tape.ops, &mut feed, sreg[r as usize])
                }
            });
            creg[i] = push(&mut tape.ops, op);
        }
        // Write back what the next iteration's loads read, and what only
        // this section computes.
        for &(s, w) in &writes {
            let w = w as usize;
            let r = if folded[w] {
                continue;
            } else if carried[w] {
                creg[w]
            } else if tape.ops.contains(&KernelOp::Slot(s)) {
                fed(&mut tape.ops, &mut feed, sreg[w])
            } else {
                continue;
            };
            tape.writes.push((s, r));
        }
        tape.n_slots = rows + feed.len() as u32;

        let stream_ops = carried.iter().filter(|&&c| !c).count();
        TapeSplit {
            rows,
            stream,
            bcast,
            carried: tape,
            feed,
            folds,
            sends,
            snapshots,
            finals,
            stream_ops,
            carried_ops: ops.len() - stream_ops,
        }
    }

    /// A lane's locals in a batch: slots `0..rows()`.
    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    /// The folds, as `(slot, op)`.
    fn folds(&self) -> impl Iterator<Item = (u32, FoldOp)> + '_ {
        self.folds.iter().map(|f| (f.slot, f.op))
    }

    /// Values a batch's rows hold per lane and iteration: input rows,
    /// index points, stream registers and snapshots.
    pub(crate) fn row_values(&self) -> usize {
        let stream = &self.stream;
        stream.n_slots as usize + stream.n_dims as usize + stream.ops.len() + self.snapshots.len()
    }

    /// The `split` member of the `kernels` report.
    fn json(&self) -> Json {
        let fold = |(slot, op): (u32, FoldOp)| {
            Json::obj([("slot", u64::from(slot).into()), ("op", op.name().into())])
        };
        Json::obj([
            ("stream_ops", self.stream_ops.into()),
            ("carried_ops", self.carried_ops.into()),
            ("folds", Json::arr(self.folds().map(fold))),
        ])
    }
}

/// One wave batch's struct-of-arrays buffers: `lanes` processes over
/// `iters` iterations of a [`TapeSplit`]. Rows that run over both are
/// `[row][lane][iter]`, the layout the gathered ring values arrive in;
/// rows over the lanes alone are `[row][lane]`. Part of the thread's run
/// arena, so the steady state allocates nothing.
///
/// A batch is filled ([`WaveBatch::begin`], then [`WaveBatch::input`],
/// [`WaveBatch::local`], [`WaveBatch::set_point`]), run, and read
/// ([`WaveBatch::sent`], [`WaveBatch::local`]).
#[derive(Default)]
pub struct WaveBatch {
    lanes: usize,
    iters: usize,
    /// The stream tape's input rows: each link's received values, then
    /// each broadcast slot.
    input: Vec<Value>,
    /// `[dim][lane][iter]`: the index point at every iteration.
    points: Vec<i64>,
    /// `[op][lane][iter]`: the stream tape's registers.
    stream: Vec<Value>,
    /// `[slot][lane]`: the lanes' locals, then the carried tape's feed
    /// rows.
    locals: Vec<Value>,
    /// `[op][lane]`: the carried tape's registers.
    carried: Vec<Value>,
    /// `[snapshot][lane][iter]`.
    snapshots: Vec<Value>,
}

impl WaveBatch {
    /// Size the buffers for `lanes` lanes over `iters` iterations of
    /// `split`. What they held before is overwritten, not cleared: fill
    /// every input, local and point the batch reads.
    pub fn begin(&mut self, split: &TapeSplit, lanes: usize, iters: usize) {
        let n = lanes * iters;
        let dims = split.stream.n_dims as usize;
        self.lanes = lanes;
        self.iters = iters;
        self.input.resize(split.stream.n_slots as usize * n, 0);
        self.points.resize(dims * n, 0);
        self.stream.resize(split.stream.ops.len() * n, 0);
        self.locals
            .resize((split.rows() + split.feed.len()) * lanes, 0);
        self.carried.resize(split.carried.ops.len() * lanes, 0);
        self.snapshots.resize(split.snapshots.len() * n, 0);
    }

    /// The values `lane` receives on link `link`, one per iteration.
    pub fn input(&mut self, link: usize, lane: usize) -> &mut [Value] {
        &mut self.input[(link * self.lanes + lane) * self.iters..][..self.iters]
    }

    /// What every lane receives on link `link`, `[lane][iter]`.
    pub(crate) fn input_row(&mut self, link: usize) -> &mut [Value] {
        let n = self.lanes * self.iters;
        &mut self.input[link * n..][..n]
    }

    /// Local `slot` of every lane.
    pub(crate) fn local_row(&mut self, slot: usize) -> &mut [Value] {
        &mut self.locals[slot * self.lanes..][..self.lanes]
    }

    /// What every lane sends on link `link`, `[lane][iter]`.
    pub(crate) fn sent_row(&self, split: &TapeSplit, link: usize) -> &[Value] {
        let n = self.lanes * self.iters;
        let (row, rows) = self.sent_rows(split, link);
        &rows[row * n..][..n]
    }

    /// The row link `link` sends, and the rows it is one of.
    fn sent_rows(&self, split: &TapeSplit, link: usize) -> (usize, &[Value]) {
        match split.sends[link] {
            Sent::Stream(r) => (r as usize, &self.stream),
            Sent::Snapshot(r) => (r as usize, &self.snapshots),
        }
    }

    /// Local `slot` (below [`TapeSplit::rows`]) of `lane`: before the
    /// batch, and after [`WaveBatch::run`].
    pub fn local(&mut self, slot: usize, lane: usize) -> &mut Value {
        &mut self.locals[slot * self.lanes + lane]
    }

    /// Coordinate `dim` (below the tape's `n_dims`) of `lane`'s index
    /// point: `first` at the first iteration, advancing by `increment`
    /// (wrapping, like the one-lane advance).
    pub fn set_point(&mut self, dim: usize, lane: usize, first: i64, increment: i64) {
        let row = &mut self.points[(dim * self.lanes + lane) * self.iters..][..self.iters];
        for (it, p) in row.iter_mut().enumerate() {
            *p = first.wrapping_add(increment.wrapping_mul(it as i64));
        }
    }

    /// The values `lane` sends on link `link`, one per iteration.
    pub fn sent(&self, split: &TapeSplit, link: usize, lane: usize) -> &[Value] {
        let (row, rows) = self.sent_rows(split, link);
        &rows[(row * self.lanes + lane) * self.iters..][..self.iters]
    }

    /// Run every iteration of every lane: `iters` receive / statement /
    /// send cycles per lane, as the one-lane tape would, in sections.
    pub fn run(&mut self, split: &TapeSplit) {
        let (lanes, iters) = (self.lanes, self.iters);
        let n = lanes * iters;
        if n == 0 {
            return;
        }
        let at = |row: usize, lane: usize| (row * lanes + lane) * iters;
        let links = split.sends.len();
        for (k, &s) in split.bcast.iter().enumerate() {
            for lane in 0..lanes {
                let v = self.locals[s as usize * lanes + lane];
                self.input[at(links + k, lane)..][..iters].fill(v);
            }
        }
        split
            .stream
            .run(&mut self.stream, &mut self.input, &self.points, n);
        for f in &split.folds {
            for lane in 0..lanes {
                let acc = &mut self.locals[f.slot as usize * lanes + lane];
                *acc =
                    f.op.reduce(*acc, &self.stream[at(f.reg as usize, lane)..][..iters]);
            }
        }
        if !split.carried.ops.is_empty() {
            let feed_row = |k: usize| (split.rows() + k) * lanes;
            for it in 0..iters {
                for (k, &r) in split.feed.iter().enumerate() {
                    for lane in 0..lanes {
                        self.locals[feed_row(k) + lane] = self.stream[at(r as usize, lane) + it];
                    }
                }
                split
                    .carried
                    .run(&mut self.carried, &mut self.locals, &[], lanes);
                for (r, &s) in split.snapshots.iter().enumerate() {
                    for lane in 0..lanes {
                        self.snapshots[at(r, lane) + it] = self.locals[s as usize * lanes + lane];
                    }
                }
            }
        }
        for &(s, r) in &split.finals {
            for lane in 0..lanes {
                self.locals[s as usize * lanes + lane] =
                    self.stream[at(r as usize, lane) + iters - 1];
            }
        }
    }

    /// Bytes held (capacities).
    fn footprint_bytes(&self) -> usize {
        let values = self.input.capacity()
            + self.points.capacity()
            + self.stream.capacity()
            + self.locals.capacity()
            + self.carried.capacity()
            + self.snapshots.capacity();
        values * std::mem::size_of::<Value>()
    }
}

/// The per-module kernel classification: which wavefront chunks may run
/// through the compiled kernel, and why the rest cannot. Derived once
/// per (module, wavefront plan) and memoized on `CachedModule` beside
/// the batch and wavefront analyses.
///
/// The counts are in the units a reader counts: a chunk holding compute
/// windows is one unit (eligible, or scalar with a reason), a process
/// without a repeater is one unit (scalar, "transport process"); the
/// load and recover windows around a repeater are part of that process,
/// not a fallback of their own.
pub struct KernelPlan {
    /// Whether the module carries a statement (a non-empty tape).
    pub compiled: bool,
    /// Module-wide reject: no compute body, or a tape past
    /// [`KERNEL_MAX_OPS`].
    pub reject: Option<String>,
    /// Per chunk, wave-major (the executor's order): whether it is one
    /// kernel-eligible compute window — the form the executor's per-wave
    /// filter reads.
    pub chunk_ok: Vec<bool>,
    /// Chunks with `chunk_ok[k]`, and the cycles with a firing schedule.
    pub eligible_chunks: usize,
    /// Compute chunks that are not eligible, plus transport processes.
    pub scalar_chunks: usize,
    /// Waves containing at least one eligible chunk.
    pub waves_fusable: usize,
    /// Scalar-fallback reasons with unit counts, sorted by descending
    /// count then reason (deterministic for reports); every run's
    /// [`KernelReport`] shares them.
    fallback_counts: Arc<[(String, u64)]>,
    /// The tape cut for the eligible chunks' moving-slot layout; `None`
    /// when no chunk is eligible.
    split: Option<TapeSplit>,
    /// The firing schedule of every eligible cyclic chunk, by chunk.
    cycles: Vec<CycleSchedule>,
}

impl KernelPlan {
    pub fn any_eligible(&self) -> bool {
        self.eligible_chunks > 0
    }

    /// How a wave batch runs the tape, when any chunk is eligible.
    pub(crate) fn split(&self) -> Option<&TapeSplit> {
        self.split.as_ref()
    }

    /// Scalar-fallback reasons aggregated over the units.
    pub fn fallbacks(&self) -> &[(String, u64)] {
        &self.fallback_counts
    }

    /// The firing schedule of chunk `k`, when it is a cycle that has one.
    fn cycle(&self, k: usize) -> Option<&CycleSchedule> {
        let at = self.cycles.binary_search_by_key(&k, |c| c.chunk).ok()?;
        Some(&self.cycles[at])
    }

    /// The `kernels` section of the metrics report: the static
    /// eligibility split and the tape split a batch runs, with `split`,
    /// `cycles` (each scheduled cyclic chunk's windows, fires, rounds and
    /// value slots), `reject` and `fallbacks` only when set.
    pub fn json(&self) -> Json {
        let mut fields = vec![
            ("compiled", self.compiled.into()),
            ("eligible_chunks", self.eligible_chunks.into()),
            ("scalar_chunks", self.scalar_chunks.into()),
            ("waves_fusable", self.waves_fusable.into()),
        ];
        if let Some(split) = &self.split {
            fields.push(("split", split.json()));
        }
        if !self.cycles.is_empty() {
            let cycles = self.cycles.iter().map(CycleSchedule::json);
            fields.push(("cycles", Json::arr(cycles)));
        }
        if let Some(r) = &self.reject {
            fields.push(("reject", r.as_str().into()));
        }
        if !self.fallback_counts.is_empty() {
            let item = |(r, n): &(String, u64)| {
                Json::obj([("reason", r.as_str().into()), ("chunks", (*n).into())])
            };
            let fallbacks = self.fallback_counts.iter().map(item);
            fields.push(("fallbacks", Json::arr(fallbacks)));
        }
        Json::obj(fields)
    }

    /// A report seeded with the static analysis; the executor fills in
    /// the runtime counters.
    pub fn report(&self) -> KernelReport {
        KernelReport {
            compiled: self.compiled,
            reject: self.reject.clone(),
            eligible_chunks: self.eligible_chunks as u64,
            scalar_chunks: self.scalar_chunks as u64,
            fallbacks: Arc::clone(&self.fallback_counts),
            ..KernelReport::default()
        }
    }
}

/// What the kernel layer did for one run: the static eligibility split
/// plus runtime fusion counters. Kept separate from `RunStats` — the
/// logical stats are equality-pinned across engines, while this report
/// says how many of the waves ran as kernel batches.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelReport {
    /// The module carries a statement (a non-empty tape).
    pub compiled: bool,
    /// Why not, when it does not.
    pub reject: Option<String>,
    pub eligible_chunks: u64,
    pub scalar_chunks: u64,
    /// Wave visits that retired at least one kernel batch.
    pub waves_fused: u64,
    /// Kernel batches executed (one gather/tape/scatter cycle).
    pub batches: u64,
    /// Lane-visits across those batches.
    pub lanes: u64,
    /// Compute iterations retired on the kernel path.
    pub iterations: u64,
    /// Scalar-fallback reasons with chunk counts, shared with the plan.
    pub fallbacks: Arc<[(String, u64)]>,
}

/// Classify every chunk of a wavefront plan against the module's
/// compiled kernel, and cut the tape for the moving-slot layout the
/// eligible chunks share (the first one's; a chunk with another stays
/// scalar). Pure structural analysis, O(windows + ops²); runs once per
/// module and is memoized upstream.
pub fn analyze_kernels(module: &ProcIrModule, plan: &WavefrontPlan) -> KernelPlan {
    let ops = module.kernel.ops.len();
    let module_reject = match ops {
        0 => Some("transport-only module (no compute body)".to_string()),
        1..=KERNEL_MAX_OPS => None,
        _ => Some(format!(
            "kernel tape of {ops} ops exceeds the {KERNEL_MAX_OPS}-op cap (runs one lane wide)"
        )),
    };
    let mut chunk_ok = vec![false; plan.n_chunks()];
    let mut fallback_counts: Vec<(String, u64)> = Vec::new();
    let mut fall_back =
        |reason: String, units: u64| match fallback_counts.iter_mut().find(|(r, _)| *r == reason) {
            Some((_, n)) => *n += units,
            None => fallback_counts.push((reason, units)),
        };
    let mut computes = vec![false; module.procs.len()];
    let mut layout: Option<&[MovingLink]> = None;
    let mut cycles = Vec::new();
    let (mut eligible, mut scalar, mut waves_fusable) = (0usize, 0usize, 0usize);
    for w in 0..plan.n_waves() {
        let before = eligible;
        for k in plan.wave(w) {
            let windows = plan.chunk(k);
            let mut n_compute = 0usize;
            for win in windows.iter().filter(|win| win.is_compute(module)) {
                computes[win.pid as usize] = true;
                n_compute += 1;
            }
            if n_compute == 0 {
                continue;
            }
            let verdict = match &module_reject {
                Some(r) => Err(r.clone()),
                None => chunk_links(module, windows, n_compute, layout).and_then(|links| {
                    if windows.len() > 1 {
                        cycles.push(derive_cycle(module, plan, k, links.len())?);
                    }
                    Ok(links)
                }),
            };
            match verdict {
                Ok(links) => {
                    layout.get_or_insert(links);
                    chunk_ok[k] = windows.len() == 1;
                    eligible += 1;
                }
                Err(reason) => {
                    scalar += 1;
                    fall_back(reason, 1);
                }
            }
        }
        waves_fusable += (eligible > before) as usize;
    }
    let transport = computes.iter().filter(|&&c| !c).count();
    if transport > 0 {
        let reason = module_reject.clone();
        let reason = reason.unwrap_or_else(|| "transport process (no compute op)".into());
        fall_back(reason, transport as u64);
    }
    fallback_counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let slots = |links: &[MovingLink]| links.iter().map(|mc| mc.slot).collect::<Vec<_>>();
    KernelPlan {
        compiled: ops > 0,
        reject: module_reject,
        chunk_ok,
        eligible_chunks: eligible,
        scalar_chunks: scalar + transport,
        waves_fusable,
        fallback_counts: fallback_counts.into(),
        split: layout.map(|links| TapeSplit::new(&module.kernel, &slots(links))),
        cycles,
    }
}

/// The moving links of a chunk holding `n_compute` compute windows when
/// the kernel can take it — one compute window, or a cycle of compute
/// windows alone, each moving values over pairwise-distinct rings through
/// one slot layout, and that the batch's (`layout`, the first eligible
/// chunk's, when set); otherwise why it must stay scalar.
fn chunk_links<'m>(
    module: &'m ProcIrModule,
    windows: &[Window],
    n_compute: usize,
    layout: Option<&[MovingLink]>,
) -> Result<&'m [MovingLink], String> {
    if n_compute != windows.len() {
        return Err(format!("cyclic chunk ({n_compute} compute windows)"));
    }
    let layout = layout.unwrap_or(module.moving_of(windows[0].pid as usize));
    for w in windows {
        let pid = w.pid as usize;
        let links = module.moving_of(pid);
        if links.is_empty() {
            return Err("repeater without moving links".into());
        }
        let distinct = links
            .iter()
            .enumerate()
            .all(|(i, a)| links[..i].iter().all(|b| a.inp != b.inp && a.out != b.out));
        if !distinct {
            return Err("aliased moving rings".into());
        }
        let slots = links.iter().map(|mc| mc.slot + 1);
        if slots.fold(module.kernel.n_slots, u32::max) > module.procs[pid].n_locals {
            return Err("kernel slots exceed process locals".into());
        }
        if module.kernel.n_dims as usize > module.first_of(pid).len() {
            return Err("kernel index rank exceeds repeater rank".into());
        }
        let same =
            layout.len() == links.len() && layout.iter().zip(links).all(|(a, b)| a.slot == b.slot);
        if !same {
            return Err("moving-slot layout differs from the batch's".into());
        }
    }
    Ok(module.moving_of(windows[0].pid as usize))
}

/// The iteration count of the repeater that compute window `w` is.
fn count_of(module: &ProcIrModule, w: &Window) -> u64 {
    match module.ops[w.start as usize] {
        ProcOp::Compute { count } => count,
        _ => 0,
    }
}

/// One ring a cyclic chunk touches: at entry `take` values are popped
/// into the next value slots, at exit the `give` values of slots
/// `leftovers[at..at + give]` are pushed.
#[derive(Debug)]
struct CycleRing {
    chan: ChanId,
    take: u32,
    give: u32,
    at: u32,
}

/// The firing schedule of a cyclic chunk of compute windows, derived once
/// per module ([`analyze_kernels`]). The paper's `step` orders every
/// iteration after the iterations it reads from, so a cycle that closes
/// window by window has none iteration by iteration; the schedule is that
/// order, found once by counting: a window fires one iteration when every
/// ring it reads holds a value, and the windows ready together form a
/// round. [`kernel_wave`] runs each round as one wave batch of one
/// iteration per lane.
///
/// Every value the chunk moves has a slot in one dense array
/// (`KernelScratch::vals`): first the values popped at entry, ring by
/// ring, then the values each round sends, link-major: in the round of
/// fires `f0..f0 + m`, lane `l`'s send on link `j` is slot `entry +
/// f0 × links + j × m + l`. The inputs are laid out alike, so a round
/// gathers and scatters whole rows.
#[derive(Debug)]
pub(crate) struct CycleSchedule {
    /// The chunk, numbered like the wavefront plan's, and its windows.
    chunk: usize,
    windows: usize,
    rings: Vec<CycleRing>,
    /// Slots filled at entry.
    entry: u32,
    /// Moving links per window (the batch layout's).
    links: u32,
    /// The fires, round by round: round `r` is `fires[round_start[r]..
    /// round_start[r + 1]]`, each the pid of its window.
    fires: Vec<u32>,
    round_start: Vec<u32>,
    /// Per fire and link, the slot its received value is read from, in
    /// the sends' layout.
    inputs: Vec<u32>,
    /// Per ring, the slots pushed at exit ([`CycleRing::at`]).
    leftovers: Vec<u32>,
}

impl CycleSchedule {
    fn rounds(&self) -> usize {
        self.round_start.len() - 1
    }

    /// Slots of the value array a run fills.
    fn value_slots(&self) -> usize {
        self.entry as usize + self.fires.len() * self.links as usize
    }

    /// The chunk's entry in the `cycles` member of the `kernels` report.
    fn json(&self) -> Json {
        Json::obj([
            ("chunk", self.chunk.into()),
            ("windows", self.windows.into()),
            ("fires", self.fires.len().into()),
            ("rounds", self.rounds().into()),
            ("value_slots", self.value_slots().into()),
        ])
    }
}

/// Values process `pid` has sent on and received from `chan` when its pc
/// reaches `pc`.
fn moved_before(module: &ProcIrModule, pid: usize, pc: u32, chan: ChanId) -> (u64, u64) {
    let (mut sent, mut received) = (0u64, 0u64);
    for at in module.procs[pid].ops.0..pc {
        op_runs(
            module,
            pid,
            module.ops[at as usize],
            |c, n| received += if c == chan { n } else { 0 },
            |c, n| sent += if c == chan { n } else { 0 },
        );
    }
    (sent, received)
}

/// Derive the firing schedule of chunk `k`, a cycle of compute windows
/// that each move `links` values per iteration; why not, when it cannot
/// have one. The derivation counts, it runs no statement: it starts from
/// the occupancy every ring inside the cycle has when each window stands
/// at its repeater — what the producer sent before its repeater less what
/// the consumer received before its — and assumes every ring from
/// outside holds what the cycle reads of it.
fn derive_cycle(
    module: &ProcIrModule,
    plan: &WavefrontPlan,
    k: usize,
    links: usize,
) -> Result<CycleSchedule, String> {
    let windows = plan.chunk(k);
    let n = windows.len();
    let reject = |why: &str| Err(format!("cyclic chunk ({n} compute windows): {why}"));
    let counts: Vec<u64> = windows.iter().map(|w| count_of(module, w)).collect();

    // The rings, in the order the windows first touch them, and per
    // window and link the ring it reads and the one it sends on.
    struct Touch {
        chan: ChanId,
        producer: Option<usize>,
        consumer: Option<usize>,
    }
    let mut touches: Vec<Touch> = Vec::new();
    let mut index: std::collections::HashMap<ChanId, usize> = Default::default();
    let mut win_rings: Vec<(usize, usize)> = Vec::with_capacity(n * links);
    for (i, w) in windows.iter().enumerate() {
        for mc in module.moving_of(w.pid as usize) {
            let mut touch = |chan: ChanId, consumer: bool| {
                let r = *index.entry(chan).or_insert_with(|| {
                    touches.push(Touch {
                        chan,
                        producer: None,
                        consumer: None,
                    });
                    touches.len() - 1
                });
                let end = match consumer {
                    true => &mut touches[r].consumer,
                    false => &mut touches[r].producer,
                };
                end.replace(i).is_none().then_some(r)
            };
            match (touch(mc.inp, true), touch(mc.out, false)) {
                (Some(inp), Some(out)) => win_rings.push((inp, out)),
                _ => return reject("two windows share a ring end"),
            }
        }
    }

    // What each ring gives the cycle at entry.
    let mut takes = Vec::with_capacity(touches.len());
    for t in &touches {
        let take = match (t.producer, t.consumer) {
            (_, None) => 0,
            (None, Some(q)) => counts[q],
            (Some(p), Some(q)) => {
                let (wp, wq) = (&windows[p], &windows[q]);
                let (sent, _) = moved_before(module, wp.pid as usize, wp.start, t.chan);
                let (_, received) = moved_before(module, wq.pid as usize, wq.start, t.chan);
                let Some(held) = sent.checked_sub(received) else {
                    return reject("a ring inside it starts short");
                };
                // The producer never blocks on a ring the cycle cannot
                // drain before its own repeater ends.
                if plan.capacities[t.chan] < held.saturating_add(counts[p]) {
                    return reject("a ring inside it is narrower than its traffic");
                }
                held.min(counts[q])
            }
        };
        takes.push(take);
    }
    let entry: u64 = takes.iter().fold(0, |a, &t| a.saturating_add(t));
    let fires: u64 = counts.iter().fold(0, |a, &c| a.saturating_add(c));
    let slots = fires.saturating_mul(links as u64).saturating_add(entry);
    if slots > KERNEL_BATCH_VALUES as u64 {
        return reject(&format!(
            "{slots} value slots exceed the {KERNEL_BATCH_VALUES}-value cap"
        ));
    }

    // Count the rounds: per ring, the slots queued on it.
    let mut queues: Vec<std::collections::VecDeque<u32>> = Vec::with_capacity(touches.len());
    let mut next = 0u32;
    for &take in &takes {
        queues.push((next..next + take as u32).collect());
        next += take as u32;
    }
    let mut schedule = CycleSchedule {
        chunk: k,
        windows: n,
        rings: Vec::with_capacity(touches.len()),
        entry: entry as u32,
        links: links as u32,
        fires: Vec::with_capacity(fires as usize),
        round_start: vec![0],
        inputs: Vec::with_capacity(fires as usize * links),
        leftovers: Vec::new(),
    };
    let mut done = vec![0u64; n];
    let mut live: Vec<usize> = (0..n).collect();
    let mut ready: Vec<usize> = Vec::with_capacity(n);
    let reads = |i: usize| &win_rings[i * links..(i + 1) * links];
    while !live.is_empty() {
        ready.clear();
        ready.extend(
            live.iter()
                .copied()
                .filter(|&i| reads(i).iter().all(|&(inp, _)| !queues[inp].is_empty())),
        );
        if ready.is_empty() {
            return reject("its firing schedule is incomplete");
        }
        let (first, m) = (schedule.fires.len(), ready.len());
        schedule.fires.extend(ready.iter().map(|&i| windows[i].pid));
        for j in 0..links {
            for &i in &ready {
                let (inp, _) = reads(i)[j];
                schedule.inputs.extend(queues[inp].pop_front());
            }
        }
        for j in 0..links {
            for (l, &i) in ready.iter().enumerate() {
                let (_, out) = reads(i)[j];
                queues[out].push_back(entry as u32 + (first * links + j * m + l) as u32);
            }
        }
        for &i in &ready {
            done[i] += 1;
        }
        live.retain(|&i| done[i] < counts[i]);
        schedule.round_start.push(schedule.fires.len() as u32);
    }
    for ((t, &take), queue) in touches.iter().zip(&takes).zip(queues) {
        schedule.rings.push(CycleRing {
            chan: t.chan,
            take: take as u32,
            give: queue.len() as u32,
            at: schedule.leftovers.len() as u32,
        });
        schedule.leftovers.extend(queue);
    }
    Ok(schedule)
}

/// The kernel path's reusable scratch, part of the thread's `RunArena`,
/// reused across batches and runs so the steady state allocates nothing.
#[derive(Default)]
pub(crate) struct KernelScratch {
    /// The one-lane register file of the scalar macro-step
    /// (`crate::arena`).
    pub(crate) regs: Vec<Value>,
    batch: WaveBatch,
    /// The chunks batched this round, each with its remaining iterations.
    lanes: Vec<(usize, u64)>,
    /// The candidates for the next round's phase 1; in a cyclic chunk's
    /// round, each lane's locals offset.
    cand: Vec<usize>,
    /// A cyclic chunk's value array ([`CycleSchedule`]).
    vals: Vec<Value>,
}

impl KernelScratch {
    /// Bytes held (capacities), for `RunArena::footprint_bytes`.
    pub(crate) fn footprint_bytes(&self) -> usize {
        (self.regs.capacity() + self.vals.capacity()) * std::mem::size_of::<Value>()
            + self.batch.footprint_bytes()
            + self.lanes.capacity() * std::mem::size_of::<(usize, u64)>()
            + self.cand.capacity() * std::mem::size_of::<usize>()
    }
}

/// Run the cyclic chunk of `windows` through its firing schedule, when
/// every window stands at its repeater's first iteration and every ring
/// holds what the schedule takes from it and has room for what it gives:
/// pop what it takes into the value array, run each round as wave
/// batches of one iteration per lane — received values gathered by slot,
/// sent values written to their own — and push what it gives. Returns
/// the ring touches (`moved`) when it ran, accounted like the scalar op
/// step's; `None` leaves the chunk to the sweep's fixpoint. Out of line,
/// so that the batch loop of [`kernel_wave`] it would be inlined into
/// runs as before on modules without a cycle.
#[inline(never)]
fn run_cycle(
    cycle: &CycleSchedule,
    windows: &[Window],
    module: &ProcIrModule,
    split: &TapeSplit,
    arena: &mut RunArena,
    stats: &mut RunStats,
    report: &mut KernelReport,
) -> Option<u64> {
    let RunArena {
        regs: vm,
        locals: vm_locals,
        x: vm_x,
        rings,
        scratch,
        ..
    } = arena;
    let at_entry = |w: &Window| {
        let pid = w.pid as usize;
        vm[pid].kernel_point(module, pid, w.start) == Some(count_of(module, w))
    };
    let fits = |r: &CycleRing| {
        let (take, give) = (r.take as usize, r.give as usize);
        rings.len(r.chan) >= take && rings.free(r.chan) + take >= give
    };
    if !windows.iter().all(at_entry) || !cycle.rings.iter().all(fits) {
        return None;
    }
    let KernelScratch {
        batch, vals, cand, ..
    } = scratch;
    let links = cycle.links as usize;
    vals.resize(cycle.value_slots(), 0);
    let mut at = 0;
    for r in &cycle.rings {
        rings.pop_many(r.chan, &mut vals[at..at + r.take as usize]);
        at += r.take as usize;
    }
    let (rows, dims) = (split.rows(), module.kernel.n_dims as usize);
    let fit = (KERNEL_BATCH_VALUES / split.row_values()).max(1);
    for round in cycle.round_start.windows(2) {
        let (f0, end) = (round[0] as usize, round[1] as usize);
        // The round's inputs, and its sends after the entry slots.
        let (m, first) = (end - f0, f0 * links);
        let sends = cycle.entry as usize + first;
        // Lanes `a..b` of the round, at most a batch's worth at a time.
        let mut a = 0;
        while a < m {
            let b = m.min(a + fit);
            let pids = &cycle.fires[f0 + a..f0 + b];
            batch.begin(split, b - a, 1);
            // Each lane's locals offset, then the rows.
            cand.clear();
            cand.extend(pids.iter().map(|&pid| vm[pid as usize].locals as usize));
            for s in 0..rows {
                let row = batch.local_row(s);
                for (v, &o) in row.iter_mut().zip(cand.iter()) {
                    *v = vm_locals[o + s];
                }
            }
            // The index point at iteration `t`: the schedule leaves `x`
            // at the first point until the repeater exits.
            for (li, &pid) in pids.iter().enumerate().filter(|_| dims > 0) {
                let (pid, r) = (pid as usize, &vm[pid as usize]);
                let points = vm_x[r.x as usize..].iter().zip(module.increment_of(pid));
                for (d, (&x0, &inc)) in points.take(dims).enumerate() {
                    batch.set_point(d, li, x0.wrapping_add(inc.wrapping_mul(r.t)), inc);
                }
            }
            for j in 0..links {
                let from = &cycle.inputs[first + j * m..][a..b];
                for (v, &slot) in batch.input_row(j).iter_mut().zip(from) {
                    *v = vals[slot as usize];
                }
            }
            batch.run(split);
            for j in 0..links {
                vals[sends + j * m..][a..b].copy_from_slice(batch.sent_row(split, j));
            }
            for s in 0..rows {
                let row = batch.local_row(s);
                for (&v, &o) in row.iter().zip(cand.iter()) {
                    vm_locals[o + s] = v;
                }
            }
            for &pid in pids {
                vm[pid as usize].t += 1;
            }
            report.batches += 1;
            a = b;
        }
    }
    for r in &cycle.rings {
        for &slot in &cycle.leftovers[r.at as usize..][..r.give as usize] {
            let pushed = rings.push(r.chan, vals[slot as usize]);
            assert!(pushed, "the precondition leaves room for every leftover");
        }
    }
    let fired = cycle.fires.len() as u64;
    stats.steps += 2 * fired;
    stats.messages += links as u64 * fired;
    report.lanes += fired;
    report.iterations += fired;
    Some(2 * links as u64 * fired)
}

/// Execute one wave's kernel-eligible dirty chunks, then leave them for
/// the ordinary chunk sweep (which steps each process past its exhausted
/// repeater and certifies the wave fixpoint). Returns whether any batch
/// retired work.
///
/// A cyclic chunk runs its firing schedule ([`run_cycle`]). The single
/// compute windows batch together: the loop alternates two phases until
/// no lane can advance: find the
/// lanes standing at their kernel point — the compute window is
/// startable (its load window retired in an earlier wave) and at a fresh
/// iteration boundary — then batch them over the minimum number of
/// iterations every lane's rings can serve, cut to
/// [`KERNEL_BATCH_VALUES`]. A batch gathers every lane's locals, index
/// point and received values, runs the plan's [`TapeSplit`] over them
/// ([`WaveBatch::run`]), and scatters the sent values and the locals
/// back; each lane's index point advances once, by `iters × increment`.
pub(crate) fn kernel_wave(
    module: &ProcIrModule,
    plan: &WavefrontPlan,
    kernels: &KernelPlan,
    waves: &mut WaveState,
    arena: &mut RunArena,
    stats: &mut RunStats,
    report: &mut KernelReport,
) -> bool {
    let split = kernels
        .split()
        .expect("a plan with an eligible chunk has a split");
    let mut ran = false;
    let WaveState { chunks, work } = waves;
    // Most modules have no cycle: one test, not one search per chunk.
    if !kernels.cycles.is_empty() {
        for &k in work.iter() {
            let Some(cycle) = kernels.cycle(k) else {
                continue;
            };
            let windows = plan.chunk(k);
            if let Some(moved) = run_cycle(cycle, windows, module, split, arena, stats, report) {
                chunks[k].moved += moved;
                ran = true;
            }
        }
    }
    let RunArena {
        regs: vm,
        locals: vm_locals,
        x: vm_x,
        rings,
        scratch,
        ..
    } = arena;
    let KernelScratch {
        batch, lanes, cand, ..
    } = scratch;
    let pid_of = |k: usize| plan.chunk(k)[0].pid as usize;
    let (rows, dims) = (split.rows(), module.kernel.n_dims as usize);
    // Lane-iterations a batch may hold.
    let fit = (KERNEL_BATCH_VALUES / split.row_values()).max(1);
    // Round 1 considers the wave's eligible single windows; later rounds
    // revisit only the lanes that batched with iterations left, and those the
    // bound left out. Another lane of the wave advances with them only if
    // it shares a ring with one (their value runs do not overlap, or an
    // edge would have put them in different waves) and stood blocked on
    // it; the scalar sweep behind this call picks that lane up.
    cand.clear();
    cand.extend(work.iter().copied().filter(|&k| kernels.chunk_ok[k]));
    while !cand.is_empty() {
        // Phase 1: the lanes at their kernel point, and the joint batch
        // size.
        lanes.clear();
        let mut iters = u64::MAX;
        for &k in cand.iter() {
            let window = plan.chunk(k)[0];
            let pid = window.pid as usize;
            let Some(remaining) = vm[pid].kernel_point(module, pid, window.start) else {
                continue;
            };
            let mut m = remaining;
            for mc in module.moving_of(pid) {
                m = m.min(rings.len(mc.inp) as u64);
                m = m.min(rings.free(mc.out) as u64);
            }
            if m == 0 {
                continue;
            }
            lanes.push((k, remaining));
            iters = iters.min(m);
        }
        if lanes.is_empty() {
            break;
        }
        let lane_n = lanes.len().min(fit);
        let iters = (iters as usize).min(fit / lane_n);

        // Phase 2: gather — locals, index points, and all `iters` ring
        // heads per link, popped in FIFO order. One capacity decision for
        // the whole batch was made above.
        batch.begin(split, lane_n, iters);
        for (li, &(k, _)) in lanes[..lane_n].iter().enumerate() {
            let pid = pid_of(k);
            let r = &vm[pid];
            for (s, &v) in vm_locals[r.locals as usize..][..rows].iter().enumerate() {
                *batch.local(s, li) = v;
            }
            let points = vm_x[r.x as usize..].iter().zip(module.increment_of(pid));
            for (d, (&first, &inc)) in points.take(dims).enumerate() {
                batch.set_point(d, li, first, inc);
            }
            let links = module.moving_of(pid);
            for (j, mc) in links.iter().enumerate() {
                rings.pop_many(mc.inp, batch.input(j, li));
            }
            chunks[k].moved += (links.len() * iters) as u64;
        }

        // Phase 3: the stream section over lanes × iterations, then the
        // carried section per lane.
        batch.run(split);

        // Phase 4: scatter — push the sent values in FIFO order, write the
        // locals / index points / iteration counter back, and account the
        // batch exactly as `iters` iterations of the scalar op step would
        // have (one step per par-set, one message per pushed value, one
        // `moved` tick per ring touch).
        for (li, &(k, _)) in lanes[..lane_n].iter().enumerate() {
            let pid = pid_of(k);
            let links = module.moving_of(pid);
            for (j, mc) in links.iter().enumerate() {
                rings.push_many(mc.out, batch.sent(split, j, li));
            }
            let r = &mut vm[pid];
            for (s, lv) in vm_locals[r.locals as usize..][..rows]
                .iter_mut()
                .enumerate()
            {
                *lv = *batch.local(s, li);
            }
            let points = vm_x[r.x as usize..]
                .iter_mut()
                .zip(module.increment_of(pid));
            for (xv, &inc) in points {
                *xv = xv.wrapping_add(inc.wrapping_mul(iters as i64));
            }
            r.t += iters as i64;
            stats.steps += 2 * iters as u64;
            stats.messages += (links.len() * iters) as u64;
            chunks[k].moved += (links.len() * iters) as u64;
        }

        ran = true;
        report.batches += 1;
        report.lanes += lane_n as u64;
        report.iterations += (lane_n * iters) as u64;
        let next = lanes.iter().enumerate();
        let next = next.filter(|&(li, &(_, remaining))| li >= lane_n || remaining > iters as u64);
        cand.clear();
        cand.extend(next.map(|(_, &(k, _))| k));
    }
    ran
}

#[cfg(test)]
mod tests {
    use super::*;

    use KernelOp::*;

    /// One lane of `k` on `locals` at `x`.
    fn run1(k: &Kernel, locals: &mut [Value], x: &[i64]) {
        k.run(&mut vec![0; k.ops.len()], locals, x, 1);
    }

    #[test]
    fn one_lane_matches_hand_evaluation() {
        // c := c + a*b, then a := -a  (sequential: the second update
        // sees the original a, the writeback order is the update order).
        let k = Kernel {
            ops: vec![Slot(2), Slot(0), Slot(1), Mul(1, 2), Add(0, 3), Neg(1)],
            writes: vec![(2, 4), (0, 5)],
            n_slots: 3,
            n_dims: 0,
        };
        let mut locals = vec![3, 5, 10];
        run1(&k, &mut locals, &[]);
        assert_eq!(locals, vec![-3, 5, 25]);
    }

    #[test]
    fn index_reads_see_the_current_point() {
        // out := x0 + x1
        let k = Kernel {
            ops: vec![Index(0), Index(1), Add(0, 1)],
            writes: vec![(0, 2)],
            n_slots: 1,
            n_dims: 2,
        };
        let mut locals = vec![0];
        run1(&k, &mut locals, &[7, 35]);
        assert_eq!(locals, vec![42]);
    }

    #[test]
    fn compares_are_zero_or_one_and_select_picks_per_lane() {
        // s1 := select(s0 <= x0, s0 == x0, s1 < s0) over three lanes.
        let k = Kernel {
            ops: vec![
                Slot(0),
                Index(0),
                Le(0, 1),
                Eq(0, 1),
                Slot(1),
                Lt(4, 0),
                Select(2, 3, 5),
            ],
            writes: vec![(1, 6)],
            n_slots: 2,
            n_dims: 1,
        };
        // `[slot][lane]`: s0 = 4, 5, 6; s1 = 9, -1, 7; x0 = 5 each.
        let mut locals = vec![4, 5, 6, 9, -1, 7];
        k.run(&mut [0; 21], &mut locals, &[5, 5, 5], 3);
        assert_eq!(locals, vec![4, 5, 6, 0, 1, 0]);
        // An empty tape is the empty statement.
        run1(&Kernel::default(), &mut locals, &[]);
        assert_eq!(locals, vec![4, 5, 6, 0, 1, 0]);
    }

    /// Three lanes of `k` over four iterations, link `j` moving through
    /// `slots[j]`, as one split batch and as one-lane macro iterations
    /// (receive into the slots, run the tape, send the slots, advance the
    /// point): the same locals after, the same values sent. One lane's
    /// point starts at `i64::MAX`, so the advance wraps. Returns the split.
    fn split_is_the_statement(k: &Kernel, slots: &[u32]) -> TapeSplit {
        const LANES: usize = 3;
        const ITERS: usize = 4;
        let split = TapeSplit::new(k, slots);
        let dims = k.n_dims as usize;
        let mut batch = WaveBatch::default();
        batch.begin(&split, LANES, ITERS);
        let mut want = Vec::new();
        for lane in 0..LANES {
            let v = lane as Value;
            let mut locals: Vec<Value> = (0..split.rows() as Value).map(|s| 10 * v - s).collect();
            let start = |d: usize| if lane == 2 { i64::MAX } else { v + d as i64 };
            let mut x: Vec<i64> = (0..dims).map(start).collect();
            let incr: Vec<i64> = (1..=dims as i64).collect();
            let received =
                |j: usize, it: usize| (7 * v + 3 * j as Value + 5 * it as Value) % 11 - 5;
            for (s, &l) in locals.iter().enumerate() {
                *batch.local(s, lane) = l;
            }
            for d in 0..dims {
                batch.set_point(d, lane, x[d], incr[d]);
            }
            for j in 0..slots.len() {
                for (it, value) in batch.input(j, lane).iter_mut().enumerate() {
                    *value = received(j, it);
                }
            }
            let mut sent = vec![Vec::new(); slots.len()];
            for it in 0..ITERS {
                for (j, &s) in slots.iter().enumerate() {
                    locals[s as usize] = received(j, it);
                }
                run1(k, &mut locals, &x);
                for (j, &s) in slots.iter().enumerate() {
                    sent[j].push(locals[s as usize]);
                }
                for (xv, &inc) in x.iter_mut().zip(&incr) {
                    *xv = xv.wrapping_add(inc);
                }
            }
            want.push((locals, sent));
        }
        batch.run(&split);
        for (lane, (locals, sent)) in want.iter().enumerate() {
            for (s, &l) in locals.iter().enumerate() {
                assert_eq!(*batch.local(s, lane), l, "{k:?}: slot {s} of lane {lane}");
            }
            for (j, row) in sent.iter().enumerate() {
                let got = batch.sent(&split, j, lane);
                assert_eq!(got, &row[..], "{k:?}: link {j} of lane {lane}");
            }
        }
        split
    }

    /// `c := c ⊕ a·b`, `a` and `b` moving through slots 0 and 1: the
    /// matmul and FIR accumulator, one reduction per lane and no
    /// per-iteration section — with either operand order.
    #[test]
    fn an_add_min_or_max_accumulator_is_a_fold() {
        let ops = [
            (Add(0, 3), FoldOp::Add),
            (Min(3, 0), FoldOp::Min),
            (Max(0, 3), FoldOp::Max),
        ];
        for (op, fold) in ops {
            let k = Kernel {
                ops: vec![Slot(2), Slot(0), Slot(1), Mul(1, 2), op],
                writes: vec![(2, 4)],
                n_slots: 3,
                n_dims: 0,
            };
            let split = split_is_the_statement(&k, &[0, 1]);
            assert_eq!(split.folds().collect::<Vec<_>>(), [(2, fold)]);
            assert_eq!((split.stream_ops, split.carried_ops), (3, 2));
            assert!(split.carried.ops.is_empty(), "{fold:?}");
            assert_eq!(
                split.sends,
                [Sent::Stream(0), Sent::Stream(1)],
                "a and b pass through"
            );
        }
    }

    /// `if x0 <= x1 -> c := c + a·b`: the select reads `c` as well, so the
    /// chain is no fold; the load, the sum and the select run per
    /// iteration, fed the guard and the product from the stream section.
    #[test]
    fn a_guarded_accumulator_takes_the_general_carried_path() {
        let k = Kernel {
            ops: vec![
                Index(0),
                Index(1),
                Le(0, 1),
                Slot(2),
                Slot(0),
                Slot(1),
                Mul(4, 5),
                Add(3, 6),
                Select(2, 7, 3),
            ],
            writes: vec![(2, 8)],
            n_slots: 3,
            n_dims: 2,
        };
        let split = split_is_the_statement(&k, &[0, 1]);
        assert_eq!(split.folds().count(), 0);
        assert_eq!((split.stream_ops, split.carried_ops), (6, 3));
        assert_eq!(split.feed.len(), 2, "the product and the guard");
        assert_eq!(split.carried.writes.len(), 1);
    }

    /// `s := a·b` into stationary slot 2, which nothing reads: nothing is
    /// carried, and the slot ends the batch holding the last product.
    #[test]
    fn a_stationary_slot_written_but_never_read_is_stream() {
        let k = Kernel {
            ops: vec![Slot(0), Slot(1), Mul(0, 1)],
            writes: vec![(2, 2)],
            n_slots: 3,
            n_dims: 0,
        };
        let split = split_is_the_statement(&k, &[0, 1]);
        assert_eq!((split.stream_ops, split.carried_ops), (3, 0));
        assert!(split.finals.contains(&(2, 2)), "{:?}", split.finals);
    }

    /// D.1 and polyprod: `c` (slot 2) moves with `b` (slot 1) past a
    /// stationary `a` (slot 0) the tape reads and never writes. Nothing is
    /// carried: `a` is broadcast over the iterations, and `c`'s link sends
    /// the sum's row.
    #[test]
    fn a_moving_accumulator_is_all_stream() {
        let k = Kernel {
            ops: vec![Slot(2), Slot(0), Slot(1), Mul(1, 2), Add(0, 3)],
            writes: vec![(2, 4)],
            n_slots: 3,
            n_dims: 0,
        };
        let split = split_is_the_statement(&k, &[1, 2]);
        assert_eq!((split.stream_ops, split.carried_ops), (5, 0));
        assert_eq!(split.bcast, [0]);
        assert_eq!(split.sends, [Sent::Stream(2), Sent::Stream(4)]);
    }

    /// `c := c + a·x0`: the index point is a stream input, one row per
    /// coordinate expanded from the first point and the increment.
    #[test]
    fn an_index_reading_tape_expands_the_point_over_the_iterations() {
        let k = Kernel {
            ops: vec![Slot(2), Slot(0), Index(0), Mul(1, 2), Add(0, 3)],
            writes: vec![(2, 4)],
            n_slots: 3,
            n_dims: 1,
        };
        let split = split_is_the_statement(&k, &[0, 1]);
        assert_eq!(split.folds().collect::<Vec<_>>(), [(2, FoldOp::Add)]);
        // Per lane and iteration: two received values, one coordinate,
        // and the registers `a`, `x0`, `a·x0` and `b`, which is sent on.
        assert_eq!(split.row_values(), 2 + 1 + 4);
    }

    /// `c := c + a; a := c`: the sum is sent as well, so it is no fold,
    /// and `a`'s link sends a snapshot of its slot after each carried
    /// iteration.
    #[test]
    fn a_moving_slot_written_from_the_carried_section_is_snapshotted() {
        let k = Kernel {
            ops: vec![Slot(2), Slot(0), Add(0, 1)],
            writes: vec![(2, 2), (0, 2)],
            n_slots: 3,
            n_dims: 0,
        };
        let split = split_is_the_statement(&k, &[0, 1]);
        assert_eq!(split.folds().count(), 0);
        assert_eq!(split.sends, [Sent::Snapshot(0), Sent::Stream(1)]);
    }

    /// `c := c + a; b := c·a` with `c` loaded twice (a hand-built tape;
    /// `kernelize` loads a slot once): the second load reads `c` as the
    /// previous iteration left it, so the sum is no fold.
    #[test]
    fn a_slot_loaded_twice_is_no_fold() {
        let k = Kernel {
            ops: vec![Slot(2), Slot(0), Add(0, 1), Slot(2), Mul(3, 1)],
            writes: vec![(2, 2), (1, 4)],
            n_slots: 3,
            n_dims: 0,
        };
        let split = split_is_the_statement(&k, &[0, 1]);
        assert_eq!(split.folds().count(), 0);
        assert_eq!(split.sends[1], Sent::Snapshot(0));
    }

    /// Two links into one slot: the tape sees the later one's value, and
    /// both send it.
    #[test]
    fn links_into_one_slot_send_what_the_last_one_received() {
        let k = Kernel {
            ops: vec![Slot(2), Slot(0), Add(0, 1)],
            writes: vec![(2, 2)],
            n_slots: 3,
            n_dims: 0,
        };
        let split = split_is_the_statement(&k, &[0, 1, 0]);
        assert_eq!(split.sends[0], split.sends[2]);
    }
}
