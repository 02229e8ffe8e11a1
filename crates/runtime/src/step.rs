//! The one meaning of the six ops. A process is a statically fixed trace
//! of communications (Sec. 4), and what a [`ProcOp`] does to its
//! registers does not depend on how its channels are realized: one
//! interpreter, [`step_window`], runs against a channel trait, [`Port`],
//! and each engine instantiates it for its own channels — the run
//! arena's rings (`crate::arena`), and the rendezvous engine's completed
//! communication set ([`Completed`]; the engine then registers what
//! [`blocked_on`] reads off the registers as the process's next set).

use crate::coop::RunStats;
use crate::process::{lock, ChanId, CommReq, Value};
use crate::procir::{ProcId, ProcIrModule, ProcOp};
use crate::record::{OpKind, Phase, SharedRecorder};

/// A process's channels, as the op step sees them: a pop may find
/// nothing and a push no room, and the step then blocks. The slice
/// methods loop unless a port overrides them; callers check the bounds.
pub(crate) trait Port {
    fn len(&self, chan: ChanId) -> usize;
    fn free(&self, chan: ChanId) -> usize;
    fn pop(&mut self, chan: ChanId) -> Option<Value>;
    #[must_use]
    fn push(&mut self, chan: ChanId, v: Value) -> bool;

    fn push_many(&mut self, chan: ChanId, vals: &[Value]) {
        for &v in vals {
            let pushed = self.push(chan, v);
            assert!(pushed, "push_many past capacity");
        }
    }

    /// Pop `m` values onto the end of `dst`, or drop them without one.
    fn pop_extend(&mut self, chan: ChanId, m: usize, mut dst: Option<&mut Vec<Value>>) {
        for _ in 0..m {
            let v = self.pop(chan).expect("pop_extend past occupancy");
            if let Some(dst) = dst.as_deref_mut() {
                dst.push(v);
            }
        }
    }

    /// `k` receive-forward cycles of a `pass`.
    fn transfer(&mut self, from: ChanId, to: ChanId, k: usize) {
        for _ in 0..k {
            let v = self.pop(from).expect("transfer past occupancy");
            let pushed = self.push(to, v);
            assert!(pushed, "transfer past capacity");
        }
    }
}

/// Where a process stands inside an op it could not finish. Par-sets
/// complete *piecewise*, as the rendezvous engine matches each channel of
/// a `par` set independently: completing them atomically on rings would
/// deadlock bidirectional-stream designs (matmul E.2). Links past the
/// 64th have no bit ([`link_bit`]), so only a port that completes whole
/// sets serves them — the rendezvous engine's; the batch gate admits at
/// most 64 to the rings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MacroState {
    /// At an op boundary (or mid-`Pass` before its next pop).
    Ready,
    /// A `Pass` cycle popped its value but could not forward it yet.
    PassHeld(Value),
    /// Mid par-receive; bit `i` set ⇔ moving link `i` already received.
    ComputeRecv { mask: u64 },
    /// Mid par-send; bit `i` set ⇔ moving link `i` already sent.
    ComputeSend { mask: u64 },
}

/// Bit `i` of a par-set mask; none past the 64th link.
#[inline]
fn link_bit(i: usize) -> u64 {
    1u64.checked_shl(i as u32).unwrap_or(0)
}

/// One process's registers.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Regs {
    /// Program counter, absolute into `module.ops`.
    pub(crate) pc: u32,
    /// Data cursor, absolute into `module.data`.
    cursor: u32,
    /// Remaining cycles of the current `Pass`; `-1` when not inside one.
    pass_left: i64,
    state: MacroState,
    /// Current repeater iteration.
    pub(crate) t: i64,
    /// Offsets of this process's locals and index point in the tables of
    /// a [`ProcView`].
    pub(crate) locals: u32,
    pub(crate) x: u32,
}

impl Regs {
    /// `pid`'s registers before its first op.
    pub(crate) fn start(module: &ProcIrModule, pid: ProcId, locals: u32, x: u32) -> Regs {
        let rec = &module.procs[pid];
        Regs {
            pc: rec.ops.0,
            cursor: rec.data.0,
            pass_left: -1,
            state: MacroState::Ready,
            t: 0,
            locals,
            x,
        }
    }

    /// Remaining repeater iterations when this process stands at the
    /// kernel hand-off point of the compute window at `at`: that linked
    /// `Compute`, at a fresh iteration boundary. `None` when the window
    /// is not startable yet or already exhausted, or the process is
    /// blocked inside a piecewise par-set — the scalar sweep finishes
    /// those.
    pub(crate) fn kernel_point(&self, module: &ProcIrModule, pid: ProcId, at: u32) -> Option<u64> {
        if self.pc != at || self.state != MacroState::Ready {
            return None;
        }
        match module.ops[at as usize] {
            ProcOp::Compute { count }
                if self.t < count as i64 && !module.moving_of(pid).is_empty() =>
            {
                Some((count as i64 - self.t) as u64)
            }
            _ => None,
        }
    }
}

/// One process's state, lent to [`step_window`] by its engine: its
/// registers, the locals and index-point tables they index, the one-lane
/// kernel registers, the buffer `Collect` fills (none drops the values)
/// and the recorders an observing step reports to.
pub(crate) struct ProcView<'a> {
    pub(crate) regs: &'a mut Regs,
    pub(crate) locals: &'a mut [Value],
    pub(crate) x: &'a mut [i64],
    pub(crate) tape: &'a mut [Value],
    pub(crate) out: Option<&'a mut Vec<Value>>,
    pub(crate) recorders: &'a [SharedRecorder],
}

/// One repeater iteration retired: the index point advances (wrapping,
/// like every `Value` operation).
#[inline]
fn advance(t: &mut i64, x: &mut [i64], incr: &[i64]) {
    *t += 1;
    for (xi, &inc) in x.iter_mut().zip(incr) {
        *xi = xi.wrapping_add(inc);
    }
}

/// How many copies of `op` stand at `pc` before `end`, at most `room`:
/// the run a transport arm retires in one slice. Found by comparing
/// consecutive ops, so the bytecode needs no run table.
#[inline]
fn run_at(module: &ProcIrModule, pc: u32, end: u32, op: ProcOp, room: usize) -> usize {
    let ops = &module.ops[pc as usize..end as usize];
    ops.iter().take(room).take_while(|&&o| o == op).count()
}

/// Report `n` retired effects of the op at `pc`, with its phase (a `Pass`
/// soaks before the repeater, drains after it); compiled out unless
/// `OBSERVE`.
#[inline]
fn retire<const OBSERVE: bool>(
    recorders: &[SharedRecorder],
    module: &ProcIrModule,
    pid: ProcId,
    pc: u32,
    kind: OpKind,
    n: usize,
) {
    if !OBSERVE {
        return;
    }
    let phase = match kind {
        OpKind::Emit | OpKind::Collect => Phase::Host,
        OpKind::Keep => Phase::Load,
        OpKind::Eject => Phase::Recover,
        OpKind::Compute => Phase::Compute,
        OpKind::Pass => {
            let (a, b) = module.procs[pid].ops;
            match (a..b).find(|&p| matches!(module.ops[p as usize], ProcOp::Compute { .. })) {
                None => Phase::Transport,
                Some(compute) if pc < compute => Phase::Soak,
                Some(_) => Phase::Drain,
            }
        }
    };
    for _ in 0..n {
        for rec in recorders {
            lock(rec).vm_op(pid, kind, phase);
        }
    }
}

/// The op step: retire as many of the ops `start..end` of process `pid`
/// as `port` allows. Transport moves slices: a `Pass` moves
/// `min(cycles left, len(inp), free(out))` values in one
/// [`Port::transfer`], a run of identical `Emit`s or `Collect`s at the pc
/// as many as the channel allows in one [`Port::push_many`] or
/// [`Port::pop_extend`]. Returns `true` once the pc has left the window
/// (the caller accounts a process's terminal step), `false` when it
/// blocked or the window is not startable yet (`pc < start`).
///
/// `stats` counts the logical sets and transfers as the rendezvous
/// engines do (a step per completed set, a message per value pushed), a
/// slice's at once; `*moved` counts every value pushed or popped, the
/// wavefront engine's progress signal. With `OBSERVE`, every retired op
/// effect is reported to `p.recorders`, per cycle or iteration.
#[inline]
pub(crate) fn step_window<P: Port, const OBSERVE: bool>(
    module: &ProcIrModule,
    pid: ProcId,
    (start, end): (u32, u32),
    mut p: ProcView<'_>,
    port: &mut P,
    stats: &mut RunStats,
    moved: &mut u64,
) -> bool {
    let (r, recorders) = (p.regs, p.recorders);
    if r.pc < start {
        return false;
    }
    loop {
        if r.pc >= end {
            return true;
        }
        match module.ops[r.pc as usize] {
            op @ ProcOp::Emit { chan } => {
                // The run of this very op at `pc`, as far as the channel
                // has room: one slice of the data segment. A blocked
                // sender is the common visit on narrow rings, and costs
                // one look at the port.
                let m = run_at(module, r.pc, end, op, port.free(chan));
                if m == 0 {
                    return false;
                }
                let at = r.cursor as usize;
                port.push_many(chan, &module.data[at..at + m]);
                r.cursor += m as u32;
                r.pc += m as u32;
                stats.steps += m as u64;
                stats.messages += m as u64;
                *moved += m as u64;
                retire::<OBSERVE>(recorders, module, pid, r.pc, OpKind::Emit, m);
            }
            op @ ProcOp::Collect { chan } => {
                // The same for a run of receives into the output.
                let m = run_at(module, r.pc, end, op, port.len(chan));
                if m == 0 {
                    return false;
                }
                port.pop_extend(chan, m, p.out.as_deref_mut());
                r.pc += m as u32;
                stats.steps += m as u64;
                *moved += m as u64;
                retire::<OBSERVE>(recorders, module, pid, r.pc, OpKind::Collect, m);
            }
            ProcOp::Keep { chan, slot } => {
                let Some(v) = port.pop(chan) else {
                    return false;
                };
                p.locals[(r.locals + slot) as usize] = v;
                r.pc += 1;
                stats.steps += 1;
                *moved += 1;
                retire::<OBSERVE>(recorders, module, pid, r.pc, OpKind::Keep, 1);
            }
            ProcOp::Pass { inp, out, n } => {
                if r.pass_left < 0 {
                    r.pass_left = n as i64;
                }
                // Resume a cycle whose forward found no room.
                if let MacroState::PassHeld(v) = r.state {
                    if !port.push(out, v) {
                        return false;
                    }
                    r.state = MacroState::Ready;
                    stats.steps += 1;
                    stats.messages += 1;
                    *moved += 1;
                    retire::<OBSERVE>(recorders, module, pid, r.pc, OpKind::Pass, 1);
                }
                // The pass as slices: k receive-forward cycles at once,
                // k bounded by the cycles left and both channels. Only a
                // rotation (`inp == out`) can need a second slice.
                while r.pass_left > 0 {
                    let k = (r.pass_left as usize)
                        .min(port.len(inp))
                        .min(port.free(out));
                    if k == 0 {
                        // An empty `inp` blocks here; a full `out` takes
                        // one value and holds it, as the rendezvous
                        // receive would have.
                        let Some(v) = port.pop(inp) else {
                            return false;
                        };
                        stats.steps += 1;
                        *moved += 1;
                        r.pass_left -= 1;
                        r.state = MacroState::PassHeld(v);
                        return false;
                    }
                    port.transfer(inp, out, k);
                    r.pass_left -= k as i64;
                    stats.steps += 2 * k as u64;
                    stats.messages += k as u64;
                    *moved += 2 * k as u64;
                    retire::<OBSERVE>(recorders, module, pid, r.pc, OpKind::Pass, k);
                }
                r.pass_left = -1;
                r.pc += 1;
            }
            ProcOp::Eject { chan, slot } => {
                if !port.push(chan, p.locals[(r.locals + slot) as usize]) {
                    return false;
                }
                r.pc += 1;
                stats.steps += 1;
                stats.messages += 1;
                *moved += 1;
                retire::<OBSERVE>(recorders, module, pid, r.pc, OpKind::Eject, 1);
            }
            ProcOp::Compute { count } => {
                if r.t < count as i64 {
                    // Built here only: a view whose address escapes would
                    // keep every transport op's registers in memory.
                    let view = ProcView {
                        regs: &mut *r,
                        locals: &mut *p.locals,
                        x: &mut *p.x,
                        tape: &mut *p.tape,
                        out: None,
                        recorders,
                    };
                    if !repeater::<P, OBSERVE>(module, pid, count as i64, view, port, stats, moved)
                    {
                        return false;
                    }
                }
                // Reset for a hypothetical later Compute.
                r.pc += 1;
                r.t = 0;
                let first = module.first_of(pid);
                p.x[r.x as usize..][..first.len()].copy_from_slice(first);
            }
        }
    }
}

/// The iterations left of the repeater at `pid`'s pc, each a
/// par-receive, the basic statement and a par-send; `false` when a
/// par-set blocked. Out of line, or every call of the step loads the
/// tables it reads up front — a cost the transport ops, most steps, pay
/// for nothing (measured).
#[inline(never)]
fn repeater<P: Port, const OBSERVE: bool>(
    module: &ProcIrModule,
    pid: ProcId,
    count: i64,
    p: ProcView<'_>,
    port: &mut P,
    stats: &mut RunStats,
    moved: &mut u64,
) -> bool {
    let (r, tape, recorders) = (p.regs, p.tape, p.recorders);
    let locals = &mut p.locals[r.locals as usize..];
    let x = &mut p.x[r.x as usize..];
    let (links, incr) = (module.moving_of(pid), module.increment_of(pid));
    if links.is_empty() {
        // No communications: run the whole repeater locally (zero sets).
        while r.t < count {
            module.kernel.run(tape, locals, x, 1);
            retire::<OBSERVE>(recorders, module, pid, r.pc, OpKind::Compute, 1);
            advance(&mut r.t, x, incr);
        }
    }
    // One state transition per pass; the par-sets complete piecewise
    // (see [`MacroState`]).
    while r.t < count {
        match r.state {
            MacroState::ComputeSend { mut mask } => {
                let mut whole = true;
                for (i, mc) in links.iter().enumerate() {
                    if mask & link_bit(i) != 0 {
                        continue;
                    }
                    if port.push(mc.out, locals[mc.slot as usize]) {
                        mask |= link_bit(i);
                        stats.messages += 1;
                        *moved += 1;
                    } else {
                        whole = false;
                    }
                }
                if !whole {
                    r.state = MacroState::ComputeSend { mask };
                    return false;
                }
                stats.steps += 1; // the par-send set
                advance(&mut r.t, x, incr);
                r.state = MacroState::Ready;
            }
            MacroState::PassHeld(_) => unreachable!("PassHeld at a Compute op"),
            state => {
                let mut mask = match state {
                    MacroState::ComputeRecv { mask } => mask,
                    _ => 0,
                };
                let mut whole = true;
                for (i, mc) in links.iter().enumerate() {
                    if mask & link_bit(i) != 0 {
                        continue;
                    }
                    match port.pop(mc.inp) {
                        Some(v) => {
                            locals[mc.slot as usize] = v;
                            mask |= link_bit(i);
                            *moved += 1;
                        }
                        None => whole = false,
                    }
                }
                if !whole {
                    r.state = MacroState::ComputeRecv { mask };
                    return false;
                }
                stats.steps += 1; // the par-receive set
                module.kernel.run(tape, locals, x, 1);
                retire::<OBSERVE>(recorders, module, pid, r.pc, OpKind::Compute, 1);
                r.state = MacroState::ComputeSend { mask: 0 };
            }
        }
    }
    true
}

/// The communication set process `pid` waits on, blocked in
/// [`step_window`] with registers `r` over the locals table `locals`,
/// appended to `set`: what the rendezvous engine registers next, and
/// what the fast engine's deadlock report names. The process must not
/// have finished.
#[inline]
pub(crate) fn blocked_on(
    module: &ProcIrModule,
    pid: ProcId,
    r: &Regs,
    locals: &[Value],
    set: &mut Vec<CommReq>,
) {
    let locals = &locals[r.locals as usize..];
    let send = |chan, slot: u32| CommReq::Send {
        chan,
        value: locals[slot as usize],
    };
    match module.ops[r.pc as usize] {
        ProcOp::Emit { chan } => set.push(CommReq::Send {
            chan,
            value: module.data[r.cursor as usize],
        }),
        ProcOp::Collect { chan } | ProcOp::Keep { chan, .. } => set.push(CommReq::Recv { chan }),
        ProcOp::Eject { chan, slot } => set.push(send(chan, slot)),
        ProcOp::Pass { inp, out, .. } => set.push(match r.state {
            MacroState::PassHeld(value) => CommReq::Send { chan: out, value },
            _ => CommReq::Recv { chan: inp },
        }),
        ProcOp::Compute { .. } => {
            // A par-set waits on the links its mask has not completed.
            let (mask, sending) = match r.state {
                MacroState::ComputeSend { mask } => (mask, true),
                MacroState::ComputeRecv { mask } => (mask, false),
                _ => (0, false),
            };
            for (i, mc) in module.moving_of(pid).iter().enumerate() {
                if mask & link_bit(i) == 0 {
                    set.push(match sending {
                        true => send(mc.out, mc.slot),
                        false => CommReq::Recv { chan: mc.inp },
                    });
                }
            }
        }
    }
}

/// The rendezvous port: the communication set a process blocked on, now
/// complete — `sends` sends taken, `received` delivered in request order.
/// The step retires a set in the order [`blocked_on`] issued it, so the
/// port needs no channel ids: `len` counts the values not yet taken,
/// `free` the sends not yet consumed.
pub(crate) struct Completed<'a> {
    received: &'a [Value],
    sends: usize,
}

impl<'a> Completed<'a> {
    /// The set of `issued` requests whose receives delivered `received`.
    #[inline]
    pub(crate) fn new(issued: usize, received: &'a [Value]) -> Self {
        let sends = issued - received.len();
        Completed { received, sends }
    }

    /// Whether the step consumed the whole set.
    pub(crate) fn consumed(&self) -> bool {
        self.received.is_empty() && self.sends == 0
    }
}

impl Port for Completed<'_> {
    #[inline]
    fn len(&self, _: ChanId) -> usize {
        self.received.len()
    }

    #[inline]
    fn free(&self, _: ChanId) -> usize {
        self.sends
    }

    #[inline]
    fn pop(&mut self, _: ChanId) -> Option<Value> {
        let (&v, rest) = self.received.split_first()?;
        self.received = rest;
        Some(v)
    }

    #[inline]
    fn push(&mut self, _: ChanId, _: Value) -> bool {
        let pushed = self.sends > 0;
        self.sends -= pushed as usize;
        pushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::RunArena;
    use crate::batch::analyze;
    use crate::coop::Network;
    use crate::kernel::{Kernel, KernelOp};
    use crate::procir::{MovingLink, ProcIrBuilder};
    use crate::record::{shared, MetricsRecorder};
    use crate::wavefront::{analyze_wavefront, run_wavefront};
    use std::sync::Arc;

    /// Every process's steps on the rendezvous engine, by pid.
    fn rendezvous_steps(m: &Arc<ProcIrModule>) -> Vec<u64> {
        let (metrics, rec) = shared(MetricsRecorder::new());
        let mut net = Network::of(m);
        net.add_recorder(rec);
        net.run().unwrap();
        let report = lock(&metrics).report();
        report.processes.iter().map(|p| p.steps).collect()
    }

    /// `m` on rings of capacity 1, visited process by process until
    /// every process retires.
    fn on_unit_rings(m: &ProcIrModule) -> RunStats {
        let mut arena = RunArena::default();
        arena.reset(m, &vec![1; m.n_chans]);
        let mut stats = RunStats::default();
        let mut left: Vec<ProcId> = (0..m.procs.len()).collect();
        while !left.is_empty() {
            let (before, mut moved) = (left.len(), 0);
            left.retain(|&pid| {
                let ops = m.procs[pid].ops;
                !arena.macro_step_window(m, pid, ops, &mut stats, &mut moved)
            });
            assert!(moved > 0 || left.len() < before, "stuck");
        }
        stats
    }

    /// One computation process at `n`: keep `c`, soak `n`, `n`
    /// iterations of `c := c + a`, drain `n`, eject `c`, with its host
    /// fringe.
    fn cell(b: &mut ProcIrBuilder, n: usize) {
        b.begin("cell");
        b.op(ProcOp::Keep { chan: 2, slot: 1 });
        let pass = ProcOp::Pass {
            inp: 0,
            out: 1,
            n: n as u64,
        };
        b.op(pass);
        b.op(ProcOp::Compute { count: n as u64 });
        b.op(pass);
        b.op(ProcOp::Eject { chan: 3, slot: 1 });
        let a = MovingLink {
            slot: 0,
            inp: 0,
            out: 1,
        };
        b.repeater(&[a], &[0], &[1], 2);
        b.finish();
        b.source(0, &vec![1; 3 * n], "a-in");
        b.source(2, &[10], "c-in");
        b.sink(1, 3 * n, "a-out");
        b.sink(3, 1, "c-out");
        use KernelOp::{Add, Slot};
        b.set_kernel(Arc::new(Kernel {
            ops: vec![Slot(1), Slot(0), Add(0, 1)],
            writes: vec![(1, 2)],
            n_slots: 2,
            n_dims: 0,
        }));
    }

    /// The step counts `docs/process-ir.md` states, shape by shape: a
    /// source of `n` values takes `n + 1` steps, a sink of `count` values
    /// `count + 1`, a relay of `n` cycles `2n + 1`, a segment relay
    /// `2·Σnᵢ + 1`, and a computation process one per `Keep`/`Eject`, two
    /// per `Pass` cycle and per repeater iteration, plus its terminal
    /// step. Per process on the rendezvous engine; in total on the
    /// wavefront engine over rings of their traffic and of capacity 1.
    #[test]
    fn step_counts_are_the_documented_contract() {
        // (name, the module at `n`, every process's steps at `n`)
        type Shape = (
            &'static str,
            fn(&mut ProcIrBuilder, usize),
            fn(u64) -> Vec<u64>,
        );
        let shapes: [Shape; 4] = [
            (
                "source and sink",
                |b, n| {
                    b.source(0, &vec![7; n], "src");
                    b.sink(0, n, "sink");
                },
                |n| vec![n + 1, n + 1],
            ),
            (
                "relay",
                |b, n| {
                    b.source(0, &vec![7; n], "src");
                    b.relay(0, 1, n, "relay");
                    b.sink(1, n, "sink");
                },
                |n| vec![n + 1, 2 * n + 1, n + 1],
            ),
            (
                "segment relay",
                |b, n| {
                    b.source(0, &vec![7; n], "src-a");
                    b.source(1, &vec![8; n + 2], "src-b");
                    b.segment_relay(&[(0, 2, n), (1, 3, n + 2)], "segments");
                    b.sink(2, n, "sink-a");
                    b.sink(3, n + 2, "sink-b");
                },
                |n| vec![n + 1, n + 3, 2 * (2 * n + 2) + 1, n + 1, n + 3],
            ),
            ("computation", cell, |n| {
                vec![
                    1 + 2 * n + 2 * n + 2 * n + 1 + 1,
                    3 * n + 1,
                    2,
                    3 * n + 1,
                    2,
                ]
            }),
        ];
        for (name, build, expected) in shapes {
            for n in [0, 1, 3, 17] {
                let ctx = format!("{name}, n = {n}");
                let mut b = ProcIrBuilder::new();
                build(&mut b, n);
                let m = b.build();
                let want = expected(n as u64);
                assert_eq!(rendezvous_steps(&m), want, "{ctx}: rendezvous");
                let total: u64 = want.iter().sum();
                let plan = analyze(&m);
                assert!(plan.batchable(), "{ctx}: {:?}", plan.reject_reason());
                let wf = analyze_wavefront(&m, &plan, &[]);
                let (stats, _, _) = run_wavefront(&m, &wf, None, false).unwrap();
                assert_eq!(stats.steps, total, "{ctx}: rings of their traffic");
                assert_eq!(on_unit_rings(&m).steps, total, "{ctx}: rings of one");
            }
        }
    }

    /// A par-set of 65 links — one past the step's par-set mask — runs on
    /// the rendezvous engine, whose port completes whole sets.
    #[test]
    fn a_par_set_past_the_mask_runs_on_the_rendezvous_engine() {
        let mut b = ProcIrBuilder::new();
        let links: Vec<MovingLink> = (0..65)
            .map(|i| MovingLink {
                slot: i,
                inp: 2 * i as usize,
                out: 2 * i as usize + 1,
            })
            .collect();
        b.begin("wide");
        b.op(ProcOp::Compute { count: 2 });
        b.repeater(&links, &[0], &[1], 65);
        b.finish();
        for l in &links {
            b.source(l.inp, &[l.slot as Value, -(l.slot as Value)], "in");
            b.sink(l.out, 2, "out");
        }
        let m = b.build();
        let (stats, outs) = Network::of(&m).run_with_outputs().unwrap();
        let want: Vec<Vec<Value>> = (0..65).map(|i| vec![i, -i]).collect();
        assert_eq!(outs, want);
        assert_eq!(stats.steps, (2 * 2 + 1) + 65 * (3 + 3));
    }

    #[test]
    fn the_rendezvous_port_offers_the_completed_set_once() {
        // A set of two receives and one send, completed.
        let mut port = Completed::new(3, &[4, 5]);
        assert_eq!((port.len(0), port.free(0)), (2, 1));
        assert_eq!(
            (port.pop(0), port.pop(0), port.pop(0)),
            (Some(4), Some(5), None)
        );
        assert!(port.push(1, 9) && !port.push(1, 9));
        assert!(port.consumed());
    }
}
