//! The run arena: everything a fast-engine run mutates, in flat tables.
//!
//! The paper's process is a handful of scalars plus one local per stream
//! (Sec. 4), and its channels carry a number of values the derivation
//! knows in advance — so the whole mutable state of a run is a
//! fixed-size block known when the module is built. The cooperative fast
//! engine (`run_wavefront`) keeps it as one:
//!
//! - one [`Regs`] record per process (program counter, data cursor, pass
//!   counter, parked par-set, repeater iteration) and one finished flag,
//!   indexed by pid;
//! - one `locals` and one `x` vector holding every process's stream
//!   locals and index point back to back, at per-pid offsets;
//! - one **ring slab** ([`Rings`]): a single `Vec<Value>` cut into one
//!   bounded FIFO per channel, capacities from the plan;
//! - one plain `Vec<Value>` per output buffer;
//! - the wavefront sweep's per-chunk progress table and worklists, and
//!   the kernel path's struct-of-arrays scratch.
//!
//! [`with_arena`] lends the thread's arena to a run and
//! [`RunArena::reset`] overwrites every table for this run's module in
//! O(processes + channels): nothing is keyed by module, so a rotation of
//! designs reuses the same few vectors as well as a repeated one does,
//! and a run that deadlocked, errored or unwound leaves nothing the next
//! `reset` does not overwrite (an unwound run never hands the arena
//! back; the next one starts from an empty arena and grows it again).
//!
//! The superinstruction interpreter of that engine runs on the arena:
//! [`RunArena::macro_step_window`] retires as many ops of one process as
//! the rings allow, without returning to the engine (see `crate::batch`
//! and `docs/scheduler.md`). Its transport ops move slices, not values:
//! a `Pass` moves as many values as its count and both rings allow with
//! [`Rings::transfer`], and a run of identical `Emit`s (`Collect`s) at
//! the pc is one [`Rings::push_many`] ([`Rings::pop_extend`]); the
//! statistics are still per value, added as products. The rendezvous
//! engines interpret the same bytecode through `ProcVm`, one
//! communication set per step.

use crate::coop::RunStats;
use crate::kernel::KernelScratch;
use crate::process::{ChanId, Value};
use crate::procir::{MovingLink, ProcId, ProcIrModule, ProcOp};
use crate::wavefront::WaveState;
use std::mem::size_of;

/// Where a macro-stepped process is parked when a ring is empty/full
/// mid-op. Par-sets complete *piecewise*: the interpreter pops or pushes
/// whichever moving links have room and remembers the rest in a bitmask,
/// mirroring how the rendezvous engine matches each channel of a `par`
/// set independently — completing them atomically instead would
/// deadlock bidirectional-stream designs (e.g. matmul E.2, where
/// neighbouring cells exchange `a` rightward and `b` leftward).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MacroState {
    /// At an op boundary (or mid-`Pass` before its next pop).
    Ready,
    /// A `Pass` cycle popped its value but found the output ring full.
    PassHeld(Value),
    /// Mid par-receive; bit `i` set ⇔ moving link `i` already received.
    ComputeRecv { mask: u64 },
    /// Mid par-send; bit `i` set ⇔ moving link `i` already sent.
    ComputeSend { mask: u64 },
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
    /// Offset of this process's locals in [`RunArena::locals`].
    pub(crate) locals: u32,
    /// Offset of this process's index point in [`RunArena::x`].
    pub(crate) x: u32,
}

impl Regs {
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

/// The index point at offset `at` of the run's `x` table — `pid`'s — and
/// its per-iteration increment.
#[inline]
fn point<'a>(
    module: &'a ProcIrModule,
    pid: ProcId,
    at: u32,
    x: &'a mut [i64],
) -> (&'a mut [i64], &'a [i64]) {
    let incr = module.increment_of(pid);
    (&mut x[at as usize..][..incr.len()], incr)
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

/// One channel's bounded FIFO: `cap` slots of the slab from `base`, of
/// which the `len` from `head` (wrapping) are in flight.
#[derive(Clone, Copy, Debug)]
struct Ring {
    base: u32,
    cap: u32,
    head: u32,
    len: u32,
}

/// Every channel's ring in one slab. Plain sequential code — the engine
/// that borrowed the arena owns all rings outright.
#[derive(Default)]
pub(crate) struct Rings {
    ring: Vec<Ring>,
    slab: Vec<Value>,
}

impl Rings {
    /// Empty rings of the given capacities (at least 1 each) over the
    /// same slab. The slab's old contents are never read: a slot is
    /// written by the push that brings it into `head..head + len`.
    fn reset(&mut self, caps: &[u64]) {
        self.ring.clear();
        let mut base = 0u32;
        self.ring.extend(caps.iter().map(|&cap| {
            let cap = u32::try_from(cap.max(1)).expect("ring capacity fits the slab index");
            let ring = Ring {
                base,
                cap,
                head: 0,
                len: 0,
            };
            base = base.checked_add(cap).expect("ring slab fits its index");
            ring
        }));
        if self.slab.len() < base as usize {
            self.slab.resize(base as usize, 0);
        }
    }

    /// Values in flight on `chan`.
    #[inline]
    pub(crate) fn len(&self, chan: ChanId) -> usize {
        self.ring[chan].len as usize
    }

    /// Free slots of `chan`.
    #[inline]
    pub(crate) fn free(&self, chan: ChanId) -> usize {
        let r = &self.ring[chan];
        (r.cap - r.len) as usize
    }

    /// Push a value unless the ring is full; whether it was pushed.
    #[inline]
    #[must_use]
    pub(crate) fn push(&mut self, chan: ChanId, v: Value) -> bool {
        let r = &mut self.ring[chan];
        if r.len >= r.cap {
            return false;
        }
        let mut at = r.head + r.len;
        if at >= r.cap {
            at -= r.cap;
        }
        r.len += 1;
        self.slab[(r.base + at) as usize] = v;
        true
    }

    #[inline]
    pub(crate) fn pop(&mut self, chan: ChanId) -> Option<Value> {
        let r = &mut self.ring[chan];
        if r.len == 0 {
            return None;
        }
        let v = self.slab[(r.base + r.head) as usize];
        r.head += 1;
        if r.head == r.cap {
            r.head = 0;
        }
        r.len -= 1;
        Some(v)
    }

    /// Pop `dst.len()` values in FIFO order into `dst`. The caller must
    /// have checked occupancy ([`Rings::len`]) — the kernel path's one
    /// bounds decision per wave batch.
    #[inline]
    pub(crate) fn pop_many(&mut self, chan: ChanId, dst: &mut [Value]) {
        let r = &mut self.ring[chan];
        let n = dst.len() as u32;
        assert!(n <= r.len, "pop_many past occupancy");
        let first = n.min(r.cap - r.head) as usize;
        let ring = &self.slab[r.base as usize..(r.base + r.cap) as usize];
        dst[..first].copy_from_slice(&ring[r.head as usize..][..first]);
        dst[first..].copy_from_slice(&ring[..n as usize - first]);
        r.head = (r.head + n) % r.cap;
        r.len -= n;
    }

    /// Push all of `vals` in order; the caller must have checked
    /// [`Rings::free`].
    #[inline]
    pub(crate) fn push_many(&mut self, chan: ChanId, vals: &[Value]) {
        let r = &mut self.ring[chan];
        let n = vals.len() as u32;
        assert!(n <= r.cap - r.len, "push_many past capacity");
        let tail = (r.head + r.len) % r.cap;
        let first = n.min(r.cap - tail) as usize;
        let ring = &mut self.slab[r.base as usize..(r.base + r.cap) as usize];
        ring[tail as usize..][..first].copy_from_slice(&vals[..first]);
        ring[..n as usize - first].copy_from_slice(&vals[first..]);
        r.len += n;
    }

    /// Pop `m` values in FIFO order onto the end of `dst`, or drop them
    /// when there is none; the caller must have checked [`Rings::len`].
    #[inline]
    pub(crate) fn pop_extend(&mut self, chan: ChanId, m: usize, dst: Option<&mut Vec<Value>>) {
        let r = &mut self.ring[chan];
        let n = m as u32;
        assert!(n <= r.len, "pop_extend past occupancy");
        if let Some(dst) = dst {
            let first = n.min(r.cap - r.head) as usize;
            let ring = &self.slab[r.base as usize..(r.base + r.cap) as usize];
            dst.extend_from_slice(&ring[r.head as usize..][..first]);
            dst.extend_from_slice(&ring[..m - first]);
        }
        r.head = (r.head + n) % r.cap;
        r.len -= n;
    }

    /// Move `k` values from the head of `from` to the tail of `to` in
    /// FIFO order: `k` receive-forward cycles of a `pass` at once. The
    /// caller must have checked `k ≤ len(from)` and `k ≤ free(to)`. Each
    /// stretch between two wraps is one `copy_within` on the slab. With
    /// `from == to` it is a rotation, and the same bounds keep the `k`
    /// slots read apart from the `k` slots written.
    pub(crate) fn transfer(&mut self, from: ChanId, to: ChanId, k: usize) {
        let (f, t) = (self.ring[from], self.ring[to]);
        let n = k as u32;
        assert!(n <= f.len && n <= t.cap - t.len, "transfer past a bound");
        let (mut src, mut dst) = (f.head, (t.head + t.len) % t.cap);
        let mut left = n;
        while left > 0 {
            let step = left.min(f.cap - src).min(t.cap - dst);
            let at = (f.base + src) as usize;
            self.slab
                .copy_within(at..at + step as usize, (t.base + dst) as usize);
            src = (src + step) % f.cap;
            dst = (dst + step) % t.cap;
            left -= step;
        }
        let f = &mut self.ring[from];
        f.head = src;
        f.len -= n;
        self.ring[to].len += n;
    }
}

/// One run's mutable state; see the module docs.
#[derive(Default)]
pub(crate) struct RunArena {
    pub(crate) regs: Vec<Regs>,
    /// Per process: the terminal empty step has been accounted. Dense and
    /// apart from the registers — the sweep skips retired windows by it,
    /// pass after pass.
    done: Vec<bool>,
    /// One local per stream of the source program, per process.
    pub(crate) locals: Vec<Value>,
    /// Current index point of every repeater.
    pub(crate) x: Vec<i64>,
    pub(crate) rings: Rings,
    /// The output buffers the `Collect` ops fill, by output id. Moved
    /// out to the caller when the run completes.
    pub(crate) outputs: Vec<Vec<Value>>,
    pub(crate) scratch: KernelScratch,
    pub(crate) waves: WaveState,
}

std::thread_local! {
    /// One arena per thread, warm across runs: a fresh block per run
    /// means thousands of allocations and cold pages per run, which
    /// interleaved benchmark visits (and real multi-tenant traffic) pay
    /// over and over.
    static ARENA: std::cell::Cell<RunArena> = std::cell::Cell::default();
}

/// Lend the thread's arena to `run`. A run that unwinds never hands it
/// back, which only costs the next run the warmth.
pub(crate) fn with_arena<R>(run: impl FnOnce(&mut RunArena) -> R) -> R {
    let mut arena = ARENA.with(|a| a.take());
    let result = run(&mut arena);
    ARENA.with(|a| a.set(arena));
    result
}

impl RunArena {
    /// Overwrite every table with the initial state of one run of
    /// `module` over rings of capacities `caps` (dense by `ChanId`).
    /// Vectors are cleared and refilled in place, so a warm arena
    /// allocates only the output buffers it hands away at the end.
    pub(crate) fn reset(&mut self, module: &ProcIrModule, caps: &[u64]) {
        debug_assert_eq!(caps.len(), module.n_chans, "one capacity per channel");
        self.regs.clear();
        self.done.clear();
        self.done.resize(module.procs.len(), false);
        self.x.clear();
        self.outputs.clear();
        self.outputs.resize_with(module.n_outputs, Vec::new);
        let mut n_locals = 0usize;
        for (pid, rec) in module.procs.iter().enumerate() {
            self.regs.push(Regs {
                pc: rec.ops.0,
                cursor: rec.data.0,
                pass_left: -1,
                state: MacroState::Ready,
                t: 0,
                locals: n_locals as u32,
                x: self.x.len() as u32,
            });
            n_locals += rec.n_locals as usize;
            self.x.extend_from_slice(module.first_of(pid));
            if let Some(o) = rec.output {
                // A collecting process is all `Collect`s, or nearly.
                self.outputs[o as usize].reserve((rec.ops.1 - rec.ops.0) as usize);
            }
        }
        assert!(
            n_locals <= u32::MAX as usize && self.x.len() <= u32::MAX as usize,
            "per-process offsets fit their index"
        );
        self.locals.clear();
        self.locals.resize(n_locals, 0);
        self.rings.reset(caps);
        // The one-lane register file; a wave batch never leaves it
        // shorter than that.
        let tape = module.kernel.ops.len();
        if self.scratch.regs.len() < tape {
            self.scratch.regs.resize(tape, 0);
        }
    }

    /// Bytes the arena's vectors hold on to (capacities, not lengths):
    /// what a thread retains between runs.
    pub(crate) fn footprint_bytes(&self) -> usize {
        self.regs.capacity() * size_of::<Regs>()
            + self.done.capacity()
            + self.locals.capacity() * size_of::<Value>()
            + self.x.capacity() * size_of::<i64>()
            + self.rings.ring.capacity() * size_of::<Ring>()
            + self.rings.slab.capacity() * size_of::<Value>()
            + self.outputs.capacity() * size_of::<Vec<Value>>()
            + self.scratch.footprint_bytes()
            + self.waves.footprint_bytes()
    }

    /// Whether the window of `pid`'s ops ending at `end` has retired:
    /// the pc is past it, and — for the last window, which owns the
    /// terminal empty step — that step has been accounted.
    pub(crate) fn window_retired(&self, module: &ProcIrModule, pid: ProcId, end: u32) -> bool {
        self.done[pid] || (self.regs[pid].pc >= end && end != module.procs[pid].ops.1)
    }

    /// The superinstruction path of the cooperative fast engine, bounded
    /// to the ops `start..end` of process `pid` (one node of the
    /// wavefront plan): retire as many ops as the rings allow without
    /// returning to the engine. Transport moves slices: a `Pass` moves
    /// `min(cycles left, len(inp), free(out))` values ring to ring in one
    /// [`Rings::transfer`], and a run of identical `Emit`s or `Collect`s
    /// at the pc moves as many values as the ring allows in one
    /// [`Rings::push_many`] or [`Rings::pop_extend`]. Whole `Compute`
    /// receive/body/send cycles run in a tight loop; values move through
    /// the rings instead of rendezvous sets.
    ///
    /// Runs only while `start ≤ pc < end` — a window whose predecessor
    /// has not retired yet is not startable and returns `false`
    /// untouched — and returns `true` once the pc has left the window,
    /// accounting the terminal step when `end` is the process's own;
    /// further calls are no-ops that return `true` again.
    ///
    /// `stats.steps` and `stats.messages` account the *logical*
    /// communication sets and transfers exactly as the rendezvous
    /// engines would (steps on each completed set plus one terminal
    /// empty step; one message per value transferred, counted at the
    /// push), so fast runs stay stat-comparable; a slice adds its values'
    /// counts at once. Every value pushed or popped also counts in
    /// `*moved` — the engine's progress signal for deadlock detection.
    pub(crate) fn macro_step_window(
        &mut self,
        module: &ProcIrModule,
        pid: ProcId,
        (start, end): (u32, u32),
        stats: &mut RunStats,
        moved: &mut u64,
    ) -> bool {
        let rec = &module.procs[pid];
        if self.done[pid] {
            return true;
        }
        let r = &mut self.regs[pid];
        if r.pc < start {
            return false;
        }
        let rings = &mut self.rings;
        // `pid`'s span of the locals table. Sliced only where a value
        // lands in or leaves a local: a blocked visit — the common one on
        // narrow rings — touches the registers, the op and one ring.
        let span = |at: u32| at as usize..(at + rec.n_locals) as usize;
        loop {
            if r.pc >= end {
                if end == rec.ops.1 {
                    // The terminal empty step, like the rendezvous engines'.
                    stats.steps += 1;
                    self.done[pid] = true;
                }
                return true;
            }
            match module.ops[r.pc as usize] {
                op @ ProcOp::Emit { chan } => {
                    // The run of this very op at `pc`, as far as the ring
                    // has room: one slice of the data segment. A blocked
                    // sender is the common visit on narrow rings, and
                    // costs one look at the ring.
                    let m = run_at(module, r.pc, end, op, rings.free(chan));
                    if m == 0 {
                        return false;
                    }
                    let at = r.cursor as usize;
                    rings.push_many(chan, &module.data[at..at + m]);
                    r.cursor += m as u32;
                    r.pc += m as u32;
                    stats.steps += m as u64;
                    stats.messages += m as u64;
                    *moved += m as u64;
                }
                op @ ProcOp::Collect { chan } => {
                    // The same for a run of receives into the output.
                    let m = run_at(module, r.pc, end, op, rings.len(chan));
                    if m == 0 {
                        return false;
                    }
                    let out = rec.output.map(|o| &mut self.outputs[o as usize]);
                    rings.pop_extend(chan, m, out);
                    r.pc += m as u32;
                    stats.steps += m as u64;
                    *moved += m as u64;
                }
                ProcOp::Keep { chan, slot } => {
                    let Some(v) = rings.pop(chan) else {
                        return false;
                    };
                    self.locals[span(r.locals)][slot as usize] = v;
                    r.pc += 1;
                    stats.steps += 1;
                    *moved += 1;
                }
                ProcOp::Pass { inp, out, n } => {
                    if r.pass_left < 0 {
                        r.pass_left = n as i64;
                    }
                    // Resume a cycle whose forward found the ring full.
                    if let MacroState::PassHeld(v) = r.state {
                        if !rings.push(out, v) {
                            return false;
                        }
                        r.state = MacroState::Ready;
                        stats.steps += 1;
                        stats.messages += 1;
                        *moved += 1;
                    }
                    // The pass as slices: k receive-forward cycles at once,
                    // k bounded by the cycles left and both rings. Only a
                    // rotation (`inp == out`) can need a second slice.
                    while r.pass_left > 0 {
                        let k = (r.pass_left as usize)
                            .min(rings.len(inp))
                            .min(rings.free(out));
                        if k == 0 {
                            // An empty `inp` blocks here; a full `out`
                            // takes one value and holds it, as the
                            // rendezvous receive would have.
                            let Some(v) = rings.pop(inp) else {
                                return false;
                            };
                            stats.steps += 1;
                            *moved += 1;
                            r.pass_left -= 1;
                            r.state = MacroState::PassHeld(v);
                            return false;
                        }
                        rings.transfer(inp, out, k);
                        r.pass_left -= k as i64;
                        stats.steps += 2 * k as u64;
                        stats.messages += k as u64;
                        *moved += 2 * k as u64;
                    }
                    r.pass_left = -1;
                    r.pc += 1;
                }
                ProcOp::Eject { chan, slot } => {
                    if rings.free(chan) == 0
                        || !rings.push(chan, self.locals[span(r.locals)][slot as usize])
                    {
                        return false;
                    }
                    r.pc += 1;
                    stats.steps += 1;
                    stats.messages += 1;
                    *moved += 1;
                }
                ProcOp::Compute { count } => {
                    // A blocked par-set is the common dispatch of a
                    // cyclic chunk: locals and index point are sliced
                    // only where an iteration actually runs.
                    if r.t >= count as i64 {
                        // Reset for a hypothetical later Compute.
                        r.pc += 1;
                        r.t = 0;
                        let first = module.first_of(pid);
                        self.x[r.x as usize..][..first.len()].copy_from_slice(first);
                        continue;
                    }
                    let links = module.moving_of(pid);
                    // The basic statement is the tape, one lane wide.
                    let regs = &mut self.scratch.regs;
                    if links.is_empty() {
                        // No communications: run the whole repeater
                        // locally (zero sets, matching `step_into`).
                        let locals = &mut self.locals[span(r.locals)];
                        let (x, incr) = point(module, pid, r.x, &mut self.x);
                        while r.t < count as i64 {
                            module.kernel.run(regs, locals, x, 1);
                            advance(&mut r.t, x, incr);
                        }
                        continue;
                    }
                    debug_assert!(links.len() <= 64, "batch gate admits at most 64 links");
                    let full: u64 = if links.len() == 64 {
                        u64::MAX
                    } else {
                        (1u64 << links.len()) - 1
                    };
                    // One state transition per dispatch; the par-sets
                    // complete piecewise (see [`MacroState`]).
                    match r.state {
                        MacroState::Ready => {
                            // Steady-state loop summarization (see
                            // `crate::opt`): when every moving link can
                            // pop *and* push right now, retire whole
                            // receive/body/send iterations in a tight
                            // loop, skipping the piecewise masks. Stats
                            // are identical to the mask path: one step
                            // per completed par-set, one message per
                            // pushed value. Requires pairwise-distinct
                            // rings per direction — the availability
                            // check is per-ring, not per-slot.
                            let distinct = links.iter().enumerate().all(|(i, a)| {
                                links[..i].iter().all(|b| a.inp != b.inp && a.out != b.out)
                            });
                            let ready = |rings: &Rings| {
                                let open = |mc: &MovingLink| {
                                    rings.len(mc.inp) > 0 && rings.free(mc.out) > 0
                                };
                                links.iter().all(open)
                            };
                            if distinct && ready(rings) {
                                let locals = &mut self.locals[span(r.locals)];
                                let (x, incr) = point(module, pid, r.x, &mut self.x);
                                loop {
                                    for mc in links {
                                        locals[mc.slot as usize] =
                                            rings.pop(mc.inp).expect("availability checked above");
                                    }
                                    *moved += links.len() as u64;
                                    stats.steps += 1; // the par-receive set
                                    module.kernel.run(regs, locals, x, 1);
                                    for mc in links {
                                        let pushed = rings.push(mc.out, locals[mc.slot as usize]);
                                        assert!(pushed, "availability checked above");
                                    }
                                    stats.messages += links.len() as u64;
                                    *moved += links.len() as u64;
                                    stats.steps += 1; // the par-send set
                                    advance(&mut r.t, x, incr);
                                    if r.t >= count as i64 || !ready(rings) {
                                        break;
                                    }
                                }
                            }
                            if r.t >= count as i64 {
                                continue; // the top of the loop advances pc
                            }
                            r.state = MacroState::ComputeRecv { mask: 0 };
                        }
                        MacroState::ComputeRecv { mut mask } => {
                            for (i, mc) in links.iter().enumerate() {
                                if mask & (1 << i) != 0 {
                                    continue;
                                }
                                if let Some(v) = rings.pop(mc.inp) {
                                    self.locals[span(r.locals)][mc.slot as usize] = v;
                                    mask |= 1 << i;
                                    *moved += 1;
                                }
                            }
                            if mask != full {
                                r.state = MacroState::ComputeRecv { mask };
                                return false;
                            }
                            stats.steps += 1; // the par-receive set
                            let (x, _) = point(module, pid, r.x, &mut self.x);
                            module
                                .kernel
                                .run(regs, &mut self.locals[span(r.locals)], x, 1);
                            r.state = MacroState::ComputeSend { mask: 0 };
                        }
                        MacroState::ComputeSend { mut mask } => {
                            for (i, mc) in links.iter().enumerate() {
                                if mask & (1 << i) != 0 {
                                    continue;
                                }
                                if rings.free(mc.out) > 0
                                    && rings
                                        .push(mc.out, self.locals[span(r.locals)][mc.slot as usize])
                                {
                                    mask |= 1 << i;
                                    stats.messages += 1;
                                    *moved += 1;
                                }
                            }
                            if mask != full {
                                r.state = MacroState::ComputeSend { mask };
                                return false;
                            }
                            stats.steps += 1; // the par-send set
                            let (x, incr) = point(module, pid, r.x, &mut self.x);
                            advance(&mut r.t, x, incr);
                            r.state = MacroState::Ready;
                        }
                        MacroState::PassHeld(_) => {
                            unreachable!("PassHeld at a Compute op")
                        }
                    }
                }
            }
        }
    }

    /// How `pid` is currently blocked, as the same `send@c` / `recv@c`
    /// wait description the cooperative engine's deadlock reports use;
    /// `None` once the process has finished.
    pub(crate) fn macro_wait(&self, module: &ProcIrModule, pid: ProcId) -> Option<String> {
        let r = &self.regs[pid];
        if self.done[pid] || r.pc >= module.procs[pid].ops.1 {
            return None;
        }
        Some(match module.ops[r.pc as usize] {
            ProcOp::Emit { chan } => format!("send@{chan}"),
            ProcOp::Collect { chan } | ProcOp::Keep { chan, .. } => format!("recv@{chan}"),
            ProcOp::Eject { chan, .. } => format!("send@{chan}"),
            ProcOp::Pass { inp, out, .. } => match r.state {
                MacroState::PassHeld(_) => format!("send@{out}"),
                _ => format!("recv@{inp}"),
            },
            ProcOp::Compute { .. } => {
                let links = module.moving_of(pid);
                let missing = |mask: u64| (0..links.len()).find(|i| mask & (1 << i) == 0);
                match r.state {
                    MacroState::ComputeSend { mask } => {
                        format!("send@{}", links[missing(mask).unwrap_or(0)].out)
                    }
                    MacroState::ComputeRecv { mask } => {
                        format!("recv@{}", links[missing(mask).unwrap_or(0)].inp)
                    }
                    _ => match links.first() {
                        Some(mc) => format!("recv@{}", mc.inp),
                        None => "idle".into(),
                    },
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procir::ProcIrBuilder;

    #[test]
    fn rings_are_bounded_fifos_that_wrap_inside_their_own_span() {
        let mut rings = Rings::default();
        rings.reset(&[3, 0, 2]);
        assert_eq!((rings.free(0), rings.free(1), rings.free(2)), (3, 1, 2));
        assert!(
            rings.push(1, 70) && !rings.push(1, 71),
            "capacity 0 means 1"
        );
        assert!(rings.push(2, 90));
        for v in [1, 2, 3] {
            assert!(rings.push(0, v));
        }
        assert!(
            rings.free(0) == 0 && !rings.push(0, 4),
            "a full ring refuses"
        );
        assert_eq!((rings.pop(0), rings.pop(0)), (Some(1), Some(2)));
        // Head at slot 2 of 3: both bulk moves straddle the wrap.
        rings.push_many(0, &[4, 5]);
        assert_eq!((rings.len(0), rings.free(0)), (3, 0));
        let mut got = [0; 3];
        rings.pop_many(0, &mut got);
        assert_eq!(got, [3, 4, 5]);
        assert!(rings.len(0) == 0 && rings.pop(0).is_none());
        // The neighbours' spans were never touched.
        assert_eq!((rings.pop(1), rings.pop(2)), (Some(70), Some(90)));
    }

    /// Ring `chan`, empty, with its head turned to slot `head`, then
    /// `vals` pushed.
    fn seat(rings: &mut Rings, chan: ChanId, head: usize, vals: &[Value]) {
        for _ in 0..head {
            assert!(rings.push(chan, 0));
            assert_eq!(rings.pop(chan), Some(0));
        }
        rings.push_many(chan, vals);
    }

    /// Everything in flight on `chan`, one pop at a time.
    fn drain(rings: &mut Rings, chan: ChanId) -> Vec<Value> {
        std::iter::from_fn(|| rings.pop(chan)).collect()
    }

    #[test]
    fn transfer_moves_a_slice_across_either_wrap() {
        // (source head, destination head, destination occupancy, k), on
        // a full source and a destination of capacity 5 each.
        for (sh, dh, dl, k) in [
            (3, 0, 0, 4), // the source wraps
            (0, 3, 0, 4), // the destination wraps
            (3, 1, 1, 4), // both wrap, at different points
            (2, 2, 1, 0), // nothing to move
            (4, 1, 0, 5), // a whole ring
        ] {
            let ctx = format!("source head {sh}, destination {dh}+{dl}, k {k}");
            let mut rings = Rings::default();
            rings.reset(&[2, 5, 5, 2]);
            rings.push_many(0, &[-1, -2]);
            rings.push_many(3, &[-3, -4]);
            seat(&mut rings, 1, sh, &[10, 11, 12, 13, 14]);
            let resident: Vec<Value> = (90..90 + dl as Value).collect();
            seat(&mut rings, 2, dh, &resident);
            rings.transfer(1, 2, k);
            assert_eq!((rings.len(1), rings.len(2)), (5 - k, dl + k), "{ctx}");
            let moved = 10..10 + k as Value;
            let expected: Vec<Value> = resident.iter().copied().chain(moved).collect();
            assert_eq!(drain(&mut rings, 2), expected, "{ctx}");
            let rest: Vec<Value> = (10 + k as Value..15).collect();
            assert_eq!(drain(&mut rings, 1), rest, "{ctx}");
            assert_eq!(drain(&mut rings, 0), [-1, -2], "{ctx}: left neighbour");
            assert_eq!(drain(&mut rings, 3), [-3, -4], "{ctx}: right neighbour");
        }
        // A pass from a ring into itself rotates it.
        let mut rings = Rings::default();
        rings.reset(&[5]);
        seat(&mut rings, 0, 3, &[1, 2, 3]);
        rings.transfer(0, 0, 2);
        assert_eq!(drain(&mut rings, 0), [3, 1, 2]);
    }

    #[test]
    fn pop_extend_appends_across_the_wrap_or_drops() {
        let mut rings = Rings::default();
        rings.reset(&[1, 4, 1]);
        assert!(rings.push(0, -1) && rings.push(2, -2));
        seat(&mut rings, 1, 3, &[5, 6, 7]);
        let mut out = vec![4];
        rings.pop_extend(1, 3, Some(&mut out));
        assert_eq!(out, [4, 5, 6, 7], "head at the last slot: the run wraps");
        assert_eq!(rings.len(1), 0);
        rings.push_many(1, &[8, 9, 10]);
        rings.pop_extend(1, 2, None);
        assert_eq!(drain(&mut rings, 1), [10], "a sink without an output drops");
        assert_eq!((rings.pop(0), rings.pop(2)), (Some(-1), Some(-2)));
    }

    #[test]
    fn reset_overwrites_whatever_a_run_left() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[4, 5, 6], "src");
        b.sink(0, 3, "sink");
        let m = b.build();
        let (mut arena, mut stats, mut moved) = (RunArena::default(), RunStats::default(), 0);
        arena.reset(&m, &[2]);
        // The source fills the ring and parks mid-script.
        assert!(!arena.macro_step_window(&m, 0, m.procs[0].ops, &mut stats, &mut moved));
        assert_eq!((moved, arena.rings.len(0)), (2, 2));
        assert_eq!(arena.macro_wait(&m, 0).as_deref(), Some("send@0"));
        arena.reset(&m, &[3]);
        assert!(arena.rings.len(0) == 0 && !arena.done[0]);
        for pid in [0, 1] {
            assert!(arena.macro_step_window(&m, pid, m.procs[pid].ops, &mut stats, &mut moved));
        }
        assert_eq!(arena.outputs, [[4, 5, 6]]);
    }
}
