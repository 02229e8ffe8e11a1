//! The run arena: everything a run mutates, in flat tables.
//!
//! The paper's process is a handful of scalars plus one local per stream
//! (Sec. 4), and its channels carry a number of values the derivation
//! knows in advance — so the whole mutable state of a run is a
//! fixed-size block known when the module is built. Both engines keep
//! it as one — the fast engine (`run_wavefront`) all of it, the
//! rendezvous engine (`crate::coop`, whose channels hold no values) all
//! but the rings:
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
//!   the kernel path's struct-of-arrays scratch and a scheduled cycle's
//!   value array.
//!
//! [`with_arena`] lends the thread's arena to a run and
//! [`RunArena::reset`] overwrites every table for this run's module in
//! O(processes + channels): nothing is keyed by module, so a rotation of
//! designs reuses the same few vectors as well as a repeated one does,
//! and a run that deadlocked, errored or unwound leaves nothing the next
//! `reset` does not overwrite (an unwound run never hands the arena
//! back; the next one starts from an empty arena and grows it again).
//!
//! The fast engine's visit to a process, [`RunArena::macro_step_window`],
//! is the one op step (`crate::step`, which the rendezvous engine runs
//! over its completed sets) run against the rings: it retires as many
//! ops of one process as the rings allow, without returning to the
//! engine (see `crate::batch` and `docs/scheduler.md`). The rings override the step's slice methods,
//! so transport moves slices, not values: a `Pass` moves as many values
//! as its count and both rings allow with one [`Port::transfer`], and a
//! run of identical `Emit`s (`Collect`s) at the pc is one
//! [`Port::push_many`] ([`Port::pop_extend`]); the statistics are still
//! per value, added as products. The arena adds only what the engine
//! owns: the finished flags, the terminal step and the deadlock report.

use crate::coop::{blocked_line, Deadlock, RunStats};
use crate::kernel::KernelScratch;
use crate::process::{ChanId, Value};
use crate::procir::{ProcId, ProcIrModule};
use crate::step::{blocked_on, step_window, Port, ProcView, Regs};
use crate::wavefront::WaveState;
use std::mem::size_of;

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

    /// Pop `dst.len()` values in FIFO order into `dst`. The caller must
    /// have checked occupancy ([`Port::len`]) — the kernel path's one
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
}

impl Port for Rings {
    /// Values in flight on `chan`.
    #[inline]
    fn len(&self, chan: ChanId) -> usize {
        self.ring[chan].len as usize
    }

    /// Free slots of `chan`.
    #[inline]
    fn free(&self, chan: ChanId) -> usize {
        let r = &self.ring[chan];
        (r.cap - r.len) as usize
    }

    /// Push a value unless the ring is full; whether it was pushed.
    #[inline]
    fn push(&mut self, chan: ChanId, v: Value) -> bool {
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
    fn pop(&mut self, chan: ChanId) -> Option<Value> {
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

    /// Push all of `vals` in order; the caller must have checked
    /// [`Port::free`].
    #[inline]
    fn push_many(&mut self, chan: ChanId, vals: &[Value]) {
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
    /// when there is none; the caller must have checked [`Port::len`].
    #[inline]
    fn pop_extend(&mut self, chan: ChanId, m: usize, dst: Option<&mut Vec<Value>>) {
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
    fn transfer(&mut self, from: ChanId, to: ChanId, k: usize) {
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
    pub(crate) done: Vec<bool>,
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
        self.reset_procs(module);
        self.rings.reset(caps);
    }

    /// [`RunArena::reset`] less the rings: the per-process tables, what
    /// the rendezvous engine, whose channels hold no values, runs on.
    pub(crate) fn reset_procs(&mut self, module: &ProcIrModule) {
        self.regs.clear();
        self.done.clear();
        self.done.resize(module.procs.len(), false);
        self.x.clear();
        self.outputs.clear();
        self.outputs.resize_with(module.n_outputs, Vec::new);
        let mut n_locals = 0usize;
        for (pid, rec) in module.procs.iter().enumerate() {
            let x = self.x.len() as u32;
            self.regs.push(Regs::start(module, pid, n_locals as u32, x));
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

    /// One visit to the ops `start..end` of process `pid` (one node of
    /// the wavefront plan): [`step_window`] against the rings. Once the
    /// pc has left the window it returns `true`, now and on every later
    /// call, having accounted the terminal step if `end` is the process's
    /// own.
    pub(crate) fn macro_step_window(
        &mut self,
        module: &ProcIrModule,
        pid: ProcId,
        (start, end): (u32, u32),
        stats: &mut RunStats,
        moved: &mut u64,
    ) -> bool {
        if self.done[pid] {
            return true;
        }
        let rec = &module.procs[pid];
        let p = ProcView {
            regs: &mut self.regs[pid],
            locals: &mut self.locals,
            x: &mut self.x,
            tape: &mut self.scratch.regs,
            out: rec.output.map(|o| &mut self.outputs[o as usize]),
            recorders: &[],
        };
        let window = (start, end);
        if !step_window::<_, false>(module, pid, window, p, &mut self.rings, stats, moved) {
            return false;
        }
        if end == rec.ops.1 {
            stats.steps += 1;
            self.done[pid] = true;
        }
        true
    }

    /// Every unfinished process and the set it waits on ([`blocked_on`]).
    pub(crate) fn deadlock(&self, module: &ProcIrModule) -> Deadlock {
        let mut set = Vec::new();
        let blocked = (0..module.procs.len()).filter(|&pid| !self.done[pid]);
        let blocked = blocked.map(|pid| {
            set.clear();
            blocked_on(module, pid, &self.regs[pid], &self.locals, &mut set);
            blocked_line(module.label_of(pid), set.iter())
        });
        Deadlock {
            blocked: blocked.collect(),
        }
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
        assert_eq!(
            arena.deadlock(&m).blocked,
            ["src [send@0]", "sink [recv@0]"]
        );
        arena.reset(&m, &[3]);
        assert!(arena.rings.len(0) == 0 && !arena.done[0]);
        for pid in [0, 1] {
            assert!(arena.macro_step_window(&m, pid, m.procs[pid].ops, &mut stats, &mut moved));
        }
        assert_eq!(arena.outputs, [[4, 5, 6]]);
    }
}
