//! ProcIR: the flat process bytecode — the single post-elaboration
//! representation of every virtual process.
//!
//! The paper's key structural fact is that generated systolic programs
//! have no data-dependent control flow: every process is a statically
//! determined trace of communications and computations (DESIGN.md §3).
//! ProcIR encodes that trace directly as a compact op list per process,
//! stored in one arena ([`ProcIrModule`]) indexed by [`ProcId`], with
//! channel endpoints already resolved to dense [`ChanId`]s at lowering
//! time. One op step (`crate::step`) gives the ops their meaning on every
//! engine — there is no per-executor (or per-role) process behaviour
//! anywhere else, and no second runtime form of a process: the
//! rendezvous engine (`crate::coop`) steps the module's processes over
//! their completed communication sets, the fast engine, the wavefront
//! executor, against the rings of its run arena (`crate::arena`); both
//! keep every process's state in that arena's flat tables.
//!
//! The op set covers the canonical program shape of Appendix C–E
//! (`load` / soak / repeater / drain / `recover`) plus the host fringe:
//!
//! - [`ProcOp::Emit`] — host injection: send the next scripted value;
//! - [`ProcOp::Collect`] — host extraction: receive into the output
//!   buffer;
//! - [`ProcOp::Keep`] — the keep of `load`: receive into a local;
//! - [`ProcOp::Pass`] — a bounded repetition (`Rep`) of one
//!   receive-forward cycle: `pass s, n`;
//! - [`ProcOp::Eject`] — the eject of `recover`: send a local;
//! - [`ProcOp::Compute`] — the repeater: `count` iterations of
//!   par-receive (`ParComm`), basic-statement execution, par-send.
//!
//! A module is immutable after lowering and carries no per-run state, so
//! an elaborated network is a cacheable, shareable artifact
//! (`Arc<ProcIrModule>`): a run of either engine resets the thread's run
//! arena to it. Its **code tables** (ops, moving links, repeater points,
//! process records) depend on the program and the problem size only and
//! are `Arc<[T]>`-shared; the **data segment** — the values the host's
//! input processes inject (Sec. 4.2) — is the one table that depends on
//! the host store, and [`ProcIrModule::with_data`] binds another one to
//! the same code. See `docs/process-ir.md` for the lowering rules and
//! the op step's invariants.

use crate::kernel::Kernel;
use crate::process::{ChanId, Value};
use std::sync::Arc;

/// Index of a process in its module's arena.
pub type ProcId = usize;

/// One op of the flat process bytecode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcOp {
    /// Send the next value of the process's data segment on `chan`
    /// (host-side injection of a stream partition, Sec. 4.2).
    Emit { chan: ChanId },
    /// Receive one value from `chan` into the process's output buffer
    /// (host-side extraction, Sec. 4.2).
    Collect { chan: ChanId },
    /// Receive one value from `chan` into local `slot` (the keep of
    /// `load`).
    Keep { chan: ChanId, slot: u32 },
    /// `n` receive(`inp`) → forward(`out`) cycles: `pass s, n`. This is
    /// the bounded `Rep` counter of the op set — it covers soak, drain,
    /// the load/recover passes, internal (fractional-flow) buffers, and
    /// external buffers alike. The count is `u64`: per-channel traffic
    /// sums feed the batch-width analysis (`crate::batch`), which must
    /// not overflow at large problem sizes.
    Pass { inp: ChanId, out: ChanId, n: u64 },
    /// Send local `slot` on `chan` (the eject of `recover`).
    Eject { chan: ChanId, slot: u32 },
    /// The repeater: `count` iterations of par-receive over the moving
    /// links, basic-statement execution at the current index point, and
    /// par-send (the `ParComm` pair of the paper's `par` construct).
    /// Moving links, first point, and increment come from the process
    /// record. `u64` for the same traffic-arithmetic reason as
    /// [`ProcOp::Pass`].
    Compute { count: u64 },
}

/// One moving stream's channel pair at a computation process, with the
/// local slot its values flow through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MovingLink {
    pub slot: u32,
    pub inp: ChanId,
    pub out: ChanId,
}

/// One process's record in the arena: ranges into the module-wide op,
/// data, moving-link, and point tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcRecord {
    /// Diagnostic label (deadlock reports, codegen comments).
    pub label: String,
    /// Op range in [`ProcIrModule::ops`].
    pub ops: (u32, u32),
    /// Data range in [`ProcIrModule::data`] ([`ProcOp::Emit`] scripts).
    pub data: (u32, u32),
    /// Moving-link range in [`ProcIrModule::moving`].
    pub moving: (u32, u32),
    /// Range in [`ProcIrModule::points`] holding `first` then
    /// `increment` (each `r` values) for [`ProcOp::Compute`].
    pub repeater: (u32, u32),
    /// Number of stream locals.
    pub n_locals: u32,
    /// Output-buffer index for [`ProcOp::Collect`], if this process
    /// extracts values.
    pub output: Option<u32>,
}

/// The arena of lowered processes: the single post-elaboration artifact
/// every executor and code generator consumes. Immutable and free of
/// per-run state — share it with `Arc` and run it as often as needed.
/// The code tables are `Arc<[T]>` (one indirection from the op step,
/// like the `Vec`s they replace) so that [`ProcIrModule::with_data`] is
/// a handful of reference-count bumps. The default is the empty module.
#[derive(Default)]
pub struct ProcIrModule {
    pub ops: Arc<[ProcOp]>,
    /// The data segment: every [`ProcOp::Emit`] script, in process order.
    /// The only table that depends on the host store.
    pub data: Vec<Value>,
    pub moving: Arc<[MovingLink]>,
    pub points: Arc<[i64]>,
    pub procs: Arc<[ProcRecord]>,
    /// Channel ids are dense: every `ChanId` in `ops`/`moving` is
    /// `< n_chans`.
    pub n_chans: usize,
    /// Number of output buffers a run fills.
    pub n_outputs: usize,
    /// The basic statement (identical at every computation process),
    /// compiled to the kernel tape every engine runs (`crate::kernel`);
    /// the empty tape for pure transport networks.
    pub kernel: Arc<Kernel>,
}

impl ProcIrModule {
    /// Structural equality over every arena table — everything except the
    /// kernel (two modules elaborated from the same plan share it by
    /// construction). This is the
    /// bit-identity relation the module store's re-instantiation test
    /// pins: same ops, data scripts, moving links, repeater points,
    /// process records, channel density, and output count.
    pub fn same_structure(&self, other: &ProcIrModule) -> bool {
        self.ops == other.ops
            && self.data == other.data
            && self.moving == other.moving
            && self.points == other.points
            && self.procs == other.procs
            && self.n_chans == other.n_chans
            && self.n_outputs == other.n_outputs
    }

    /// The same code over another data segment: what a run on new host
    /// data executes. `data` must have this module's segment layout
    /// (the process records' ranges index it).
    pub fn with_data(&self, data: Vec<Value>) -> Arc<ProcIrModule> {
        assert_eq!(data.len(), self.data.len(), "data segment layout");
        Arc::new(ProcIrModule {
            ops: self.ops.clone(),
            data,
            moving: self.moving.clone(),
            points: self.points.clone(),
            procs: self.procs.clone(),
            n_chans: self.n_chans,
            n_outputs: self.n_outputs,
            kernel: self.kernel.clone(),
        })
    }

    pub fn ops_of(&self, pid: ProcId) -> &[ProcOp] {
        let (a, b) = self.procs[pid].ops;
        &self.ops[a as usize..b as usize]
    }

    pub fn data_of(&self, pid: ProcId) -> &[Value] {
        let (a, b) = self.procs[pid].data;
        &self.data[a as usize..b as usize]
    }

    pub fn moving_of(&self, pid: ProcId) -> &[MovingLink] {
        let (a, b) = self.procs[pid].moving;
        &self.moving[a as usize..b as usize]
    }

    /// The repeater's first index point (empty when the process has no
    /// [`ProcOp::Compute`]).
    pub fn first_of(&self, pid: ProcId) -> &[i64] {
        let (a, b) = self.procs[pid].repeater;
        let half = (b - a) / 2;
        &self.points[a as usize..(a + half) as usize]
    }

    /// The repeater's per-iteration index increment.
    pub fn increment_of(&self, pid: ProcId) -> &[i64] {
        let (a, b) = self.procs[pid].repeater;
        let half = (b - a) / 2;
        &self.points[(a + half) as usize..b as usize]
    }

    pub fn label_of(&self, pid: ProcId) -> &str {
        &self.procs[pid].label
    }

    // Spelled by the frozen `benchmark/src/stages.rs:70`, whose
    // `inst.procs` hands the module to `Network::add`; goes with
    // ROADMAP 2(b).
    #[doc(hidden)]
    pub fn instantiate(self: &Arc<Self>) -> Instance {
        Instance {
            procs: [self.clone()],
        }
    }
}

// Spelled by the frozen `benchmark/src/stages.rs:70–74`; goes with ROADMAP 2(b).
#[doc(hidden)]
pub struct Instance {
    pub procs: [Arc<ProcIrModule>; 1],
}

/// Builds a [`ProcIrModule`]: open a process with [`ProcIrBuilder::begin`],
/// push ops, close it with [`ProcIrBuilder::finish`]. Convenience
/// constructors cover the host fringe and relay shapes.
#[derive(Default)]
pub struct ProcIrBuilder {
    ops: Vec<ProcOp>,
    data: Vec<Value>,
    moving: Vec<MovingLink>,
    points: Vec<i64>,
    procs: Vec<ProcRecord>,
    n_outputs: u32,
    open: Option<ProcRecord>,
    kernel: Arc<Kernel>,
    /// Channels `0..n_chans` exist whether or not an op names them.
    n_chans: usize,
}

impl ProcIrBuilder {
    pub fn new() -> ProcIrBuilder {
        ProcIrBuilder::default()
    }

    /// A builder with room for `procs` processes, `ops` ops and `data`
    /// scripted values, for callers that know the counts up front.
    pub fn with_capacity(procs: usize, ops: usize, data: usize) -> ProcIrBuilder {
        ProcIrBuilder {
            ops: Vec::with_capacity(ops),
            data: Vec::with_capacity(data),
            procs: Vec::with_capacity(procs),
            ..ProcIrBuilder::default()
        }
    }

    /// Channels `0..n` belong to the module even where no op names one:
    /// a zero-length pipe's channels carry nothing, yet a caller's
    /// per-channel tables index them.
    pub fn declare_chans(&mut self, n: usize) {
        self.n_chans = self.n_chans.max(n);
    }

    /// Open a new process. Ops pushed until [`ProcIrBuilder::finish`]
    /// belong to it.
    pub fn begin(&mut self, label: impl Into<String>) {
        assert!(self.open.is_none(), "finish the previous process first");
        let at = self.ops.len() as u32;
        self.open = Some(ProcRecord {
            label: label.into(),
            ops: (at, at),
            data: (self.data.len() as u32, self.data.len() as u32),
            moving: (self.moving.len() as u32, self.moving.len() as u32),
            repeater: (self.points.len() as u32, self.points.len() as u32),
            n_locals: 0,
            output: None,
        });
    }

    /// Append an op to the open process.
    pub fn op(&mut self, op: ProcOp) {
        assert!(self.open.is_some(), "no open process");
        if let ProcOp::Keep { slot, .. } | ProcOp::Eject { slot, .. } = op {
            let rec = self.open.as_mut().unwrap();
            rec.n_locals = rec.n_locals.max(slot + 1);
        }
        self.ops.push(op);
    }

    /// Append ops to the open process, in order.
    pub fn ops(&mut self, ops: impl IntoIterator<Item = ProcOp>) {
        for op in ops {
            self.op(op);
        }
    }

    /// Append an [`ProcOp::Emit`] with its scripted value.
    pub fn emit(&mut self, chan: ChanId, value: Value) {
        self.op(ProcOp::Emit { chan });
        self.data.push(value);
    }

    /// Append a [`ProcOp::Collect`], allocating the process's output
    /// buffer on first use. Returns the output index.
    pub fn collect(&mut self, chan: ChanId) -> u32 {
        self.op(ProcOp::Collect { chan });
        let rec = self.open.as_mut().unwrap();
        let id = *rec.output.get_or_insert_with(|| {
            let id = self.n_outputs;
            self.n_outputs += 1;
            id
        });
        id
    }

    /// Set the open process's repeater metadata: moving links, first
    /// index point, per-iteration increment, and local count (streams of
    /// the source program).
    pub fn repeater(
        &mut self,
        moving: &[MovingLink],
        first: &[i64],
        increment: &[i64],
        n_locals: u32,
    ) {
        assert_eq!(first.len(), increment.len(), "point ranks differ");
        let rec = self.open.as_mut().expect("no open process");
        rec.moving = (
            self.moving.len() as u32,
            (self.moving.len() + moving.len()) as u32,
        );
        self.moving.extend_from_slice(moving);
        rec.repeater = (
            self.points.len() as u32,
            (self.points.len() + 2 * first.len()) as u32,
        );
        self.points.extend_from_slice(first);
        self.points.extend_from_slice(increment);
        rec.n_locals = rec.n_locals.max(n_locals);
        for mc in moving {
            rec.n_locals = rec.n_locals.max(mc.slot + 1);
        }
    }

    /// Close the open process and return its id.
    pub fn finish(&mut self) -> ProcId {
        let mut rec = self.open.take().expect("no open process");
        rec.ops.1 = self.ops.len() as u32;
        rec.data.1 = self.data.len() as u32;
        self.procs.push(rec);
        self.procs.len() - 1
    }

    /// An input process: sends `values` on one channel, in order.
    pub fn source(&mut self, chan: ChanId, values: &[Value], label: impl Into<String>) -> ProcId {
        self.begin(label);
        for &v in values {
            self.emit(chan, v);
        }
        self.finish()
    }

    /// The merged host input: a script of (channel, value) sends
    /// (Sec. 4.2's "merged into fewer processes").
    pub fn scripted_source(
        &mut self,
        sends: &[(ChanId, Value)],
        label: impl Into<String>,
    ) -> ProcId {
        self.begin(label);
        for &(chan, v) in sends {
            self.emit(chan, v);
        }
        self.finish()
    }

    /// An output process: receives `count` values from one channel into
    /// a fresh output buffer. Returns (process, output index).
    pub fn sink(&mut self, chan: ChanId, count: usize, label: impl Into<String>) -> (ProcId, u32) {
        let out = self.new_output();
        let chans = std::iter::repeat_n(chan, count);
        (self.collector(chans, out, label), out)
    }

    /// An output process receiving `count` values from one channel into
    /// the existing output buffer `out`: sinks that share a buffer fill
    /// it in the order the engine steps them.
    pub fn sink_into(
        &mut self,
        chan: ChanId,
        count: usize,
        out: u32,
        label: impl Into<String>,
    ) -> ProcId {
        assert!(out < self.n_outputs, "no output buffer {out}");
        self.collector(std::iter::repeat_n(chan, count), out, label)
    }

    /// The merged host output: receives from `chans` in order into one
    /// buffer.
    pub fn scripted_sink(&mut self, chans: &[ChanId], label: impl Into<String>) -> (ProcId, u32) {
        let out = self.new_output();
        (self.collector(chans.iter().copied(), out, label), out)
    }

    fn new_output(&mut self) -> u32 {
        self.n_outputs += 1;
        self.n_outputs - 1
    }

    /// A process collecting from `chans` in order into output `out`
    /// (bound even when `chans` is empty: a zero-length pipe still has
    /// its buffer).
    fn collector(
        &mut self,
        chans: impl IntoIterator<Item = ChanId>,
        out: u32,
        label: impl Into<String>,
    ) -> ProcId {
        self.begin(label);
        self.open.as_mut().unwrap().output = Some(out);
        for chan in chans {
            self.collect(chan);
        }
        self.finish()
    }

    /// A buffer process: `n` receive-forward cycles (`pass s, n` — the
    /// internal buffers of Sec. 7.6 and the external buffers of
    /// `PS \ CS`); the one-segment [`ProcIrBuilder::segment_relay`].
    pub fn relay(
        &mut self,
        inp: ChanId,
        out: ChanId,
        n: usize,
        label: impl Into<String>,
    ) -> ProcId {
        self.segment_relay(&[(inp, out, n)], label)
    }

    /// A relay forwarding consecutive *segments*, each with its own
    /// channel pair and count (the split-propagation escorts). A segment
    /// of count 0 has nothing to run and lowers to no op, so the relay of
    /// a zero-length pipe is a process without ops.
    pub fn segment_relay(
        &mut self,
        segments: &[(ChanId, ChanId, usize)],
        label: impl Into<String>,
    ) -> ProcId {
        self.begin(label);
        for &(inp, out, n) in segments {
            if n == 0 {
                continue;
            }
            self.op(ProcOp::Pass {
                inp,
                out,
                n: n as u64,
            });
        }
        self.finish()
    }

    /// Attach the basic statement, compiled to its kernel tape, before
    /// sealing. A module built without one is a transport network: its
    /// repeaters, if any, move values and compute nothing.
    pub fn set_kernel(&mut self, kernel: Arc<Kernel>) {
        self.kernel = kernel;
    }

    /// Seal the module. Channel density (`n_chans`) is derived from the
    /// ops and moving links, and covers every declared channel.
    pub fn build(self) -> Arc<ProcIrModule> {
        assert!(self.open.is_none(), "unfinished process at build");
        let mut n_chans = self.n_chans;
        let mut see = |c: ChanId| n_chans = n_chans.max(c + 1);
        for op in &self.ops {
            match *op {
                ProcOp::Emit { chan }
                | ProcOp::Collect { chan }
                | ProcOp::Keep { chan, .. }
                | ProcOp::Eject { chan, .. } => see(chan),
                ProcOp::Pass { inp, out, .. } => {
                    see(inp);
                    see(out);
                }
                ProcOp::Compute { .. } => {}
            }
        }
        for mc in &self.moving {
            see(mc.inp);
            see(mc.out);
        }
        Arc::new(ProcIrModule {
            ops: self.ops.into(),
            data: self.data,
            moving: self.moving.into(),
            points: self.points.into(),
            procs: self.procs.into(),
            n_chans,
            n_outputs: self.n_outputs as usize,
            kernel: self.kernel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coop::{Network, RunStats};
    use crate::kernel::KernelOp;
    use crate::process::CommReq;
    use crate::step::{blocked_on, step_window, Completed, ProcView, Regs};

    /// The one process of a one-process module, stepped by hand as the
    /// rendezvous engine steps it: the op step over the set it blocked
    /// on, now complete, then the set it blocks on next (empty once it
    /// has finished).
    struct Stepper {
        module: Arc<ProcIrModule>,
        regs: Regs,
        issued: usize,
        locals: Vec<Value>,
        x: Vec<i64>,
        tape: Vec<Value>,
        out: Vec<Value>,
    }

    impl Stepper {
        fn step(&mut self, received: &[Value]) -> Vec<CommReq> {
            let m = &*self.module;
            let mut port = Completed::new(self.issued, received);
            let p = ProcView {
                regs: &mut self.regs,
                locals: &mut self.locals,
                x: &mut self.x,
                tape: &mut self.tape,
                out: Some(&mut self.out),
                recorders: &[],
            };
            let (mut stats, mut moved) = (RunStats::default(), 0);
            let mut set = Vec::new();
            let ops = m.procs[0].ops;
            if !step_window::<_, false>(m, 0, ops, p, &mut port, &mut stats, &mut moved) {
                blocked_on(m, 0, &self.regs, &self.locals, &mut set);
            }
            assert!(port.consumed(), "a step retires the whole completed set");
            self.issued = set.len();
            set
        }
    }

    fn vm_of(build: impl FnOnce(&mut ProcIrBuilder)) -> Stepper {
        let mut b = ProcIrBuilder::new();
        build(&mut b);
        let module = b.build();
        assert_eq!(module.procs.len(), 1);
        Stepper {
            regs: Regs::start(&module, 0, 0, 0),
            issued: 0,
            locals: vec![0; module.procs[0].n_locals as usize],
            x: module.first_of(0).to_vec(),
            tape: vec![0; module.kernel.ops.len()],
            out: Vec::new(),
            module,
        }
    }

    #[test]
    fn source_emits_in_order() {
        let mut s = vm_of(|b| {
            b.source(0, &[1, 2], "src");
        });
        assert_eq!(s.step(&[]), vec![CommReq::Send { chan: 0, value: 1 }]);
        assert_eq!(s.step(&[]), vec![CommReq::Send { chan: 0, value: 2 }]);
        assert!(s.step(&[]).is_empty());
    }

    #[test]
    fn sink_collects() {
        let mut s = vm_of(|b| {
            b.sink(3, 2, "sink");
        });
        assert_eq!(s.step(&[]), vec![CommReq::Recv { chan: 3 }]);
        assert_eq!(s.step(&[10]), vec![CommReq::Recv { chan: 3 }]);
        assert!(s.step(&[20]).is_empty());
        assert_eq!(s.out, vec![10, 20]);
    }

    #[test]
    fn relay_alternates_recv_send() {
        let mut r = vm_of(|b| {
            b.relay(0, 1, 2, "relay");
        });
        assert_eq!(r.step(&[]), vec![CommReq::Recv { chan: 0 }]);
        assert_eq!(r.step(&[7]), vec![CommReq::Send { chan: 1, value: 7 }]);
        assert_eq!(r.step(&[]), vec![CommReq::Recv { chan: 0 }]);
        assert_eq!(r.step(&[8]), vec![CommReq::Send { chan: 1, value: 8 }]);
        assert!(r.step(&[]).is_empty());
    }

    #[test]
    fn segment_relay_switches_channels() {
        // Segments: 2 from chan 0 -> 10, 1 from chan 1 -> 11, skip a
        // zero segment, 1 from chan 0 -> 10.
        let mut r = vm_of(|b| {
            b.segment_relay(&[(0, 10, 2), (1, 11, 1), (2, 12, 0), (0, 10, 1)], "seg");
        });
        assert_eq!(r.step(&[]), vec![CommReq::Recv { chan: 0 }]);
        assert_eq!(r.step(&[5]), vec![CommReq::Send { chan: 10, value: 5 }]);
        assert_eq!(r.step(&[]), vec![CommReq::Recv { chan: 0 }]);
        assert_eq!(r.step(&[6]), vec![CommReq::Send { chan: 10, value: 6 }]);
        assert_eq!(r.step(&[]), vec![CommReq::Recv { chan: 1 }]);
        assert_eq!(r.step(&[7]), vec![CommReq::Send { chan: 11, value: 7 }]);
        assert_eq!(
            r.step(&[]),
            vec![CommReq::Recv { chan: 0 }],
            "zero segment skipped"
        );
        assert_eq!(r.step(&[8]), vec![CommReq::Send { chan: 10, value: 8 }]);
        assert!(r.step(&[]).is_empty());
    }

    /// A zero-length pipe's relay has nothing to run: one lowering for
    /// `relay` and `segment_relay`, and no op for a count of 0. Its
    /// channels still count when declared.
    #[test]
    fn a_zero_count_relay_is_a_process_without_ops() {
        let mut b = ProcIrBuilder::new();
        let empty = b.relay(0, 1, 0, "empty");
        let one = b.relay(2, 3, 1, "one");
        let seg = b.segment_relay(&[(2, 3, 1)], "seg");
        b.declare_chans(5);
        let m = b.build();
        assert!(m.ops_of(empty).is_empty());
        assert_eq!(m.ops_of(one), m.ops_of(seg));
        assert_eq!(m.n_chans, 5, "declared channels count without an op");
    }

    #[test]
    fn scripted_source_and_sink_round_robin() {
        let mut src = vm_of(|b| {
            b.scripted_source(&[(0, 10), (1, 20), (0, 11)], "host-in");
        });
        assert_eq!(src.step(&[]), vec![CommReq::Send { chan: 0, value: 10 }]);
        assert_eq!(src.step(&[]), vec![CommReq::Send { chan: 1, value: 20 }]);
        assert_eq!(src.step(&[]), vec![CommReq::Send { chan: 0, value: 11 }]);
        assert!(src.step(&[]).is_empty());

        let mut sink = vm_of(|b| {
            b.scripted_sink(&[2, 3, 2], "host-out");
        });
        assert_eq!(sink.step(&[]), vec![CommReq::Recv { chan: 2 }]);
        assert_eq!(sink.step(&[5]), vec![CommReq::Recv { chan: 3 }]);
        assert_eq!(sink.step(&[6]), vec![CommReq::Recv { chan: 2 }]);
        assert!(sink.step(&[7]).is_empty());
        assert_eq!(sink.out, vec![5, 6, 7]);
    }

    #[test]
    fn module_is_reinstantiable() {
        // Two runs of one module run independently.
        let mut b = ProcIrBuilder::new();
        b.source(0, &[4, 5], "src");
        b.sink(0, 2, "sink");
        let module = b.build();
        for _ in 0..2 {
            let (_, outs) = Network::of(&module).run_with_outputs().unwrap();
            assert_eq!(outs[0], vec![4, 5]);
        }
    }

    #[test]
    fn compute_repeater_runs_body() {
        // One computation process: c := c + a (a moving on 0 -> 1,
        // c kept then ejected on 2 -> 3), over 3 iterations.
        let mut b = ProcIrBuilder::new();
        b.begin("comp");
        b.op(ProcOp::Keep { chan: 2, slot: 1 });
        b.op(ProcOp::Compute { count: 3 });
        b.op(ProcOp::Eject { chan: 3, slot: 1 });
        b.repeater(
            &[MovingLink {
                slot: 0,
                inp: 0,
                out: 1,
            }],
            &[0],
            &[1],
            2,
        );
        b.finish();
        b.source(0, &[2, 3, 4], "a-in");
        b.source(2, &[10], "c-in");
        b.sink(1, 3, "a-out");
        b.sink(3, 1, "c-out");
        b.set_kernel(Arc::new(Kernel {
            ops: vec![KernelOp::Slot(1), KernelOp::Slot(0), KernelOp::Add(0, 1)],
            writes: vec![(1, 2)],
            n_slots: 2,
            n_dims: 0,
        }));
        let (_, outs) = Network::of(&b.build()).run_with_outputs().unwrap();
        assert_eq!(outs[0], vec![2, 3, 4], "a passes through");
        assert_eq!(outs[1], vec![10 + 2 + 3 + 4]);
    }

    #[test]
    fn soak_compute_drain_uses_only_the_count_window() {
        // A pipe of 4 values on a moving stream; the cell soaks 1,
        // computes over 2, drains 1 — only the middle two reach the
        // basic statement, and the index point advances per iteration.
        let mut b = ProcIrBuilder::new();
        b.begin("comp");
        b.op(ProcOp::Keep { chan: 2, slot: 1 });
        b.op(ProcOp::Pass {
            inp: 0,
            out: 1,
            n: 1,
        }); // soak
        b.op(ProcOp::Compute { count: 2 });
        b.op(ProcOp::Pass {
            inp: 0,
            out: 1,
            n: 1,
        }); // drain
        b.op(ProcOp::Eject { chan: 3, slot: 1 });
        b.repeater(
            &[MovingLink {
                slot: 0,
                inp: 0,
                out: 1,
            }],
            &[5],
            &[1],
            2,
        );
        b.finish();
        b.source(0, &[100, 2, 3, 100], "a-in");
        b.source(2, &[0], "c-in");
        b.sink(1, 4, "a-out");
        b.sink(3, 1, "c-out");
        b.set_kernel(Arc::new(Kernel {
            ops: vec![
                KernelOp::Slot(1),
                KernelOp::Slot(0),
                KernelOp::Index(0),
                KernelOp::Mul(1, 2),
                KernelOp::Add(0, 3),
            ],
            writes: vec![(1, 4)],
            n_slots: 2,
            n_dims: 1,
        }));
        let (_, outs) = Network::of(&b.build()).run_with_outputs().unwrap();
        assert_eq!(outs[0], vec![100, 2, 3, 100], "FIFO order");
        // Iterations see x = 5 then 6: 2*5 + 3*6 = 28.
        assert_eq!(outs[1], vec![28]);
    }
}
