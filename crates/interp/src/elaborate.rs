//! Elaboration: instantiate a symbolic [`SystolicProgram`] at a concrete
//! problem size, lowering every virtual process — computation, relay
//! buffer, host source/sink — to the flat [`ProcIR`](ProcIrModule)
//! bytecode shared by all executors and code generators.
//!
//! This module holds the types every consumer of an elaboration shares
//! (options, errors, census, the [`Elaborated`] result) and the uncached
//! entry point [`elaborate`]. The construction itself — the one place a
//! plan becomes channels and processes — is
//! [`crate::skeleton::instantiate`], which documents the channel
//! discipline and the process shapes.
//!
//! The result is an immutable [`Arc<ProcIrModule>`]: per-run state lives
//! in the VMs that [`ProcIrModule::instantiate`] builds, and the input
//! values are gathered per run through [`Elaborated::host_words`], so one
//! elaboration backs every run of its (program, size), whatever the
//! data. The lowering rules (which ops each process shape compiles to)
//! are documented in `docs/process-ir.md`.

use std::fmt;
use std::sync::Arc;
use systolic_core::SystolicProgram;
use systolic_ir::HostStore;
use systolic_math::{point, Env};
use systolic_runtime::{BatchPlan, ChanId, ProcId, ProcIrModule, Value};

/// Census of the elaborated network, for reports and experiments.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Census {
    pub computation: usize,
    /// Splitter/merger escort processes (split-propagation protocol).
    pub escorts: usize,
    /// Null processes of `PS \ CS` (external buffers), counted per stream.
    pub external_buffers: usize,
    /// Internal (fractional-flow) relay buffers.
    pub internal_buffers: usize,
    pub inputs: usize,
    pub outputs: usize,
    pub channels: usize,
}

/// Options controlling elaboration (ablation hooks and protocol
/// variants). Part of the module-cache key (`crate::cache`): every
/// variant elaborates a structurally different network.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ElabOptions {
    /// Insert the `d - 1` internal buffers fractional flows require
    /// (Sec. 7.6). Disabling demonstrates the timing effect.
    pub internal_buffers: bool,
    /// Use the *split propagation* protocol: soaking and draining of
    /// moving streams run in per-stream escort processes
    /// (splitter/merger pairs) instead of sequential phases inside the
    /// computation process. The paper's phase protocol "is only one of
    /// many possible choices" (Sec. 4.2) and is not deadlock-free for
    /// every valid design (two streams sharing an index map couple the
    /// phases against the repeater's par-sends — found by fuzzing);
    /// splitting removes the cross-stream coupling.
    pub split_propagation: bool,
    /// Merge the per-pipe i/o processes of each stream into a single host
    /// input and a single host output process, feeding/draining the pipes
    /// in round-robin element order — the optimization the paper defers
    /// ("at a later stage, these may be merged into fewer processes",
    /// Sec. 4.2).
    pub merge_io: bool,
}

impl Default for ElabOptions {
    fn default() -> ElabOptions {
        ElabOptions {
            internal_buffers: true,
            split_propagation: false,
            merge_io: false,
        }
    }
}

/// Elaboration failure: the plan's symbolic stream layout does not
/// instantiate cleanly at this problem size / host store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ElabError {
    /// `last_s - first_s` is not a multiple of `increment_s` at a pipe
    /// head: the pipe's element walk does not close.
    MisalignedPipe { stream: String, head: Vec<i64> },
    /// `last_s` precedes `first_s` along `increment_s`.
    ReversedPipe { stream: String, head: Vec<i64> },
    /// A stream names a variable absent from the host store.
    MissingVariable { variable: String },
    /// A pipe element falls outside its variable's array bounds.
    ElementOutOfBounds { variable: String, element: Vec<i64> },
    /// The process at `point` handles `handled` elements of a stream
    /// whose pipe holds `pipe` (soak + count + drain for a moving
    /// stream, 1 + drain + soak for a stationary one): the pipe's
    /// traffic would not balance.
    UnbalancedPipe {
        stream: String,
        point: Vec<i64>,
        handled: usize,
        pipe: usize,
    },
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElabError::MisalignedPipe { stream, head } => write!(
                f,
                "stream {stream}: pipe at {} has ends not aligned with increment_s",
                point::fmt_point(head)
            ),
            ElabError::ReversedPipe { stream, head } => write!(
                f,
                "stream {stream}: pipe at {} has last_s preceding first_s",
                point::fmt_point(head)
            ),
            ElabError::MissingVariable { variable } => {
                write!(f, "no host array named {variable}")
            }
            ElabError::ElementOutOfBounds { variable, element } => write!(
                f,
                "element {} outside the bounds of host array {variable}",
                point::fmt_point(element)
            ),
            ElabError::UnbalancedPipe {
                stream,
                point: at,
                handled,
                pipe,
            } => write!(
                f,
                "stream {stream}: the process at {} handles {handled} of its pipe's {pipe} elements",
                point::fmt_point(at)
            ),
        }
    }
}

impl std::error::Error for ElabError {}

/// One output buffer of the network and the words of the host store that
/// travel through its pipe. A pipe's input process injects exactly the
/// elements its output process restores, in the same order (Sec. 4.2), so
/// one range of one table ([`Elaborated::host_words`]) says both where
/// the pipe's share of the data segment is gathered from and where its
/// output buffer is written back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputSpec {
    pub variable: String,
    /// Index into the output buffers a run returns.
    pub output: u32,
    /// This buffer's range of [`Elaborated::host_words`], in arrival
    /// order — equally the range of the module's data segment its input
    /// process emits.
    pub words: (u32, u32),
}

/// The elaborated network: the lowered module plus the host-side maps
/// needed to seed and read back a run.
pub struct Elaborated {
    /// The code, over the data segment of the store that instantiated
    /// it. [`Elaborated::gather`] + [`ProcIrModule::with_data`] run the
    /// same code on another store of that shape.
    pub module: Arc<ProcIrModule>,
    pub outputs: Vec<OutputSpec>,
    /// For every word of the module's data segment, its position in
    /// [`systolic_ir::HostArray::raw`] of the variable the covering
    /// [`OutputSpec`] names. A function of the program, the size and the
    /// store's *shape* — never of a value.
    pub host_words: Vec<u32>,
    pub census: Census,
    /// Per (stream index, process-space point): the channel into and out
    /// of the process at that point — the map behind `s_chan[y]`
    /// (Appendix C). Used by the space-time tracer.
    pub endpoints: Endpoints,
    /// Per channel: its one producer, its one consumer and its traffic,
    /// recorded as the channel is allocated (`systolic_runtime::batch`
    /// states the law and holds these to the ops).
    pub channels: BatchPlan,
    /// Why the fast engine cannot run this program, when it has more
    /// moving streams than a par-set mask has links
    /// ([`systolic_runtime::MAX_MOVING_LINKS`]): a fact of the program,
    /// decided once per skeleton.
    pub wide: Option<String>,
    /// The computation processes, CS point by CS point in row-major
    /// order: `comp_coords` holds each point's coordinates back to back.
    pub(crate) comp_coords: Vec<i64>,
    pub(crate) comp_pids: Vec<ProcId>,
}

/// The channel pair at every (stream, process-space point), as flat rows
/// over the PS box rather than a point per entry.
pub struct Endpoints {
    pub(crate) ps: PsIndex,
    /// Stream ids in the plan's order; each is also its row.
    pub(crate) streams: Vec<usize>,
    /// `chans[stream id * ps.len() + PS offset]` = (in, out).
    pub(crate) chans: Vec<(ChanId, ChanId)>,
}

impl Endpoints {
    /// Entries: every stream at every PS point.
    pub fn len(&self) -> usize {
        self.streams.len() * self.ps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `f(stream id, point, in, out)` for every entry, stream by stream,
    /// points in row-major order.
    pub fn for_each(&self, mut f: impl FnMut(usize, &[i64], ChanId, ChanId)) {
        let volume = self.ps.len();
        for &sid in &self.streams {
            let row = &self.chans[sid * volume..(sid + 1) * volume];
            let mut walk = self.ps.walk();
            while let Some((at, y)) = walk.next() {
                let (ic, oc) = row[at];
                f(sid, y, ic, oc);
            }
        }
    }
}

impl Elaborated {
    /// The computation process lowered at each CS point, in row-major
    /// order, for consumers that align plan-derived shapes with the
    /// bytecode (`runtime_gen`).
    pub fn comp_at(&self) -> impl ExactSizeIterator<Item = (&[i64], ProcId)> + '_ {
        let dim = self.endpoints.ps.dim();
        let coords = &self.comp_coords;
        let at = move |k: usize| &coords[k * dim..(k + 1) * dim];
        self.comp_pids
            .iter()
            .enumerate()
            .map(move |(k, &pid)| (at(k), pid))
    }

    /// The host words of one output buffer, in arrival order.
    pub fn words_of(&self, out: &OutputSpec) -> &[u32] {
        &self.host_words[out.words.0 as usize..out.words.1 as usize]
    }

    /// The data segment of a run on `store`: what the host's input
    /// processes inject, read through the recorded offsets. `store` must
    /// have the shape of the store this network was instantiated from
    /// (the module cache keys on it), which makes every offset valid; a
    /// store without one of the variables is an error, not a panic.
    pub fn gather(&self, store: &HostStore) -> Result<Vec<Value>, ElabError> {
        let mut data = Vec::with_capacity(self.host_words.len());
        // Consecutive buffers belong to one stream: look each array up once.
        for stream in self.outputs.chunk_by(|a, b| a.variable == b.variable) {
            let name = &stream[0].variable;
            let raw = store
                .try_get(name)
                .ok_or_else(|| ElabError::MissingVariable {
                    variable: name.clone(),
                })?
                .raw();
            let (from, to) = (stream[0].words.0, stream[stream.len() - 1].words.1);
            data.extend(
                self.host_words[from as usize..to as usize]
                    .iter()
                    .map(|&at| raw[at as usize]),
            );
        }
        Ok(data)
    }
}

/// The channels as the elaborator allocates them, with their tables:
/// a channel's traffic is fixed when it is allocated, its ends as the
/// processes at them are built. A channel that carries nothing has no
/// ends (no op of either moves a value on it).
pub(crate) struct ChanAlloc(pub(crate) BatchPlan);

impl ChanAlloc {
    pub(crate) fn with_capacity(n: usize) -> ChanAlloc {
        ChanAlloc(BatchPlan {
            producer_of: Vec::with_capacity(n),
            consumer_of: Vec::with_capacity(n),
            traffic: Vec::with_capacity(n),
        })
    }

    /// A new channel carrying `traffic` values.
    pub(crate) fn next(&mut self, traffic: usize) -> ChanId {
        let t = &mut self.0;
        t.producer_of.push(None);
        t.consumer_of.push(None);
        t.traffic.push(traffic as u64);
        t.traffic.len() - 1
    }

    pub(crate) fn len(&self) -> usize {
        self.0.traffic.len()
    }

    /// Process `pid` receives from `inp` and sends on `out`.
    pub(crate) fn link(&mut self, pid: ProcId, inp: ChanId, out: ChanId) {
        self.recv(pid, inp);
        self.send(pid, out);
    }

    pub(crate) fn send(&mut self, pid: ProcId, chan: ChanId) {
        if self.0.traffic[chan] > 0 {
            self.0.producer_of[chan] = Some(pid);
        }
    }

    pub(crate) fn recv(&mut self, pid: ProcId, chan: ChanId) {
        if self.0.traffic[chan] > 0 {
            self.0.consumer_of[chan] = Some(pid);
        }
    }
}

/// Row-major index of the PS box, so per-(stream, point) tables are flat
/// vectors rather than point-keyed hash maps (which cost a key clone and
/// a hash per access — measurable at matmul sizes).
pub(crate) struct PsIndex {
    lo: Vec<i64>,
    dims: Vec<usize>,
}

impl PsIndex {
    pub(crate) fn new(ps: &[(i64, i64)]) -> PsIndex {
        PsIndex {
            lo: ps.iter().map(|&(lo, _)| lo).collect(),
            dims: ps
                .iter()
                .map(|&(lo, hi)| (hi - lo + 1).max(0) as usize)
                .collect(),
        }
    }

    /// The box's dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.dims.len()
    }

    pub(crate) fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether `p` lies inside the box.
    pub(crate) fn contains(&self, p: &[i64]) -> bool {
        let inside = |((&x, &lo), &d): ((&i64, &i64), &usize)| x >= lo && x - lo < d as i64;
        p.iter().zip(&self.lo).zip(&self.dims).all(inside)
    }

    /// Write the point at `offset` into `out` (the inverse of
    /// [`PsIndex::at`]).
    pub(crate) fn point_of(&self, mut offset: usize, out: &mut [i64]) {
        for ((x, &lo), &d) in out.iter_mut().zip(&self.lo).zip(&self.dims).rev() {
            *x = lo + (offset % d) as i64;
            offset /= d;
        }
    }

    /// Offset of a point known to lie inside the box.
    pub(crate) fn at(&self, p: &[i64]) -> usize {
        let mut idx = 0usize;
        for ((&x, &lo), &d) in p.iter().zip(&self.lo).zip(&self.dims) {
            debug_assert!(x >= lo && ((x - lo) as usize) < d);
            idx = idx * d + (x - lo) as usize;
        }
        idx
    }

    /// The box's points with their offsets, in row-major (offset) order,
    /// through one scratch point.
    pub(crate) fn walk(&self) -> BoxWalk<'_> {
        BoxWalk {
            ps: self,
            p: self.lo.clone(),
            at: 0,
        }
    }
}

/// A lending walk over a [`PsIndex`] box:
/// `while let Some((offset, y)) = w.next()`.
pub(crate) struct BoxWalk<'a> {
    ps: &'a PsIndex,
    p: Vec<i64>,
    /// The offset of the next point.
    at: usize,
}

impl BoxWalk<'_> {
    pub(crate) fn next(&mut self) -> Option<(usize, &[i64])> {
        if self.at == self.ps.len() {
            return None;
        }
        if self.at > 0 {
            // Advance the odometer: the last coordinate fastest.
            for d in (0..self.p.len()).rev() {
                self.p[d] += 1;
                if self.p[d] - self.ps.lo[d] < self.ps.dims[d] as i64 {
                    break;
                }
                self.p[d] = self.ps.lo[d];
            }
        }
        self.at += 1;
        Some((self.at - 1, &self.p))
    }
}

/// Lower `plan` at the problem size bound in `env` to a [`ProcIrModule`],
/// reading initial stream data from `store`: both phases of
/// `crate::skeleton`, uncached (the module store in `crate::cache` keeps
/// the skeleton across sizes and the module across runs).
pub fn elaborate(
    plan: &SystolicProgram,
    env: &Env,
    store: &HostStore,
    opts: &ElabOptions,
) -> Result<Elaborated, ElabError> {
    crate::skeleton::instantiate(&crate::skeleton::elaborate_skeleton(plan, opts), env, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_core::{compile, Options, StreamKind};
    use systolic_runtime::ProcOp;
    use systolic_synthesis::placement::paper;

    fn plan_of(
        pair: (
            systolic_ir::SourceProgram,
            systolic_synthesis::SystolicArray,
        ),
    ) -> SystolicProgram {
        let (p, a) = pair;
        compile(&p, &a, &Options::default()).unwrap()
    }

    #[test]
    fn d1_census() {
        let plan = plan_of(paper::polyprod_d1());
        let n = 4i64;
        let mut env = Env::new();
        env.bind(plan.source.sizes[0], n);
        let store = HostStore::allocate(&plan.source, &env);
        let el = elaborate(&plan, &env, &store, &ElabOptions::default()).unwrap();
        // n+1 computation processes; 3 pipes (one per stream, 1-D);
        // b has denominator 2 -> one internal buffer per column.
        assert_eq!(el.census.computation, (n + 1) as usize);
        assert_eq!(el.census.inputs, 3);
        assert_eq!(el.census.outputs, 3);
        assert_eq!(el.census.internal_buffers, (n + 1) as usize);
        assert_eq!(el.census.external_buffers, 0, "CS = PS for simple place");
    }

    #[test]
    fn e2_census_has_external_buffers() {
        let plan = plan_of(paper::matmul_e2());
        let n = 2i64;
        let mut env = Env::new();
        env.bind(plan.source.sizes[0], n);
        let store = HostStore::allocate(&plan.source, &env);
        let el = elaborate(&plan, &env, &store, &ElabOptions::default()).unwrap();
        let side = 2 * n + 1;
        let ps = (side * side) as usize;
        // CS: |col - row| <= n band.
        let cs: usize = (0..side * side)
            .map(|i| (i / side - n, i % side - n))
            .filter(|&(c, r)| (c - r).abs() <= n)
            .count();
        assert_eq!(el.census.computation, cs);
        assert_eq!(el.census.external_buffers, (ps - cs) * 3);
        assert_eq!(el.census.internal_buffers, 0);
        // Pipes: a and b have 2n+1 each (vertical / horizontal), c has
        // one per anti-diagonal line of the box = 2*(2n+1) - 1.
        let expect_pipes = (side + side + (2 * side - 1)) as usize;
        assert_eq!(el.census.inputs, expect_pipes);
        assert_eq!(el.census.outputs, expect_pipes);
    }

    #[test]
    fn census_invariants() {
        // inputs == outputs (one source and one sink per pipe), and the
        // endpoints cover exactly PS x streams.
        for (label, p, a) in paper::all() {
            let plan = compile(&p, &a, &Options::default()).unwrap();
            let mut env = Env::new();
            env.bind(plan.source.sizes[0], 3);
            let store = HostStore::allocate(&plan.source, &env);
            let el = elaborate(&plan, &env, &store, &ElabOptions::default()).unwrap();
            assert_eq!(el.census.inputs, el.census.outputs, "{label}");
            let ps_count = plan.ps_points(&env).len();
            assert_eq!(
                el.endpoints.len(),
                ps_count * plan.streams.len(),
                "{label}: every (stream, PS point) has channel endpoints"
            );
            // Channel ids are unique across endpoints per side.
            let mut ins = Vec::new();
            el.endpoints.for_each(|_, _, i, _| ins.push(i));
            ins.sort_unstable();
            ins.dedup();
            assert_eq!(ins.len(), el.endpoints.len(), "{label}: in-channels unique");
            // Total processes = comp + null buffers + internal buffers
            // + escorts + inputs + outputs.
            assert_eq!(
                el.module.procs.len(),
                el.census.computation
                    + el.census.external_buffers
                    + el.census.internal_buffers
                    + el.census.escorts
                    + el.census.inputs
                    + el.census.outputs,
                "{label}"
            );
            // Every comp point's bytecode ends in exactly one Compute op.
            for (y, pid) in el.comp_at() {
                let computes = el
                    .module
                    .ops_of(pid)
                    .iter()
                    .filter(|op| matches!(op, ProcOp::Compute { .. }))
                    .count();
                assert_eq!(computes, 1, "{label}: comp at {y:?}");
            }
        }
    }

    #[test]
    fn missing_variable_is_a_structured_error() {
        let plan = plan_of(paper::polyprod_d1());
        let mut env = Env::new();
        env.bind(plan.source.sizes[0], 2);
        let store = HostStore::new(); // nothing allocated
        let Err(err) = elaborate(&plan, &env, &store, &ElabOptions::default()) else {
            panic!("elaboration must fail without host arrays");
        };
        assert!(matches!(err, ElabError::MissingVariable { .. }));
        assert!(err.to_string().contains("no host array"));
    }

    #[test]
    fn pipe_conservation_invariant() {
        // soak + count + drain = pipe N for every computation process and
        // moving stream (the FIFO conservation law).
        for (label, p, a) in paper::all() {
            let plan = compile(&p, &a, &Options::default()).unwrap();
            let mut env = Env::new();
            env.bind(plan.source.sizes[0], 3);
            for y in plan.ps_points(&env) {
                let Some(_) = plan.first_at(&env, &y) else {
                    continue;
                };
                let count = plan.count_at(&env, &y);
                for sp in &plan.streams {
                    let soak = plan.stream_count_at(&sp.soak, &env, &y);
                    let drain = plan.stream_count_at(&sp.drain, &env, &y);
                    // Walk to the pipe head to get N.
                    let mut head = y.clone();
                    let ps = plan.ps_box(&env);
                    let inside =
                        |p: &Vec<i64>| p.iter().zip(&ps).all(|(&x, &(lo, hi))| x >= lo && x <= hi);
                    loop {
                        let prev = point::sub(&head, &sp.unit_flow);
                        if !inside(&prev) {
                            break;
                        }
                        head = prev;
                    }
                    let f = plan.stream_point_at(&sp.first_s, &env, &head);
                    let l = plan.stream_point_at(&sp.last_s, &env, &head);
                    let n = match (f, l) {
                        (Some(f), Some(l)) => {
                            point::exact_div(&point::sub(&l, &f), &sp.increment_s).unwrap() + 1
                        }
                        _ => 0,
                    };
                    let used = match sp.kind {
                        StreamKind::Moving => count,
                        StreamKind::Stationary { .. } => 1,
                    };
                    assert_eq!(
                        soak + used + drain,
                        n,
                        "{label}: stream {} at {:?}",
                        sp.name,
                        y
                    );
                }
            }
        }
    }
}
