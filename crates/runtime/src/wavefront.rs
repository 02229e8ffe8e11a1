//! The wavefront executor: the cooperative fast engine, which runs a
//! batch-eligible module as a topologically staged sweep.
//!
//! The paper's step function assigns every elaborated operation a global
//! time step, so in the steady state the whole array advances as a
//! sequence of *wavefronts*: all sources fire, then every process one
//! hop downstream, and so on. The batch proof (`crate::batch`) supplies
//! the per-channel half of this — ring buffers let a producer run a whole
//! batch ahead — and this module derives the wave structure once per
//! module — a [`WavefrontPlan`] — and executes it directly, so a value
//! reaches the far edge of the array in one pass instead of one
//! pid-order sweep per hop:
//!
//! 1. **Graph**: the paper's computation process is a *sequence of
//!    phases* — load, soak, the repeater, drain, recover (Sec. 4) — and
//!    the graph is as fine as that program: every process is cut at its
//!    repeater into [`Window`]s (the ops before it, the `Compute` op, the
//!    ops after it), consecutive windows of a process are joined by a
//!    *program-order* edge, and every channel contributes edges by
//!    *matching value intervals*: the k-th value sent is the k-th
//!    received, so a sender window and a receiver window are joined
//!    exactly when the runs of values they move overlap. One channel
//!    routinely carries two phases (a stationary stream is loaded and
//!    recovered over the same links); a graph with one node per process
//!    would close a cycle there that no value ever travels.
//! 2. **Condensation**: strongly connected components are collapsed
//!    (Tarjan, iterative); each SCC becomes one *chunk* that must be
//!    fixpointed as a unit (its members feed each other).
//! 3. **Leveling**: longest-path levels on the acyclic condensation
//!    assign every chunk a *wave*: every edge joins windows of one chunk
//!    or strictly increases the wave. The levels are a visiting order,
//!    not a safety condition: any order is a Kahn schedule, and two
//!    windows of one wave may hold the two ends of a ring (their value
//!    runs do not overlap, so no edge joins them).
//! 4. **Capacities**: every channel gets a ring sized to its whole
//!    traffic, clamped to [`WAVEFRONT_RING_CAP`], and raised to what a
//!    relay chain the optimizer fused into it holds in flight
//!    (`crate::opt`) — so one topological pass usually drains the
//!    entire module. This is the one place a ring capacity is decided.
//!
//! The analysis runs on every module miss, so every table is flat:
//! compressed sparse rows built by counting sort, nothing allocated per
//! channel, window, chunk or wave.
//!
//! Execution then macro-steps each chunk to a local fixpoint, wave by
//! wave (`RunArena::macro_step_window` is the superinstruction
//! interpreter, bounded to the window's ops; all run state is the
//! thread's run arena, `crate::arena`), repeating the pass until every
//! process retires; after the first pass only
//! chunks a progressing neighbour re-dirtied are revisited, so the
//! steady state sweeps the active frontier, not the module.
//! Kernel-eligible compute windows of a wave first batch their
//! iterations through the compiled tape (`crate::kernel`) before the
//! sweep certifies the fixpoint. The sweep is sequential, on the calling
//! thread, over the arena's one ring slab (`docs/wavefront.md`, "Why
//! there is no parallel mode").
//!
//! Correctness is the Kahn-network story one more time (see
//! `docs/scheduler.md` and `docs/wavefront.md`): scheduling order and
//! buffer slack change neither the value streams nor the per-op logical
//! accounting, so stores stay bit-identical to the sequential oracle and
//! `messages`/`steps` invariant; only `rounds` (grand sweeps here, not
//! rendezvous rounds) differs from the rendezvous engines'.

use crate::arena::{with_arena, RunArena};
use crate::batch::BatchPlan;
use crate::coop::{RunError, RunStats};
use crate::json::Json;
use crate::kernel::{kernel_wave, KernelPlan, KernelReport};
use crate::process::{ChanId, Value};
use crate::procir::{ProcId, ProcIrModule, ProcOp};
use std::sync::Arc;

/// The widest ring the wavefront plan will grant a channel. Sized so a
/// whole steady phase of the gallery designs fits in one wave pass while
/// bounding memory on adversarial traffic; channels busier than this
/// simply take more grand sweeps.
pub const WAVEFRONT_RING_CAP: u64 = 4096;

/// One node of the wave graph: ops `start..end` (absolute into
/// `ProcIrModule::ops`) of process `pid`. A process's windows tile its op
/// range in program order; the last one (`end` = the record's end) owns
/// the terminal empty step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Window {
    pub pid: u32,
    pub start: u32,
    pub end: u32,
}

impl Window {
    /// Whether this window is a repeater: exactly one
    /// `ProcOp::Compute { count > 0 }`.
    pub fn is_compute(&self, module: &ProcIrModule) -> bool {
        self.end - self.start == 1 && is_repeater(module.ops[self.start as usize])
    }
}

fn is_repeater(op: ProcOp) -> bool {
    matches!(op, ProcOp::Compute { count } if count > 0)
}

/// Counting-sort offsets: with `start = offsets(n_keys, keys)`, the
/// items keyed `k` belong at `start[k]..start[k + 1]`.
fn offsets(n_keys: usize, keys: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut start = vec![0u32; n_keys + 1];
    for k in keys {
        start[k as usize + 1] += 1;
    }
    for k in 0..n_keys {
        start[k + 1] += start[k];
    }
    start
}

/// Compressed sparse rows: `row(k)` is the values filed under key `k`,
/// in the order they were given (a stable counting sort — no comparison
/// sort, no dedup, no allocation per key).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Csr<T> {
    start: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    fn build(n_keys: usize, items: &[(u32, T)]) -> Csr<T> {
        let start = offsets(n_keys, items.iter().map(|&(k, _)| k));
        let mut next = start.clone();
        let mut vals = vec![T::default(); items.len()];
        for &(k, v) in items {
            vals[next[k as usize] as usize] = v;
            next[k as usize] += 1;
        }
        Csr { start, vals }
    }

    fn n_rows(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    fn row(&self, k: usize) -> &[T] {
        &self.vals[self.start[k] as usize..self.start[k + 1] as usize]
    }
}

/// The derived wave structure of one module: which windows of which
/// processes advance together, in which order, over how much ring slack.
#[derive(Debug, PartialEq, Eq)]
pub struct WavefrontPlan {
    /// The windows, chunk by chunk in wave-major order (the executor's
    /// iteration order); within a chunk in ascending (pid, program)
    /// order. Chunks partition the windows.
    chunks: Csr<Window>,
    /// Wave `w` is chunks `wave_start[w]..wave_start[w + 1]`.
    wave_start: Vec<u32>,
    /// Per chunk: the chunks its progress must re-dirty, since only a
    /// touched ring or a retired predecessor window can unblock a
    /// blocked chunk — the chunks an edge joins it to, either way, and
    /// on a channel busier than its ring (where a sender can block on a
    /// full ring) every chunk at the channel's other end. A neighbour
    /// may be listed more than once (two channels between one pair of
    /// chunks): harmless to a dirty flag, cheaper than a dedup.
    neighbors: Csr<u32>,
    /// Ring capacity per channel: its traffic clamped to
    /// `1..=WAVEFRONT_RING_CAP`, raised to the need of a fused chain.
    pub capacities: Vec<u64>,
    reject: Option<String>,
}

impl WavefrontPlan {
    /// Whether the module may be wavefront-executed at all.
    pub fn eligible(&self) -> bool {
        self.reject.is_none()
    }

    /// Why not, when [`WavefrontPlan::eligible`] is false.
    pub fn reject_reason(&self) -> Option<&str> {
        self.reject.as_deref()
    }

    pub fn n_waves(&self) -> usize {
        self.wave_start.len().saturating_sub(1)
    }

    pub fn n_chunks(&self) -> usize {
        self.chunks.n_rows()
    }

    /// The chunk indices of wave `w`.
    pub fn wave(&self, w: usize) -> std::ops::Range<usize> {
        self.wave_start[w] as usize..self.wave_start[w + 1] as usize
    }

    /// The windows of chunk `k`: one strongly connected component of the
    /// window graph.
    pub fn chunk(&self, k: usize) -> &[Window] {
        self.chunks.row(k)
    }

    /// The chunks that chunk `k`'s progress can unblock (possibly repeated).
    pub fn neighbors(&self, k: usize) -> &[u32] {
        self.neighbors.row(k)
    }

    /// Chunks of more than one window: the cycles whose members feed
    /// each other. A cycle of compute windows alone may run a firing
    /// schedule derived with the kernel plan (`crate::kernel`); the sweep
    /// fixpoints any other.
    pub fn cyclic_chunks(&self) -> usize {
        (0..self.n_chunks())
            .filter(|&k| self.chunk(k).len() > 1)
            .count()
    }

    /// Windows in the largest chunk.
    pub fn largest_chunk(&self) -> usize {
        let sizes = (0..self.n_chunks()).map(|k| self.chunk(k).len());
        sizes.max().unwrap_or(0)
    }

    /// The widest ring the plan grants — how far the staged sweep can
    /// run ahead of a strict per-step schedule.
    pub fn max_capacity(&self) -> u64 {
        self.capacities.iter().copied().max().unwrap_or(0)
    }

    /// Values the ring slab of a run holds: every channel's capacity.
    pub fn ring_values(&self) -> u64 {
        self.capacities.iter().sum()
    }

    /// The `wavefront` section of the metrics and optimizer reports: the
    /// staging shape of `module` — with what its run state costs, the
    /// ring slab's length and the bytes a fresh run arena holds after
    /// one reset — or the reject reason, then every channel that `batch`,
    /// the analysis this plan was derived from, disqualifies.
    pub fn json(&self, module: &ProcIrModule, batch: &BatchPlan) -> Json {
        let mut fields = match self.reject_reason() {
            None => {
                let mut arena = RunArena::default();
                arena.reset(module, &self.capacities);
                vec![
                    ("eligible", true.into()),
                    ("waves", self.n_waves().into()),
                    ("chunks", self.n_chunks().into()),
                    ("cyclic_chunks", self.cyclic_chunks().into()),
                    ("largest_chunk", self.largest_chunk().into()),
                    ("max_ring_capacity", self.max_capacity().into()),
                    ("ring_values", self.ring_values().into()),
                    ("arena_bytes", arena.footprint_bytes().into()),
                ]
            }
            Some(r) => vec![("eligible", false.into()), ("reason", r.into())],
        };
        let reasons = batch.channel_reasons.iter().enumerate();
        let channels = reasons.filter_map(|(c, why)| {
            Some(Json::obj([
                ("chan", c.into()),
                ("reason", why.as_deref()?.into()),
            ]))
        });
        fields.push(("channels", Json::arr(channels)));
        Json::obj(fields)
    }
}

/// `n` consecutive values of one channel moved by window `node`.
#[derive(Clone, Copy, Default)]
struct Run {
    node: u32,
    n: u64,
}

/// The runs of values op `op` of process `pid` moves: `recv(chan, n)` for
/// each run it receives and `send(chan, n)` for each it sends.
pub(crate) fn op_runs(
    module: &ProcIrModule,
    pid: ProcId,
    op: ProcOp,
    mut recv: impl FnMut(ChanId, u64),
    mut send: impl FnMut(ChanId, u64),
) {
    match op {
        ProcOp::Emit { chan } | ProcOp::Eject { chan, .. } => send(chan, 1),
        ProcOp::Collect { chan } | ProcOp::Keep { chan, .. } => recv(chan, 1),
        ProcOp::Pass { inp, out, n } => {
            recv(inp, n);
            send(out, n);
        }
        ProcOp::Compute { count } => {
            for mc in module.moving_of(pid) {
                recv(mc.inp, count);
                send(mc.out, count);
            }
        }
    }
}

/// Record that window `node` moves `n` more values of `chan`: one run with
/// the run just recorded when that was the same window on the same
/// channel (a source's `Emit`s are one run). Channel by channel the runs
/// then cover the same values with the same windows, so the edges come
/// out the same.
fn push_run(runs: &mut Vec<(u32, Run)>, chan: ChanId, node: u32, n: u64) {
    let chan = chan as u32;
    match runs.last_mut() {
        Some((c, run)) if *c == chan && run.node == node => run.n = run.n.saturating_add(n),
        _ => runs.push((chan, Run { node, n })),
    }
}

/// Derive the wave structure from a module and its batch analysis. A
/// module the batch proof rejects is ineligible with the same reason and
/// every other module is eligible — the wavefront executor inherits
/// every safety obligation of the batch proof and adds the staging on
/// top, so a module that passes the fast-path gate always has a plan.
/// `needs` is the least ring capacity per channel the module requires
/// (`OptimizedModule::ring_needs` for the optimizer's module; empty, or
/// 0 for a channel, when there is none).
pub fn analyze_wavefront(module: &ProcIrModule, plan: &BatchPlan, needs: &[u64]) -> WavefrontPlan {
    if let Some(r) = plan.reject_reason() {
        return WavefrontPlan {
            chunks: Csr::default(),
            wave_start: Vec::new(),
            neighbors: Csr::default(),
            capacities: Vec::new(),
            reject: Some(r.to_string()),
        };
    }

    // Windows in (pid, program) order, and per channel the runs of
    // values each window sends and receives. A transport op belongs to
    // the window still open, which will be pushed under the index
    // `nodes.len()` has now.
    let mut nodes: Vec<Window> = Vec::with_capacity(module.procs.len() * 3);
    // A starting size: a process's script (a source's `Emit`s, a sink's
    // `Collect`s) is one run, a repeater one per moving link.
    let runs = module.procs.len() + module.moving.len();
    let mut sends: Vec<(u32, Run)> = Vec::with_capacity(runs);
    let mut recvs: Vec<(u32, Run)> = Vec::with_capacity(runs);
    for (pid, rec) in module.procs.iter().enumerate() {
        let pid = pid as u32;
        let (first, mut start) = (nodes.len(), rec.ops.0);
        for pc in rec.ops.0..rec.ops.1 {
            let op = module.ops[pc as usize];
            if is_repeater(op) {
                if pc > start {
                    nodes.push(Window {
                        pid,
                        start,
                        end: pc,
                    });
                }
                start = pc + 1;
                nodes.push(Window {
                    pid,
                    start: pc,
                    end: start,
                });
            }
            let node = nodes.len() as u32 - is_repeater(op) as u32;
            op_runs(
                module,
                pid as usize,
                op,
                |chan, n| push_run(&mut recvs, chan, node, n),
                |chan, n| push_run(&mut sends, chan, node, n),
            );
        }
        if start < rec.ops.1 || nodes.len() == first {
            nodes.push(Window {
                pid,
                start,
                end: rec.ops.1,
            });
        }
    }
    let n = nodes.len();
    let sends = Csr::build(module.n_chans, &sends);
    let recvs = Csr::build(module.n_chans, &recvs);

    // Edges: program order between consecutive windows of a process,
    // then per channel the sender runs against the receiver runs — the
    // batch proof's unique endpoints make each side one process's
    // program order, and its balanced traffic makes the k-th value sent
    // the k-th received.
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n + sends.vals.len() + recvs.vals.len());
    for i in 1..n {
        if nodes[i].pid == nodes[i - 1].pid {
            edges.push((i as u32 - 1, i as u32));
        }
    }
    for c in 0..module.n_chans {
        let (s, r) = (sends.row(c), recvs.row(c));
        if s.is_empty() || r.is_empty() {
            continue;
        }
        // `*_end`: one past the last value of run `i` / `j`.
        let (mut i, mut j, mut s_end, mut r_end) = (0, 0, s[0].n, r[0].n);
        loop {
            let lo = (s_end - s[i].n).max(r_end - r[j].n);
            let edge = (s[i].node, r[j].node);
            if lo < s_end.min(r_end) && edge.0 != edge.1 && edges.last() != Some(&edge) {
                edges.push(edge);
            }
            if s_end <= r_end {
                i += 1;
                let Some(run) = s.get(i) else { break };
                s_end = s_end.saturating_add(run.n);
            } else {
                j += 1;
                let Some(run) = r.get(j) else { break };
                r_end = r_end.saturating_add(run.n);
            }
        }
    }
    let succs = Csr::build(n, &edges);

    // Tarjan numbers components in reverse topological order (a sink
    // first), so descending component order visits every edge's source
    // before its target: longest-path levels in one sweep.
    let comp = tarjan_sccs(&succs);
    let n_comps = comp.members.n_rows();
    let mut level = vec![0u32; n_comps];
    for c in (0..n_comps).rev() {
        for &u in comp.members.row(c) {
            for &v in succs.row(u as usize) {
                let cv = comp.of[v as usize] as usize;
                if cv != c {
                    level[cv] = level[cv].max(level[c] + 1);
                }
            }
        }
    }

    // Ring capacities: every channel widens to its whole proven traffic
    // (so one topological pass can drain a steady phase outright),
    // clamped for memory, and never below what a fused relay chain held
    // in flight under rendezvous, so every schedule of the elaborated
    // module stays replayable. Slack never changes a Kahn network's
    // streams or its per-op logical accounting, only its timing —
    // load/recover channels included.
    let need = |c: usize| needs.get(c).copied().unwrap_or(0);
    let capacities: Vec<u64> = (0..module.n_chans)
        .map(|c| plan.traffic[c].clamp(1, WAVEFRONT_RING_CAP).max(need(c)))
        .collect();

    // Chunk numbers: wave-major, within a wave by first window — the
    // layout, and with it the execution order, is reproducible.
    let n_waves = level.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
    let wave_start = offsets(n_waves, level.iter().copied());
    let mut next_in_wave = wave_start.clone();
    const UNSET: u32 = u32::MAX;
    let mut chunk_of_comp = vec![UNSET; n_comps];
    let placed: Vec<(u32, Window)> = (0..n)
        .map(|v| {
            let c = comp.of[v] as usize;
            if chunk_of_comp[c] == UNSET {
                let wave = level[c] as usize;
                chunk_of_comp[c] = next_in_wave[wave];
                next_in_wave[wave] += 1;
            }
            (chunk_of_comp[c], nodes[v])
        })
        .collect();
    let chunks = Csr::build(n_comps, &placed);

    // Who wakes whom. A window blocked on an empty ring, or not yet
    // startable, waits for the other end of an edge. A window blocked on
    // a *full* ring waits for whichever window receives the value one
    // capacity back, and no edge need join the two (a load pass feeds a
    // load pass, an eject a recover pass: the eject waits for the far
    // load pass to drain the ring). Only a channel busier than its ring
    // can fill, and there every sender window is paired with every
    // receiver window.
    let chunk_of = |v: u32| placed[v as usize].0;
    let mut wakes: Vec<(u32, u32)> = Vec::with_capacity(2 * edges.len());
    let mut pair = |u: u32, v: u32| {
        let (cu, cv) = (chunk_of(u), chunk_of(v));
        if cu != cv {
            wakes.push((cu, cv));
            wakes.push((cv, cu));
        }
    };
    for &(u, v) in &edges {
        pair(u, v);
    }
    // A window's runs are consecutive (a source is one `Emit` per value).
    let windows_of = |runs: &[Run]| {
        let mut windows: Vec<u32> = runs.iter().map(|r| r.node).collect();
        windows.dedup();
        windows
    };
    for c in (0..module.n_chans).filter(|&c| plan.traffic[c] > capacities[c]) {
        let receivers = windows_of(recvs.row(c));
        for s in windows_of(sends.row(c)) {
            for &r in &receivers {
                pair(s, r);
            }
        }
    }
    let neighbors = Csr::build(n_comps, &wakes);

    WavefrontPlan {
        chunks,
        wave_start,
        neighbors,
        capacities,
        reject: None,
    }
}

/// The SCC partition of a directed graph: `of[v]` is the component of
/// vertex `v`, `members.row(c)` the vertices of component `c`.
struct Components {
    of: Vec<u32>,
    members: Csr<u32>,
}

/// Iterative Tarjan (explicit stack — elaborated modules reach thousands
/// of processes, and relay pipes make long paths). Components come out
/// in reverse topological order, each popped off the stack in one piece,
/// so `members` is written as they complete.
fn tarjan_sccs(succs: &Csr<u32>) -> Components {
    let n = succs.n_rows();
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut of = vec![UNSEEN; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut members = Csr {
        start: vec![0],
        vals: Vec::with_capacity(n),
    };
    let mut next_index = 0u32;
    // (vertex, next child position) call frames.
    let mut frames: Vec<(u32, u32)> = Vec::new();

    for root in 0..n as u32 {
        if index[root as usize] != UNSEEN {
            continue;
        }
        frames.push((root, succs.start[root as usize]));
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            let v = v as usize;
            if *child < succs.start[v + 1] {
                let w = succs.vals[*child as usize] as usize;
                *child += 1;
                if index[w] == UNSEEN {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    frames.push((w as u32, succs.start[w]));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent as usize] = low[parent as usize].min(low[v]);
                }
                if low[v] == index[v] {
                    let c = members.n_rows() as u32;
                    while let Some(w) = stack.pop() {
                        on_stack[w as usize] = false;
                        of[w as usize] = c;
                        members.vals.push(w);
                        if w as usize == v {
                            break;
                        }
                    }
                    members.start.push(members.vals.len() as u32);
                }
            }
        }
    }
    Components { of, members }
}

/// One chunk's execution state. Its windows are the plan's own slice
/// and the processes' registers stay in the run arena's pid-indexed
/// table; whether a window has retired is read off its process's pc.
#[derive(Clone, Copy)]
pub(crate) struct ChunkState {
    /// Windows not yet retired.
    left: u32,
    /// Progress in the latest wave visit: ring pushes/pops, plus windows
    /// retired — a repeater without moving links retires without
    /// touching a ring and must still wake its successor (reset when
    /// the wave loop claims the chunk).
    pub(crate) moved: u64,
    /// A neighbour progressed since the last visit (or there was none).
    dirty: bool,
}

/// The sweep's own tables, by chunk: part of the thread's `RunArena`,
/// lent out of it while a sweep runs so that both can be borrowed.
#[derive(Default)]
pub(crate) struct WaveState {
    pub(crate) chunks: Vec<ChunkState>,
    /// The current wave's worklist.
    pub(crate) work: Vec<usize>,
}

impl WaveState {
    /// Bytes held (capacities), for `RunArena::footprint_bytes`.
    pub(crate) fn footprint_bytes(&self) -> usize {
        self.chunks.capacity() * std::mem::size_of::<ChunkState>()
            + self.work.capacity() * std::mem::size_of::<usize>()
    }
}

/// Macro-step the chunk of `windows` to a local fixpoint against the
/// rings. A single-window chunk needs exactly one call (the macro-step is
/// already greedy to blockage); a cyclic chunk iterates until a pass
/// makes no progress.
fn sweep_chunk(
    windows: &[Window],
    chunk: &mut ChunkState,
    module: &ProcIrModule,
    arena: &mut RunArena,
    stats: &mut RunStats,
) {
    loop {
        let mut progress = 0u64;
        for w in windows {
            let (pid, ops) = (w.pid as usize, (w.start, w.end));
            if !arena.window_retired(module, pid, w.end)
                && arena.macro_step_window(module, pid, ops, stats, &mut progress)
            {
                chunk.left -= 1;
                progress += 1;
            }
        }
        chunk.moved += progress;
        if progress == 0 || windows.len() == 1 {
            break;
        }
    }
}

/// Run a module through its wavefront plan: passes of topologically
/// staged chunk fixpoints until every process retires. Chunks are
/// *dirty-tracked*: after the first pass a chunk is re-swept only when
/// one of [`WavefrontPlan::neighbors`] progressed — sent the values it
/// waits for, retired the window before one of its own in program
/// order, or popped from a ring that can fill; a blocked chunk cannot
/// otherwise have become runnable, so the steady state sweeps the
/// active frontier instead of the whole module. Chunks are visited in wave-major order
/// on the calling thread. `stats.rounds` counts passes. A pass without
/// progress with unfinished processes left is a deadlock, reported in
/// the engines' usual `label [wait,...]` shape.
///
/// `kernels` (from [`crate::kernel::analyze_kernels`], memoized
/// upstream) switches eligible chunks onto the struct-of-arrays kernel
/// path before each wave's ordinary sweep; `None` runs everything on the
/// scalar sweep — the reference the kernel path is tested against. Either
/// way the stores and the logical `messages`/`steps` are identical — the
/// returned [`KernelReport`] is the only observable difference.
pub fn run_wavefront(
    module: &Arc<ProcIrModule>,
    plan: &WavefrontPlan,
    kernels: Option<&KernelPlan>,
    // Ignored, spelled by the frozen `benchmark/src/stages.rs:106`; goes with ROADMAP 2(b).
    _parallel: bool,
) -> Result<(RunStats, Vec<Vec<Value>>, KernelReport), RunError> {
    debug_assert!(plan.eligible(), "caller checks WavefrontPlan::eligible");
    with_arena(|arena| {
        let mut waves = std::mem::take(&mut arena.waves);
        let result = sweep_waves(module, plan, kernels, &mut waves, arena);
        arena.waves = waves;
        result
    })
}

// Spelled by the frozen `benchmark/src/stages.rs:119`; goes with ROADMAP 2(b).
#[doc(hidden)]
pub fn run_coop_batched(
    module: &Arc<ProcIrModule>,
    plan: &BatchPlan,
) -> Result<(RunStats, Vec<Vec<Value>>), RunError> {
    let wf = analyze_wavefront(module, plan, &[]);
    let (stats, sinks, _) = run_wavefront(module, &wf, None, false)?;
    Ok((stats, sinks))
}

/// [`run_wavefront`] on the thread's arena.
fn sweep_waves(
    module: &ProcIrModule,
    plan: &WavefrontPlan,
    kernels: Option<&KernelPlan>,
    waves: &mut WaveState,
    arena: &mut RunArena,
) -> Result<(RunStats, Vec<Vec<Value>>, KernelReport), RunError> {
    arena.reset(module, &plan.capacities);
    let n_chunks = plan.n_chunks();
    waves.chunks.clear();
    waves.chunks.extend((0..n_chunks).map(|k| ChunkState {
        left: plan.chunk(k).len() as u32,
        moved: 0,
        dirty: true,
    }));

    // Kernel eligibility, indexed like the chunks.
    let mut kreport = kernels.map_or_else(KernelReport::default, KernelPlan::report);
    let kernels = kernels.filter(|kp| kp.any_eligible());
    if let Some(kp) = kernels {
        debug_assert_eq!(kp.chunk_ok.len(), n_chunks, "plan/chunk order mismatch");
    }

    let mut stats = RunStats {
        processes: module.procs.len(),
        ..RunStats::default()
    };
    let mut unfinished = n_chunks;
    while unfinished > 0 {
        let mut moved = 0u64;
        for w in 0..plan.n_waves() {
            // This wave's worklist: dirty, unfinished chunks. Claiming
            // clears the flag (and the progress counter); a neighbour's
            // progress below re-sets it.
            waves.work.clear();
            for k in plan.wave(w) {
                let c = &mut waves.chunks[k];
                if c.dirty && c.left > 0 {
                    c.dirty = false;
                    c.moved = 0;
                    waves.work.push(k);
                }
            }
            if waves.work.is_empty() {
                continue;
            }
            // Kernel phase: batch the wave's eligible compute windows
            // through the compiled tape; their sweep below only steps
            // past the exhausted repeater.
            if let Some(kp) = kernels {
                let fused = kernel_wave(module, plan, kp, waves, arena, &mut stats, &mut kreport);
                kreport.waves_fused += fused as u64;
            }
            let WaveState { chunks, work } = &mut *waves;
            for &k in work.iter() {
                sweep_chunk(plan.chunk(k), &mut chunks[k], module, arena, &mut stats);
                let c = chunks[k];
                moved += c.moved;
                if c.moved > 0 {
                    for &nb in plan.neighbors(k) {
                        chunks[nb as usize].dirty = true;
                    }
                }
                unfinished -= (c.left == 0) as usize;
            }
        }
        stats.rounds += 1;
        if moved == 0 && unfinished > 0 {
            return Err(RunError::Deadlock(arena.deadlock(module)));
        }
    }
    Ok((stats, std::mem::take(&mut arena.outputs), kreport))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::analyze;
    use crate::coop::Network;
    use crate::procir::ProcIrBuilder;
    use crate::step::Port;

    type Outcome = (RunStats, Vec<Vec<Value>>);

    /// `m` on the wavefront engine (kernels as given) held to the plain
    /// rendezvous engine on the same module: the same outputs, messages,
    /// steps and processes. Returns the wavefront run.
    fn against_the_oracle(
        m: &Arc<ProcIrModule>,
        wf: &WavefrontPlan,
        kernels: Option<&KernelPlan>,
    ) -> (Outcome, KernelReport) {
        let (ws, wouts, report) = run_wavefront(m, wf, kernels, false).unwrap();
        let (ps, pouts) = Network::of(m).run_with_outputs().unwrap();
        let logical = |s: &RunStats| (s.messages, s.steps, s.processes);
        assert_eq!(logical(&ws), logical(&ps), "wavefront vs rendezvous");
        assert_eq!(wouts, pouts, "wavefront vs rendezvous");
        ((ws, wouts), report)
    }

    fn pipeline_module() -> Arc<ProcIrModule> {
        let mut b = ProcIrBuilder::new();
        let vals: Vec<i64> = (0..200).collect();
        b.source(0, &vals, "src");
        b.relay(0, 1, 200, "relay-a");
        b.relay(1, 2, 200, "relay-b");
        b.sink(2, 200, "sink");
        b.build()
    }

    #[test]
    fn plan_stages_a_pipeline_into_one_wave_chain() {
        let m = pipeline_module();
        let plan = analyze(&m);
        let wf = analyze_wavefront(&m, &plan, &[]);
        assert!(wf.eligible(), "{:?}", wf.reject_reason());
        assert_eq!(wf.n_waves(), 4, "src -> relay -> relay -> sink");
        assert_eq!(wf.n_chunks(), 4);
        // Traffic-wide rings: the whole stream fits in one pass.
        assert_eq!(wf.max_capacity(), 200);
    }

    #[test]
    fn a_pipeline_drains_in_one_grand_sweep_with_the_rendezvous_answer() {
        let m = pipeline_module();
        let plan = analyze(&m);
        let wf = analyze_wavefront(&m, &plan, &[]);
        let ((ws, wouts), _) = against_the_oracle(&m, &wf, None);
        assert_eq!(wouts, [(0..200).collect::<Vec<_>>()]);
        // Topological order + traffic-wide rings: the whole 200-value
        // stream flows source->sink in the first grand sweep, where the
        // rendezvous engine takes a round per hop and value.
        assert_eq!(ws.rounds, 1, "one grand sweep drains the pipeline");
        let (ps, _) = Network::of(&m).run_with_outputs().unwrap();
        assert!(ps.rounds > 200, "{} rendezvous rounds", ps.rounds);
    }

    /// Transport on rings of every capacity vector in `1..=4`: a 13-value
    /// `Emit` run through a two-relay `Pass` chain into a `Collect` run,
    /// beside a source and a sink that alternate two channels, so their
    /// runs are one op long. Narrow rings cut the runs short and leave
    /// relays holding a value (`PassHeld`). Driven process by process to
    /// the end, every capacity vector must give the rendezvous run's
    /// outputs, messages and steps, and every visit's `moved` must be the
    /// values it pushed plus the values it popped.
    #[test]
    fn transport_slices_agree_with_the_rendezvous_run_on_narrow_rings() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &(1..=13).collect::<Vec<_>>(), "src");
        b.relay(0, 1, 13, "relay-a");
        b.relay(1, 2, 13, "relay-b");
        b.sink(2, 13, "sink");
        let alternate: Vec<_> = (0..8).map(|i| (3 + i % 2, 100 + i as Value)).collect();
        b.scripted_source(&alternate, "alt-src");
        let chans: Vec<_> = alternate.iter().map(|&(chan, _)| chan).collect();
        b.scripted_sink(&chans, "alt-sink");
        let m = b.build();
        let (plain, plain_outs) = Network::of(&m).run_with_outputs().unwrap();
        // Every channel is pushed by one process and popped by another,
        // so what a visit moved is how far it changed the rings.
        let lens = |a: &RunArena| (0..m.n_chans).map(|c| a.rings.len(c)).collect::<Vec<_>>();
        let mut arena = RunArena::default();
        for code in 0..4usize.pow(m.n_chans as u32) {
            let caps: Vec<u64> = (0..m.n_chans)
                .map(|c| (code / 4usize.pow(c as u32) % 4 + 1) as u64)
                .collect();
            arena.reset(&m, &caps);
            let mut stats = RunStats::default();
            let mut done = vec![false; m.procs.len()];
            while done.contains(&false) {
                let mut progress = false;
                for (pid, done) in done.iter_mut().enumerate() {
                    let (before, mut moved) = (lens(&arena), 0);
                    let ops = m.procs[pid].ops;
                    let retired = arena.macro_step_window(&m, pid, ops, &mut stats, &mut moved);
                    let after = lens(&arena);
                    let flow: usize = before.iter().zip(&after).map(|(b, a)| b.abs_diff(*a)).sum();
                    assert_eq!(moved, flow as u64, "caps {caps:?}, pid {pid}");
                    progress |= moved > 0 || retired && !*done;
                    *done = retired;
                }
                assert!(progress, "caps {caps:?}: stuck");
            }
            let logical = |s: &RunStats| (s.messages, s.steps);
            assert_eq!(logical(&stats), logical(&plain), "caps {caps:?}");
            assert_eq!(arena.outputs, plain_outs, "caps {caps:?}");
        }
    }

    #[test]
    fn cyclic_chunks_fixpoint_instead_of_deadlocking() {
        // a <-> b exchange: one SCC, one chunk, one wave.
        let mut b = ProcIrBuilder::new();
        b.begin("ping");
        b.emit(0, 7);
        b.op(crate::procir::ProcOp::Pass {
            inp: 1,
            out: 0,
            n: 9,
        });
        b.op(crate::procir::ProcOp::Collect { chan: 1 });
        b.finish();
        b.relay(0, 1, 10, "pong");
        let m = b.build();
        let plan = analyze(&m);
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        let wf = analyze_wavefront(&m, &plan, &[]);
        assert!(wf.eligible());
        assert_eq!(wf.n_waves(), 1);
        assert_eq!(wf.n_chunks(), 1, "the cycle is one chunk");
        against_the_oracle(&m, &wf, None);
    }

    #[test]
    fn a_cycle_with_nothing_in_flight_deadlocks_like_the_rendezvous_run() {
        // Two passes in a cycle: balanced traffic (so the batch proof
        // accepts), but both start with a pop from an empty ring — the
        // sweep must diagnose, not spin, and name what the oracle names.
        let mut b = ProcIrBuilder::new();
        for (label, inp, out) in [("fwd", 0, 1), ("bwd", 1, 0)] {
            b.begin(label);
            b.op(ProcOp::Pass { inp, out, n: 2 });
            b.finish();
        }
        let m = b.build();
        let plan = analyze(&m);
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        let wf = analyze_wavefront(&m, &plan, &[]);
        let err = run_wavefront(&m, &wf, None, false).unwrap_err();
        let d = err.as_deadlock().expect("deadlock, not another error");
        assert_eq!(d.blocked, ["fwd [recv@0]", "bwd [recv@1]"]);
        let oracle = Network::of(&m).run().unwrap_err();
        assert_eq!(oracle.as_deadlock().unwrap().blocked, d.blocked);
    }

    #[test]
    fn a_blocked_par_set_names_every_link_it_waits_on() {
        // One compute cell whose two moving links each loop back through
        // a relay: nothing is ever in flight, so the cell stays blocked
        // on its whole par-receive, and both engines must name both
        // receives.
        let mut b = ProcIrBuilder::new();
        b.begin("cell");
        b.op(ProcOp::Compute { count: 1 });
        let link = |slot, inp, out| crate::procir::MovingLink { slot, inp, out };
        b.repeater(&[link(0, 0, 1), link(1, 2, 3)], &[0], &[1], 2);
        b.finish();
        b.relay(1, 0, 1, "back-a");
        b.relay(3, 2, 1, "back-b");
        let m = b.build();
        let plan = analyze(&m);
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        let wf = analyze_wavefront(&m, &plan, &[]);
        let err = run_wavefront(&m, &wf, None, false).unwrap_err();
        let d = err.as_deadlock().expect("deadlock, not another error");
        let oracle = Network::of(&m).run().unwrap_err();
        assert_eq!(d.blocked, oracle.as_deadlock().unwrap().blocked);
        assert_eq!(d.blocked[0], "cell [recv@0,recv@2]");
    }

    #[test]
    fn ineligible_modules_carry_the_batch_reason() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1], "src-a");
        b.source(0, &[2], "src-b");
        b.sink(0, 2, "sink");
        let m = b.build();
        let plan = analyze(&m);
        let wf = analyze_wavefront(&m, &plan, &[]);
        assert!(!wf.eligible());
        assert!(wf.reject_reason().unwrap().contains("two producers"));
    }

    /// The cell of [`compute_module`] with its host fringe: `a` moving
    /// on 0 → 1 through slot 0, `c` kept from 2 and ejected on 3 through
    /// slot 1, three iterations from index point 0.
    fn compute_cell(b: &mut ProcIrBuilder) {
        use crate::procir::{MovingLink, ProcOp};
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
    }

    /// A one-cell compute module (`c := c + a` over 3 iterations, `a`
    /// moving) — the smallest module that exercises the full
    /// gather/tape/scatter cycle.
    fn compute_module() -> Arc<ProcIrModule> {
        use crate::kernel::{Kernel, KernelOp};
        let mut b = ProcIrBuilder::new();
        compute_cell(&mut b);
        b.set_kernel(Arc::new(Kernel {
            ops: vec![KernelOp::Slot(1), KernelOp::Slot(0), KernelOp::Add(0, 1)],
            writes: vec![(1, 2)],
            n_slots: 2,
            n_dims: 0,
        }));
        b.build()
    }

    #[test]
    fn kernel_path_matches_the_scalar_run_bit_for_bit() {
        use crate::kernel::analyze_kernels;
        let m = compute_module();
        let plan = analyze(&m);
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        let wf = analyze_wavefront(&m, &plan, &[]);
        let kp = analyze_kernels(&m, &wf);
        assert!(kp.compiled, "{:?}", kp.reject);
        assert_eq!(kp.eligible_chunks, 1, "{:?}", kp.fallbacks());
        let (ss, souts, soff) = run_wavefront(&m, &wf, None, false).unwrap();
        assert_eq!(soff, KernelReport::default());
        let (ks, kouts, kon) = run_wavefront(&m, &wf, Some(&kp), false).unwrap();
        assert!(kon.compiled);
        assert_eq!(kon.iterations, 3, "all repeater iterations fused");
        assert!(kon.waves_fused >= 1);
        assert_eq!(ks, ss, "logical stats invariant across kernel gate");
        assert_eq!(souts, kouts);
        assert_eq!(kouts[1], vec![10 + 2 + 3 + 4]);
    }

    /// `lanes` independent cells — one wave of compute windows, one
    /// kernel batch of that many lanes. In each, `a` moves through slot 0
    /// and `b` through slot 1, `c` is kept into slot 2 and ejected, over
    /// three iterations from the index point `point(cell).0` in steps of
    /// `point(cell).1`, running `kernel`.
    fn cells_module(
        lanes: usize,
        kernel: crate::kernel::Kernel,
        point: impl Fn(usize) -> (i64, i64),
    ) -> Arc<ProcIrModule> {
        use crate::procir::{MovingLink, ProcOp};
        let mut b = ProcIrBuilder::new();
        for cell in 0..lanes {
            let (c0, v) = (6 * cell, cell as i64);
            let link = |slot: u32| MovingLink {
                slot,
                inp: c0 + 2 * slot as usize,
                out: c0 + 2 * slot as usize + 1,
            };
            let (first, increment) = point(cell);
            b.begin(format!("cell{cell}"));
            b.op(ProcOp::Keep {
                chan: c0 + 4,
                slot: 2,
            });
            b.op(ProcOp::Compute { count: 3 });
            b.op(ProcOp::Eject {
                chan: c0 + 5,
                slot: 2,
            });
            b.repeater(&[link(0), link(1)], &[first], &[increment], 3);
            b.finish();
            b.source(c0, &[v + 2, v + 3, v + 4], "a-in");
            b.source(c0 + 2, &[5 - v, 7, v - 6], "b-in");
            b.source(c0 + 4, &[10 * v], "c-in");
            b.sink(c0 + 1, 3, "a-out");
            b.sink(c0 + 3, 3, "b-out");
            b.sink(c0 + 5, 1, "c-out");
        }
        b.set_kernel(Arc::new(kernel));
        b.build()
    }

    /// Kernel run, scalar-sweep run (no kernel plan) and rendezvous run
    /// of `m` agree bit for bit; returns the outputs and the kernel report.
    fn kernel_path_is_invisible(
        m: &Arc<ProcIrModule>,
        ctx: &str,
    ) -> (Vec<Vec<Value>>, KernelReport) {
        let plan = analyze(m);
        assert!(plan.batchable(), "{ctx}: {:?}", plan.reject_reason());
        let wf = analyze_wavefront(m, &plan, &[]);
        let kp = crate::kernel::analyze_kernels(m, &wf);
        let (scalar, _) = against_the_oracle(m, &wf, None);
        let ((ks, kouts), report) = against_the_oracle(m, &wf, Some(&kp));
        assert_eq!(
            (ks, kouts),
            scalar,
            "{ctx}: stats and outputs invariant with and without kernels"
        );
        (scalar.1, report)
    }

    #[test]
    fn pass_through_and_batch_advance_are_decided_per_link_and_per_tape() {
        use crate::kernel::{Kernel, KernelOp::*};
        // `c += a * b; a := -a`: slot 0 is written from the stream
        // section, so `a` sends the negation's row while `b` sends its
        // gathered input; `c` is an `add` fold.
        let writes_a = Kernel {
            ops: vec![Slot(2), Slot(0), Slot(1), Mul(1, 2), Add(0, 3), Neg(1)],
            writes: vec![(2, 4), (0, 5)],
            n_slots: 3,
            n_dims: 0,
        };
        // `c += a * x0`: both links pass through, and the index is read
        // as a row expanded from each lane's point and increment.
        let reads_x = Kernel {
            ops: vec![Slot(2), Slot(0), Index(0), Mul(1, 2), Add(0, 3)],
            writes: vec![(2, 4)],
            n_slots: 3,
            n_dims: 1,
        };
        for (name, kernel) in [("writes a", writes_a), ("reads x", reads_x)] {
            for lanes in [1usize, 3] {
                let ctx = format!("{name}, {lanes} lane(s)");
                let point = |cell: usize| (10 * cell as i64, cell as i64 + 1);
                let m = cells_module(lanes, kernel.clone(), point);
                let (outs, report) = kernel_path_is_invisible(&m, &ctx);
                assert_eq!(report.eligible_chunks, lanes as u64, "{ctx}");
                assert_eq!(report.lanes, lanes as u64 * report.batches, "{ctx}");
                assert_eq!(report.iterations, 3 * lanes as u64, "{ctx}");
                // Hand-evaluated, cell by cell: sinks are a, b, c.
                for (cell, out) in outs.chunks(3).enumerate() {
                    let v = cell as i64;
                    let (a, b) = ([v + 2, v + 3, v + 4], [5 - v, 7, v - 6]);
                    let (x0, dx) = point(cell);
                    let term = |i: usize| match name {
                        "writes a" => a[i] * b[i],
                        _ => a[i] * (x0 + dx * i as i64),
                    };
                    let sent_a = if name == "writes a" { a.map(|a| -a) } else { a };
                    assert_eq!(out[0], sent_a, "{ctx}: a of cell {cell}");
                    assert_eq!(out[1], b, "{ctx}: b of cell {cell}");
                    assert_eq!(out[2], [10 * v + term(0) + term(1) + term(2)], "{ctx}");
                }
            }
        }
    }

    /// `c += k·a` in a tape of `KERNEL_MAX_OPS − 6` ops (`k` is the op
    /// count less two): local `c` is slot `c`, `a` is slot `a`.
    fn long_tape(c: u32, a: u32) -> crate::kernel::Kernel {
        use crate::kernel::{Kernel, KernelOp::*, KERNEL_MAX_OPS};
        let n = (KERNEL_MAX_OPS - 6) as u32;
        let mut ops = vec![Slot(c), Slot(a)];
        ops.extend((2..n - 1).map(|r| Add(r - 1, 1)));
        ops.push(Add(0, n - 2));
        Kernel {
            ops,
            writes: vec![(c, n - 1)],
            n_slots: c.max(a) + 1,
            n_dims: 0,
        }
    }

    /// The lane-iterations one batch of `m`'s kernel plan may hold.
    fn batch_fit(m: &Arc<ProcIrModule>) -> usize {
        let wf = analyze_wavefront(m, &analyze(m), &[]);
        let kp = crate::kernel::analyze_kernels(m, &wf);
        crate::kernel::KERNEL_BATCH_VALUES / kp.split().expect("an eligible chunk").row_values()
    }

    #[test]
    fn a_batch_over_the_scratch_bound_is_cut_by_iterations() {
        use crate::procir::{MovingLink, ProcOp};
        // One cell, 4 096 iterations: the long tape's rows for all of them
        // would be about a million values.
        const N: usize = WAVEFRONT_RING_CAP as usize;
        let mut b = ProcIrBuilder::new();
        b.begin("comp");
        b.op(ProcOp::Keep { chan: 2, slot: 1 });
        b.op(ProcOp::Compute { count: N as u64 });
        b.op(ProcOp::Eject { chan: 3, slot: 1 });
        let link = MovingLink {
            slot: 0,
            inp: 0,
            out: 1,
        };
        b.repeater(&[link], &[0], &[1], 1);
        b.finish();
        let a: Vec<Value> = (0..N as Value).map(|i| i % 13 - 6).collect();
        b.source(0, &a, "a-in");
        b.source(2, &[10], "c-in");
        b.sink(1, N, "a-out");
        b.sink(3, 1, "c-out");
        let tape = long_tape(1, 0);
        let k = tape.ops.len() as Value - 2;
        b.set_kernel(Arc::new(tape));
        let m = b.build();
        let fit = batch_fit(&m);
        assert!(fit < N, "{fit} lane-iterations fit");
        let (outs, report) = kernel_path_is_invisible(&m, "one long lane");
        assert_eq!(report.iterations, N as u64);
        assert_eq!(report.batches, N.div_ceil(fit) as u64, "cut by iterations");
        assert_eq!(outs[1], [10 + k * a.iter().sum::<Value>()]);
    }

    #[test]
    fn a_wave_over_the_scratch_bound_is_cut_by_lanes() {
        // One more cell than fit in a batch of one iteration each: the
        // lanes left out wait for the next batch.
        let cells = |lanes| cells_module(lanes, long_tape(2, 0), |cell| (cell as i64, 1));
        let lanes = batch_fit(&cells(1)) + 1;
        let m = cells(lanes);
        let (_, report) = kernel_path_is_invisible(&m, "wide wave");
        assert_eq!(report.iterations, 3 * lanes as u64);
        assert!(report.batches > 3, "{report:?}");
    }

    /// The index point obeys the overflow law of `Value` arithmetic: it
    /// wraps, in every profile, on the scalar path, on the kernel path
    /// and in the rendezvous VM alike.
    #[test]
    fn index_point_wraps_alike_on_every_path() {
        use crate::kernel::{Kernel, KernelOp::*};
        const HALF: i64 = i64::MAX / 2;
        // `c += x0` from x0 = HALF in steps of HALF: the third iteration
        // reads a point past `i64::MAX`.
        let kernel = Kernel {
            ops: vec![Slot(2), Index(0), Add(0, 1)],
            writes: vec![(2, 2)],
            n_slots: 3,
            n_dims: 1,
        };
        // c starts at 0 and adds the points HALF, 2·HALF, 3·HALF (wrapped).
        let by_hand = (1..=3).fold(0i64, |c, k| c.wrapping_add(HALF.wrapping_mul(k)));
        assert!(
            (2 * HALF).checked_add(HALF).is_none(),
            "the third point wraps"
        );
        let m = cells_module(1, kernel, |_| (HALF, HALF));
        // The rendezvous interpreter, which `kernel_path_is_invisible`
        // holds both paths to, advances the same point.
        let (outs, report) = kernel_path_is_invisible(&m, "wrapping point");
        assert_eq!(report.iterations, 3);
        assert_eq!(outs[2], [by_hand]);
    }

    /// Three cells in a ring, `N_RING` iterations each: link 0 moves `a`
    /// from cell `c` to cell `c + 1` over channel `c`, link 1 each cell's
    /// own `b` from a source to a sink, through the slots `slots(c)`
    /// names; slot 2 is kept, accumulated and ejected (`a := a + b;
    /// b := b + x0; s2 := s2 + a·b`). The cells feed each other iteration
    /// by iteration, so their repeaters are one chunk. With `in_flight`,
    /// cell 0 first passes two values onto the ring and cell 1 drains two
    /// after its repeater.
    fn compute_ring(in_flight: bool, slots: impl Fn(usize) -> [u32; 2]) -> Arc<ProcIrModule> {
        use crate::kernel::{Kernel, KernelOp::*};
        use crate::procir::MovingLink;
        const N_RING: usize = 4;
        let mut b = ProcIrBuilder::new();
        for c in 0..3 {
            let (own, v) = (3 + 4 * c, c as Value);
            b.begin(format!("cell{c}"));
            b.op(ProcOp::Keep {
                chan: own + 2,
                slot: 2,
            });
            if in_flight && c == 0 {
                b.op(ProcOp::Pass {
                    inp: 15,
                    out: 0,
                    n: 2,
                });
            }
            b.op(ProcOp::Compute {
                count: N_RING as u64,
            });
            if in_flight && c == 1 {
                b.op(ProcOp::Pass {
                    inp: 0,
                    out: 16,
                    n: 2,
                });
            }
            b.op(ProcOp::Eject {
                chan: own + 3,
                slot: 2,
            });
            let [ring, stream] = slots(c);
            let links = [
                MovingLink {
                    slot: ring,
                    inp: (c + 2) % 3,
                    out: c,
                },
                MovingLink {
                    slot: stream,
                    inp: own,
                    out: own + 1,
                },
            ];
            b.repeater(&links, &[10 * v], &[v + 1], 3);
            b.finish();
            b.source(own, &[v + 2, 5 - v, -v, 7], "b-in");
            b.sink(own + 1, N_RING, "b-out");
            b.source(own + 2, &[100 * v], "s-in");
            b.sink(own + 3, 1, "s-out");
        }
        if in_flight {
            b.source(15, &[7, -3], "ring-in");
            b.sink(16, 2, "ring-out");
        }
        b.set_kernel(Arc::new(Kernel {
            ops: vec![
                Slot(0),
                Slot(1),
                Add(0, 1),
                Index(0),
                Add(1, 3),
                Slot(2),
                Mul(0, 1),
                Add(5, 6),
            ],
            writes: vec![(0, 2), (1, 4), (2, 7)],
            n_slots: 3,
            n_dims: 1,
        }));
        b.build()
    }

    /// The one cyclic chunk of `wf`.
    fn the_cycle(wf: &WavefrontPlan) -> usize {
        assert_eq!(wf.cyclic_chunks(), 1);
        (0..wf.n_chunks()).find(|&k| wf.chunk(k).len() > 1).unwrap()
    }

    #[test]
    fn a_compute_ring_runs_its_schedule_bit_for_bit_like_the_fixpoint() {
        let m = compute_ring(true, |_| [0, 1]);
        let (outs, report) = kernel_path_is_invisible(&m, "compute ring");
        let wf = analyze_wavefront(&m, &analyze(&m), &[]);
        assert_eq!(wf.chunk(the_cycle(&wf)).len(), 3, "the three repeaters");
        // The three repeaters are the one eligible chunk, and every
        // iteration ran on the schedule: cell 1 first, on the values in
        // flight, then around the ring.
        assert_eq!(report.eligible_chunks, 1, "{report:?}");
        assert_eq!((report.iterations, report.lanes), (12, 12), "{report:?}");
        let kp = crate::kernel::analyze_kernels(&m, &wf);
        let cycles = kp.json().get("cycles").unwrap().to_string();
        assert!(cycles.contains(r#""fires":12"#), "{cycles}");
        assert_eq!(outs.len(), 3 * 2 + 1, "every sink");
        assert_eq!(outs[6].len(), 2, "the values drained off the ring");
    }

    #[test]
    fn a_boundary_ring_narrower_than_its_traffic_leaves_the_ring_to_the_fixpoint() {
        let m = compute_ring(true, |_| [0, 1]);
        let mut wf = analyze_wavefront(&m, &analyze(&m), &[]);
        let kp = crate::kernel::analyze_kernels(&m, &wf);
        assert_eq!(kp.eligible_chunks, 1, "{:?}", kp.fallbacks());
        // Cell 0's own stream holds one of the four values its repeater
        // reads when the chunk is reached: the precondition fails.
        wf.capacities[3] = 1;
        let (scalar, _) = against_the_oracle(&m, &wf, None);
        let (kernel, report) = against_the_oracle(&m, &wf, Some(&kp));
        assert_eq!(kernel, scalar, "the same answer and counts");
        assert_eq!((report.eligible_chunks, report.iterations), (1, 0));
        let wide = analyze_wavefront(&m, &analyze(&m), &[]);
        let ((_, wide), _) = against_the_oracle(&m, &wide, None);
        assert_eq!(scalar.1, wide, "the narrow ring changes no stream");
    }

    #[test]
    fn a_compute_ring_with_nothing_in_flight_deadlocks_as_before() {
        use crate::kernel::analyze_kernels;
        let m = compute_ring(false, |_| [0, 1]);
        let plan = analyze(&m);
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        let wf = analyze_wavefront(&m, &plan, &[]);
        the_cycle(&wf);
        let kp = analyze_kernels(&m, &wf);
        let incomplete = "cyclic chunk (3 compute windows): its firing schedule is incomplete";
        assert!(
            kp.fallbacks().contains(&(incomplete.into(), 1)),
            "{:?}",
            kp.fallbacks()
        );
        let blocked = |kernels| {
            let err = run_wavefront(&m, &wf, kernels, false).unwrap_err();
            err.as_deadlock().expect("a deadlock").blocked.clone()
        };
        // Each cell has taken its own stream's value and waits on the
        // ring, on either path; the rendezvous run blocks its sources too.
        let today = blocked(None);
        assert_eq!(blocked(Some(&kp)), today);
        let cells: Vec<_> = today.iter().filter(|b| b.starts_with("cell")).collect();
        assert_eq!(
            cells,
            ["cell0 [recv@2]", "cell1 [recv@0]", "cell2 [recv@1]"]
        );
        let oracle = Network::of(&m)
            .run()
            .unwrap_err()
            .as_deadlock()
            .unwrap()
            .blocked
            .clone();
        assert!(cells.iter().all(|c| oracle.contains(c)), "{oracle:?}");
    }

    #[test]
    fn a_cycle_whose_windows_differ_in_slot_layout_stays_scalar() {
        use crate::kernel::analyze_kernels;
        let m = compute_ring(true, |c| if c == 2 { [1, 0] } else { [0, 1] });
        let wf = analyze_wavefront(&m, &analyze(&m), &[]);
        the_cycle(&wf);
        let kp = analyze_kernels(&m, &wf);
        assert_eq!(kp.eligible_chunks, 0);
        let layout = ("moving-slot layout differs from the batch's".to_string(), 1);
        assert!(kp.fallbacks().contains(&layout), "{:?}", kp.fallbacks());
        assert!(kp.json().get("cycles").is_none());
        kernel_path_is_invisible(&m, "mixed layouts");
    }

    #[test]
    fn transport_chunks_fall_back_with_a_reason() {
        use crate::kernel::analyze_kernels;
        let m = compute_module();
        let plan = analyze(&m);
        let wf = analyze_wavefront(&m, &plan, &[]);
        // comp is cut into keep / repeater / eject; with the two sources
        // and two sinks that is seven windows, none on a cycle.
        assert_eq!(
            (wf.n_chunks(), wf.cyclic_chunks(), wf.largest_chunk()),
            (7, 0, 1)
        );
        let kp = analyze_kernels(&m, &wf);
        // The report counts the repeater and the four transport
        // processes — not comp's keep and eject windows.
        assert_eq!((kp.eligible_chunks, kp.scalar_chunks), (1, 4));
        let transport = ("transport process (no compute op)".to_string(), 4);
        assert_eq!(
            kp.fallbacks(),
            vec![transport],
            "sources and sinks stay scalar"
        );
    }

    /// A cell whose load phase is long: `pass 10 000` on its own channel
    /// pair, then `keep`, the repeater, `eject`. The pass overruns
    /// [`WAVEFRONT_RING_CAP`], so in the first grand sweep the load window
    /// blocks, the repeater (and the eject window after it) is visited
    /// while not yet startable, and everything on the repeater's own
    /// channels has already retired: only the program-order edge can wake
    /// it. `linked: false` makes the repeater one without moving links,
    /// which retires without touching a ring and must still wake the
    /// eject window.
    fn long_load_module(linked: bool) -> Arc<ProcIrModule> {
        use crate::kernel::{Kernel, KernelOp::*};
        use crate::procir::{MovingLink, ProcOp};
        const N: usize = 10_000;
        let mut b = ProcIrBuilder::new();
        b.begin("comp");
        b.op(ProcOp::Pass {
            inp: 4,
            out: 5,
            n: N as u64,
        });
        b.op(ProcOp::Keep { chan: 2, slot: 1 });
        b.op(ProcOp::Compute { count: 3 });
        b.op(ProcOp::Eject { chan: 3, slot: 1 });
        let a = [MovingLink {
            slot: 0,
            inp: 0,
            out: 1,
        }];
        b.repeater(if linked { &a } else { &[] }, &[0], &[1], 2);
        b.finish();
        if linked {
            b.source(0, &[2, 3, 4], "a-in");
            b.sink(1, 3, "a-out");
        }
        b.source(2, &[10], "c-in");
        b.sink(3, 1, "c-out");
        b.source(4, &(0..N as i64).collect::<Vec<_>>(), "load-in");
        b.sink(5, N, "load-out");
        // c += a + x0
        b.set_kernel(Arc::new(Kernel {
            ops: vec![Slot(1), Slot(0), Index(0), Add(1, 2), Add(0, 3)],
            writes: vec![(1, 4)],
            n_slots: 2,
            n_dims: 1,
        }));
        b.build()
    }

    #[test]
    fn a_window_blocked_on_the_ring_clamp_wakes_its_successors_in_program_order() {
        for linked in [true, false] {
            let m = long_load_module(linked);
            let plan = analyze(&m);
            assert!(plan.batchable(), "{:?}", plan.reject_reason());
            let wf = analyze_wavefront(&m, &plan, &[]);
            assert_eq!(wf.cyclic_chunks(), 0, "linked: {linked}");
            assert_eq!(wf.max_capacity(), WAVEFRONT_RING_CAP);
            let ((ws, wouts), _) = against_the_oracle(&m, &wf, None);
            assert!(
                ws.rounds > 1,
                "linked {linked}: the load pass overruns the clamp"
            );
            // c = 10 + Σ (a + x) over x = 0, 1, 2; `a` stays 0 unlinked.
            let c_out = if linked { 1 } else { 0 };
            let expected = if linked { 10 + 2 + 3 + 4 + 3 } else { 10 + 3 };
            assert_eq!(wouts[c_out], vec![expected], "linked: {linked}");
        }
    }

    #[test]
    fn a_sender_blocked_on_a_full_ring_is_woken_by_the_window_that_drains_it() {
        // Channel 1 carries two phases whose cuts align — `a`'s load pass
        // feeds `b`'s, `a`'s eject feeds `b`'s recover pass — and one
        // value more than the clamp. `a`'s eject blocks on the ring its
        // own load pass filled; the window that drains it is `b`'s load
        // pass, which no value interval joins to the eject. The two
        // relays put that window in the eject's wave, behind it.
        use crate::kernel::{Kernel, KernelOp::*};
        use crate::procir::ProcOp;
        const N: usize = WAVEFRONT_RING_CAP as usize;
        let mut b = ProcIrBuilder::new();
        b.begin("a");
        b.op(ProcOp::Pass {
            inp: 0,
            out: 1,
            n: N as u64,
        });
        b.op(ProcOp::Compute { count: 1 });
        b.op(ProcOp::Eject { chan: 1, slot: 0 });
        b.repeater(&[], &[0], &[1], 1);
        b.finish();
        b.begin("b");
        b.collect(5);
        b.op(ProcOp::Pass {
            inp: 1,
            out: 2,
            n: N as u64,
        });
        b.op(ProcOp::Compute { count: 1 });
        b.op(ProcOp::Pass {
            inp: 1,
            out: 2,
            n: 1,
        });
        b.repeater(&[], &[0], &[1], 1);
        b.finish();
        b.source(0, &(0..N as i64).collect::<Vec<_>>(), "load-in");
        b.sink(2, N + 1, "out");
        b.source(3, &[7], "late-in");
        b.relay(3, 4, 1, "late-a");
        b.relay(4, 5, 1, "late-b");
        // s0 += 40 + x0
        b.set_kernel(Arc::new(Kernel {
            ops: vec![Slot(0), Const(40), Index(0), Add(1, 2), Add(0, 3)],
            writes: vec![(0, 4)],
            n_slots: 1,
            n_dims: 1,
        }));
        let m = b.build();
        let plan = analyze(&m);
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        let wf = analyze_wavefront(&m, &plan, &[]);
        assert_eq!(wf.cyclic_chunks(), 0);
        assert_eq!(wf.capacities[1], WAVEFRONT_RING_CAP, "one value short");
        let ((ws, _), _) = against_the_oracle(&m, &wf, None);
        assert!(ws.rounds > 1, "the eject waits for a later window");
    }

    #[test]
    fn ring_cap_clamp_survives_u64_max_traffic() {
        // Adversarial traffic sums must clamp to WAVEFRONT_RING_CAP
        // without overflowing the capacity arithmetic — the same
        // boundary the `Pass::n` widening regression pins, one layer up.
        // Named alongside `traffic_math_survives_u32_overflow`.
        let m = pipeline_module();
        let mut plan = analyze(&m);
        assert_eq!(plan.traffic, [200; 3]);
        assert_eq!(
            (plan.producer_of[1], plan.consumer_of[1]),
            (Some(1), Some(2))
        );
        for t in &mut plan.traffic {
            *t = u64::MAX;
        }
        let wf = analyze_wavefront(&m, &plan, &[]);
        assert!(wf.eligible());
        assert_eq!(wf.capacities, [WAVEFRONT_RING_CAP; 3]);
        // A need past the clamp raises its channel and no other.
        let wf = analyze_wavefront(&m, &plan, &[0, u64::MAX]);
        assert_eq!(
            wf.capacities,
            [WAVEFRONT_RING_CAP, u64::MAX, WAVEFRONT_RING_CAP]
        );
        // One below the clamp stays exact; the slab then holds them.
        for t in &mut plan.traffic {
            *t = WAVEFRONT_RING_CAP - 1;
        }
        let wf = analyze_wavefront(&m, &plan, &[]);
        assert_eq!(wf.capacities, [WAVEFRONT_RING_CAP - 1; 3]);
        assert_eq!(wf.ring_values(), 3 * (WAVEFRONT_RING_CAP - 1));
        // No traffic still gets one slot.
        plan.traffic = vec![0; 3];
        let wf = analyze_wavefront(&m, &plan, &[]);
        assert_eq!(wf.capacities, [1; 3]);
    }

    /// A sink expecting more than the source sends: the run wedges with
    /// the sink waiting on a recv. The plan is forced past the
    /// (unbalanced-traffic) batch proof so the executor's own deadlock
    /// reporting is exercised.
    fn deadlocking_module() -> (Arc<ProcIrModule>, WavefrontPlan) {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2], "src");
        b.sink(0, 3, "sink");
        let m = b.build();
        let plan = analyze(&m);
        assert!(!plan.batchable());
        let wf = analyze_wavefront(&m, &plan.assume_proven(), &[]);
        (m, wf)
    }

    #[test]
    fn deadlock_reports_the_blocked_wait() {
        let (m, wf) = deadlocking_module();
        let err = run_wavefront(&m, &wf, None, false).unwrap_err();
        let RunError::Deadlock(d) = err else {
            panic!("expected a deadlock, got {err:?}");
        };
        assert!(d.blocked.iter().any(|b| b.contains("recv@0")), "{d:?}");
    }

    /// `m` with its compiled kernels and without, on the calling thread
    /// (and so on its arena, whatever earlier runs left in it).
    fn both_paths(m: &Arc<ProcIrModule>) -> (Outcome, Outcome) {
        let plan = analyze(m);
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        let wf = analyze_wavefront(m, &plan, &[]);
        let kp = crate::kernel::analyze_kernels(m, &wf);
        let run = |kernels| {
            let (stats, outs, _) = run_wavefront(m, &wf, kernels, false).unwrap();
            (stats, outs)
        };
        (run(Some(&kp)), run(None))
    }

    /// The same on a thread of its own: an arena nothing has touched.
    fn on_a_fresh_arena(m: &Arc<ProcIrModule>) -> (Outcome, Outcome) {
        std::thread::scope(|s| s.spawn(|| both_paths(m)).join().unwrap())
    }

    fn arena_footprint() -> usize {
        with_arena(|arena| arena.footprint_bytes())
    }

    #[test]
    fn arena_after_a_deadlock_runs_like_a_fresh_one() {
        let (m, wf) = deadlocking_module();
        assert!(run_wavefront(&m, &wf, None, false).is_err());
        let m = pipeline_module();
        assert_eq!(both_paths(&m), on_a_fresh_arena(&m));
    }

    #[test]
    fn arena_after_a_panicking_body_runs_like_a_fresh_one() {
        use crate::kernel::{analyze_kernels, Kernel, KernelOp};
        // `compute_module`'s cell with a tape that reads slot 2 of its
        // two locals. The chunk check sends it to the one-lane path,
        // whose slice index panics in the first iteration — mid-repeater,
        // `a` popped, values in flight on the rings. The service's pool
        // wraps every job in `catch_unwind` just like this.
        let mut b = ProcIrBuilder::new();
        compute_cell(&mut b);
        b.set_kernel(Arc::new(Kernel {
            ops: vec![KernelOp::Slot(2)],
            writes: vec![(1, 0)],
            n_slots: 3,
            n_dims: 0,
        }));
        let bad = b.build();
        let plan = analyze(&bad);
        let wf = analyze_wavefront(&bad, &plan, &[]);
        let kp = analyze_kernels(&bad, &wf);
        let slots = ("kernel slots exceed process locals".to_string(), 1);
        assert!(kp.fallbacks().contains(&slots), "{:?}", kp.fallbacks());
        let run = std::panic::AssertUnwindSafe(|| run_wavefront(&bad, &wf, Some(&kp), false));
        let unwound = std::panic::catch_unwind(run);
        assert!(unwound.is_err(), "the body's panic unwinds through the run");
        let m = compute_module();
        assert_eq!(both_paths(&m), on_a_fresh_arena(&m));
    }

    #[test]
    fn arena_shrinks_and_regrows_without_allocating() {
        let (large, small) = (long_load_module(true), compute_module());
        let first = both_paths(&large);
        let grown = arena_footprint();
        assert_eq!(both_paths(&small), on_a_fresh_arena(&small));
        // The small run adds its kernel scratch and gives nothing back.
        let kept = arena_footprint();
        assert!(kept >= grown, "the small run released {grown} -> {kept}");
        assert_eq!(both_paths(&large), first);
        assert_eq!(arena_footprint(), kept, "the third run grew a vector");
        assert_eq!(first, on_a_fresh_arena(&large));
    }

    #[test]
    fn arena_serves_kernel_and_scalar_runs_alternating() {
        let m = compute_module();
        let fresh = on_a_fresh_arena(&m);
        for _ in 0..3 {
            assert_eq!(both_paths(&m), fresh);
        }
        let (kernel, scalar) = fresh;
        assert_eq!(kernel, scalar);
    }
}
