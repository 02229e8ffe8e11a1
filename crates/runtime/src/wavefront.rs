//! The wavefront executor: a fourth execution engine that turns a
//! batch-eligible module into a topologically staged sweep.
//!
//! The paper's step function assigns every elaborated operation a global
//! time step, so in the steady state the whole array advances as a
//! sequence of *wavefronts*: all sources fire, then every process one
//! hop downstream, and so on. The batched executors already exploit the
//! per-channel half of this (ring buffers let a producer run a whole
//! batch ahead — see `crate::batch`), but they still visit processes in
//! ascending pid order, which interleaves producers and consumers
//! arbitrarily and costs many macro-sweeps before a value reaches the
//! far edge of the array. This module derives the wave structure once
//! per module — a [`WavefrontPlan`] — and executes it directly:
//!
//! 1. **Graph**: the batch analysis' unique producer/consumer maps give
//!    a process dependence graph (one edge per channel between distinct
//!    endpoints).
//! 2. **Condensation**: strongly connected components are collapsed
//!    (Tarjan, iterative); each SCC becomes one *chunk* that must be
//!    fixpointed as a unit (its members feed each other).
//! 3. **Leveling**: longest-path levels on the acyclic condensation
//!    assign every chunk a *wave*. Any edge strictly increases the
//!    level, so two chunks in the same wave share **no** channel — the
//!    producer and consumer of every channel either sit in one chunk or
//!    in different waves: within a wave, each ring is touched by at most
//!    one chunk, and chunks partition the processes outright.
//! 4. **Capacities**: every channel gets a ring sized to its whole
//!    traffic (clamped to [`WAVEFRONT_RING_CAP`]) instead of the batch
//!    width — including `Keep`/`Eject` channels, whose width-1 pin the
//!    plan overrides exactly as `analyze_with_caps` does for the
//!    optimizer's delay rings — so one topological pass usually drains
//!    the entire module.
//!
//! Execution then macro-steps each chunk to a local fixpoint, wave by
//! wave ([`ProcVm::macro_step`] is the same superinstruction engine the
//! batched executors use), repeating the pass until every process
//! retires; after the first pass only chunks a moving neighbour
//! re-dirtied are revisited, so the steady state sweeps the active
//! frontier, not the module. Kernel-eligible chunks of a wave may first
//! batch their Compute iterations through the compiled tape
//! (`crate::kernel`) before the sweep certifies the fixpoint. The sweep
//! is sequential, on the calling thread, over a plain `Vec<Ring>`
//! (`docs/wavefront.md`, "Why there is no parallel mode").
//!
//! Correctness is the Kahn-network story one more time (see
//! `docs/scheduler.md` and `docs/wavefront.md`): scheduling order and
//! buffer slack change neither the value streams nor the per-op logical
//! accounting, so stores stay bit-identical to the sequential oracle and
//! `messages`/`steps` invariant; only `rounds` (grand sweeps here)
//! differs, exactly as between the rendezvous and batched engines.

use crate::batch::{BatchPlan, Ring};
use crate::coop::{Deadlock, RunError, RunStats};
use crate::json::Json;
use crate::kernel::{kernel_wave, put_scratch, take_scratch, KernelPlan, KernelReport};
use crate::process::SinkBuffer;
use crate::procir::{ProcId, ProcIrModule, ProcVm};
use std::sync::Arc;

/// The widest ring the wavefront plan will grant a channel. Sized so a
/// whole steady phase of the gallery designs fits in one wave pass while
/// bounding memory on adversarial traffic; channels busier than this
/// simply take more grand sweeps.
pub const WAVEFRONT_RING_CAP: u64 = 4096;

/// Whether a run may take the wavefront path. `Auto` engages it whenever
/// the plan proves out under the same gate as batching (rendezvous
/// policy, no recorders, FIFO schedule hook); `Off` forces the batched or
/// rendezvous fallbacks (`--wavefront off`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WavefrontMode {
    #[default]
    Auto,
    Off,
}

impl WavefrontMode {
    /// The names `--wavefront` and the service's `"wavefront"` accept, default first.
    pub const NAMES: &'static [(&'static str, WavefrontMode)] =
        &[("auto", WavefrontMode::Auto), ("off", WavefrontMode::Off)];

    // `WavefrontMode::Par` is not a mode: the frozen
    // `benchmark/src/layers.rs:115` writes that path for its
    // `wavefront_par` rung, which therefore times `Auto`. Goes with that
    // rung in the `[benchmark]` PR of ROADMAP 2(b).
    #[doc(hidden)]
    #[allow(non_upper_case_globals)]
    pub const Par: WavefrontMode = WavefrontMode::Auto;
}

/// The derived wave structure of one module: which processes advance
/// together, in which order, over how much ring slack.
pub struct WavefrontPlan {
    /// `waves[w]` is the list of chunks of wave `w`; each chunk is one
    /// strongly connected component of the process graph, as a pid list.
    /// Chunks partition the processes; every channel's endpoints are in
    /// one chunk or in strictly increasing waves.
    pub waves: Vec<Vec<Vec<ProcId>>>,
    /// Ring capacity per channel (≥ the batch width).
    pub capacities: Vec<u64>,
    /// Per chunk (wave-major order, the executor's iteration order): the
    /// chunks sharing a channel with it — the set a move must re-dirty,
    /// since only a touch of a shared ring can unblock a blocked chunk.
    pub neighbors: Vec<Vec<u32>>,
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
        self.waves.len()
    }

    pub fn n_chunks(&self) -> usize {
        self.waves.iter().map(|w| w.len()).sum()
    }

    /// The widest ring the plan grants — how far the staged sweep can
    /// run ahead of a strict per-step schedule.
    pub fn max_capacity(&self) -> u64 {
        self.capacities.iter().copied().max().unwrap_or(0)
    }

    /// The `wavefront` section of the metrics and optimizer reports:
    /// the staging shape or the reject reason, then every channel that
    /// `batch` — the analysis this plan was derived from — disqualifies.
    pub fn json(&self, batch: &BatchPlan) -> Json {
        let mut fields = match self.reject_reason() {
            None => vec![
                ("eligible", true.into()),
                ("waves", self.n_waves().into()),
                ("chunks", self.n_chunks().into()),
                ("max_ring_capacity", self.max_capacity().into()),
            ],
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

    /// Fresh rings for one run, capacities from the plan.
    pub fn rings(&self) -> Vec<Ring> {
        self.capacities
            .iter()
            .map(|&k| Ring::new(k as usize))
            .collect()
    }
}

/// Derive the wave structure from a module and its batch analysis. A
/// module the batch proof rejects is ineligible with the same reason —
/// the wavefront executor inherits every safety obligation of the
/// batched ones and adds the staging on top.
pub fn analyze_wavefront(module: &ProcIrModule, plan: &BatchPlan) -> WavefrontPlan {
    if let Some(r) = plan.reject_reason() {
        return WavefrontPlan {
            waves: Vec::new(),
            capacities: Vec::new(),
            neighbors: Vec::new(),
            reject: Some(r.to_string()),
        };
    }
    let n = module.procs.len();

    // Process dependence graph from the proven unique endpoints.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in 0..module.n_chans {
        if let (Some(p), Some(q)) = (plan.producer_of[c], plan.consumer_of[c]) {
            if p != q {
                succs[p].push(q);
            }
        }
    }
    for s in &mut succs {
        s.sort_unstable();
        s.dedup();
    }

    let comp = tarjan_sccs(&succs);
    let n_comps = comp.count;

    // Longest-path level per SCC on the condensation (Kahn order).
    let mut cedges: Vec<Vec<usize>> = vec![Vec::new(); n_comps];
    let mut indeg = vec![0usize; n_comps];
    for (u, ss) in succs.iter().enumerate() {
        for &v in ss {
            let (cu, cv) = (comp.of[u], comp.of[v]);
            if cu != cv {
                cedges[cu].push(cv);
            }
        }
    }
    for es in &mut cedges {
        es.sort_unstable();
        es.dedup();
        for &v in es.iter() {
            indeg[v] += 1;
        }
    }
    let mut level = vec![0usize; n_comps];
    let mut queue: Vec<usize> = (0..n_comps).filter(|&c| indeg[c] == 0).collect();
    let mut seen = 0;
    while let Some(u) = queue.pop() {
        seen += 1;
        for &v in &cedges[u] {
            level[v] = level[v].max(level[u] + 1);
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    debug_assert_eq!(seen, n_comps, "condensation must be acyclic");

    // Wave -> chunks, members in ascending pid order for determinism.
    let n_waves = level.iter().map(|&l| l + 1).max().unwrap_or(0);
    let mut chunk_of_comp: Vec<Vec<ProcId>> = vec![Vec::new(); n_comps];
    for pid in 0..n {
        chunk_of_comp[comp.of[pid]].push(pid);
    }
    let mut waves: Vec<Vec<Vec<ProcId>>> = vec![Vec::new(); n_waves];
    // Visit components in ascending first-pid order so the wave layout
    // (and thus the deterministic execution order) is reproducible.
    let mut order: Vec<usize> = (0..n_comps).collect();
    order.sort_unstable_by_key(|&c| chunk_of_comp[c].first().copied().unwrap_or(usize::MAX));
    for c in order {
        if !chunk_of_comp[c].is_empty() {
            waves[level[c]].push(std::mem::take(&mut chunk_of_comp[c]));
        }
    }

    // Ring capacities: every channel widens to its whole proven traffic
    // (so one topological pass can drain a steady phase outright),
    // clamped for memory, never below the batch width the optimizer's
    // delay rings may require. This deliberately overrides the batch
    // analysis' `Keep`/`Eject` width-1 pin — the same override
    // `analyze_with_caps` grants the optimizer's delay rings, and safe
    // for the same reason: extra ring slack never changes a Kahn
    // network's streams or its per-op logical accounting, only its
    // timing. Keeping the pin would throttle every pass to one value per
    // load/recover channel, forcing O(n) passes on designs with
    // stationary values.
    let capacities: Vec<u64> = (0..module.n_chans)
        .map(|c| plan.widths[c].max(plan.traffic[c].clamp(1, WAVEFRONT_RING_CAP)))
        .collect();

    // Chunk adjacency in the executor's wave-major order: for every
    // channel between distinct chunks, each endpoint must re-dirty the
    // other when it moves (new data downstream, freed space upstream).
    let mut chunk_of_pid = vec![usize::MAX; n];
    let mut next = 0usize;
    for wave in &waves {
        for chunk in wave {
            for &pid in chunk {
                chunk_of_pid[pid] = next;
            }
            next += 1;
        }
    }
    let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); next];
    for c in 0..module.n_chans {
        if let (Some(p), Some(q)) = (plan.producer_of[c], plan.consumer_of[c]) {
            let (cp, cq) = (chunk_of_pid[p], chunk_of_pid[q]);
            if cp != cq {
                neighbors[cp].push(cq as u32);
                neighbors[cq].push(cp as u32);
            }
        }
    }
    for ns in &mut neighbors {
        ns.sort_unstable();
        ns.dedup();
    }

    WavefrontPlan {
        waves,
        capacities,
        neighbors,
        reject: None,
    }
}

/// The SCC partition of a directed graph: `of[v]` is the component index
/// of vertex `v`, `count` the number of components.
struct Components {
    of: Vec<usize>,
    count: usize,
}

/// Iterative Tarjan (explicit stack — elaborated modules reach thousands
/// of processes, and relay pipes make long paths).
fn tarjan_sccs(succs: &[Vec<usize>]) -> Components {
    let n = succs.len();
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNSEEN; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut count = 0usize;
    // (vertex, next child position) call frames.
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child < succs[v].len() {
                let w = succs[v][*child];
                *child += 1;
                if index[w] == UNSEEN {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = count;
                        if w == v {
                            break;
                        }
                    }
                    count += 1;
                }
            }
        }
    }
    Components { of: comp, count }
}

/// One chunk's execution state: its member VMs (owned — chunks partition
/// the processes), per-member completion, and a private stats
/// accumulator merged after the run (the logical counts are per-op sums,
/// so the merge order is immaterial).
pub(crate) struct ChunkRunner {
    pub(crate) pids: Vec<ProcId>,
    pub(crate) vms: Vec<ProcVm>,
    pub(crate) finished: Vec<bool>,
    pub(crate) left: usize,
    pub(crate) stats: RunStats,
    /// Ring pushes/pops this chunk made in the latest wave visit
    /// (reset when the wave loop claims the chunk).
    pub(crate) moved: u64,
}

impl ChunkRunner {
    /// Macro-step the chunk to a local fixpoint against the rings. A
    /// single-member chunk needs exactly one call (`macro_step` is
    /// already greedy to blockage); a cyclic chunk iterates until a pass
    /// moves nothing.
    fn sweep(&mut self, rings: &mut [Ring]) {
        loop {
            let mut pass_moved = 0u64;
            for i in 0..self.vms.len() {
                if self.finished[i] {
                    continue;
                }
                if self.vms[i].macro_step(rings, &mut self.stats, &mut pass_moved) {
                    self.finished[i] = true;
                    self.left -= 1;
                }
            }
            self.moved += pass_moved;
            if pass_moved == 0 || self.pids.len() == 1 {
                break;
            }
        }
    }
}

/// Run a module through its wavefront plan: passes of topologically
/// staged chunk fixpoints until every process retires. Chunks are
/// *dirty-tracked*: after the first pass a chunk is re-swept only when a
/// neighbour moved values through a shared ring (new data downstream,
/// freed space upstream) — a blocked chunk cannot otherwise have become
/// runnable, so the steady state sweeps the active frontier instead of
/// the whole module. Chunks are visited in wave-major order on the
/// calling thread. `stats.rounds` counts passes. A pass that moves
/// nothing with unfinished processes left is a deadlock, reported in the
/// engines' usual `label [wait,...]` shape.
///
/// `kernels` (from [`crate::kernel::analyze_kernels`], memoized
/// upstream) switches eligible chunks onto the struct-of-arrays kernel
/// path before each wave's ordinary sweep; `None` (`--kernel off`, or a
/// module without a compiled kernel) runs everything scalar. Either way
/// the stores and the logical `messages`/`steps` are identical — the
/// returned [`KernelReport`] is the only observable difference.
pub fn run_wavefront(
    module: &Arc<ProcIrModule>,
    plan: &WavefrontPlan,
    kernels: Option<&KernelPlan>,
    // Ignored: the frozen `benchmark/src/stages.rs:106` passes a fourth
    // `bool`. Goes with that call in the `[benchmark]` PR of ROADMAP 2(b).
    _parallel: bool,
) -> Result<(RunStats, Vec<SinkBuffer>, KernelReport), RunError> {
    debug_assert!(plan.eligible(), "caller checks WavefrontPlan::eligible");
    let (vms, outputs) = module.instantiate_vms(&[]);
    let n_procs = vms.len();
    let mut rings = plan.rings();

    // Flatten the chunks wave-major — the same order `plan.neighbors` is
    // indexed in — remembering each wave's chunk range.
    let mut pool: Vec<Option<ProcVm>> = vms.into_iter().map(Some).collect();
    let mut runners: Vec<ChunkRunner> = Vec::with_capacity(plan.n_chunks());
    let mut wave_ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(plan.waves.len());
    for wave in &plan.waves {
        let start = runners.len();
        for chunk in wave {
            runners.push(ChunkRunner {
                pids: chunk.clone(),
                vms: chunk
                    .iter()
                    .map(|&pid| pool[pid].take().expect("chunks partition the processes"))
                    .collect(),
                finished: vec![false; chunk.len()],
                left: chunk.len(),
                stats: RunStats::default(),
                moved: 0,
            });
        }
        wave_ranges.push(start..runners.len());
    }
    let n_chunks = runners.len();

    // Kernel eligibility, aligned with the runners' wave-major order.
    let kernel = kernels
        .filter(|kp| kp.any_eligible())
        .and_then(|_| module.kernel.as_deref());
    let mut kreport = match kernels {
        Some(kp) => kp.report(true),
        None => KernelReport::default(),
    };
    let kern_ok: &[bool] = match kernels {
        Some(kp) if kernel.is_some() => {
            debug_assert_eq!(kp.chunk_ok.len(), n_chunks, "plan/chunk order mismatch");
            &kp.chunk_ok
        }
        _ => &[],
    };
    let mut scratch = take_scratch();
    let mut kern_work: Vec<usize> = Vec::new();

    let mut dirty = vec![true; n_chunks];
    let mut work: Vec<usize> = Vec::with_capacity(n_chunks);
    let mut unfinished = n_procs;
    let mut rounds = 0u64;
    while unfinished > 0 {
        let mut moved = 0u64;
        for range in &wave_ranges {
            // This wave's worklist: dirty, unfinished chunks. Claiming
            // clears the flag (and the move counter); a neighbour's
            // move below re-sets it.
            work.clear();
            for k in range.clone() {
                if dirty[k] && runners[k].left > 0 {
                    dirty[k] = false;
                    runners[k].moved = 0;
                    work.push(k);
                }
            }
            if work.is_empty() {
                continue;
            }
            // Kernel phase: batch the wave's eligible chunks through
            // the compiled tape; their trailing sweep below only drains
            // post-compute ops and certifies the fixpoint.
            if let Some(kern) = kernel {
                kern_work.clear();
                kern_work.extend(work.iter().copied().filter(|&k| kern_ok[k]));
                if !kern_work.is_empty()
                    && kernel_wave(
                        kern,
                        &kern_work,
                        &mut runners,
                        &mut rings,
                        &mut scratch,
                        &mut kreport,
                    )
                {
                    kreport.waves_fused += 1;
                }
            }
            for &k in &work {
                let c = &mut runners[k];
                c.sweep(&mut rings);
                moved += c.moved;
                if c.moved > 0 {
                    for &nb in &plan.neighbors[k] {
                        dirty[nb as usize] = true;
                    }
                }
            }
        }
        rounds += 1;
        unfinished = runners.iter().map(|c| c.left).sum();
        if moved == 0 && unfinished > 0 {
            let blocked = runners
                .iter()
                .flat_map(|c| {
                    c.pids
                        .iter()
                        .zip(&c.finished)
                        .zip(&c.vms)
                        .filter(|((_, &f), _)| !f)
                        .map(|((&pid, _), vm)| {
                            let wait = vm.macro_wait().unwrap_or_default();
                            format!("{} [{}]", module.label_of(pid), wait)
                        })
                })
                .collect();
            put_scratch(scratch);
            return Err(RunError::Deadlock(Deadlock { blocked }));
        }
    }
    put_scratch(scratch);

    let mut stats = RunStats {
        rounds,
        messages: 0,
        processes: n_procs,
        steps: 0,
    };
    for chunk in &runners {
        stats.messages += chunk.stats.messages;
        stats.steps += chunk.stats.steps;
    }
    Ok((stats, outputs, kreport))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::analyze;
    use crate::coop::run_coop_batched;
    use crate::procir::ProcIrBuilder;

    fn pipeline_module() -> Arc<ProcIrModule> {
        let mut b = ProcIrBuilder::new();
        let vals: Vec<i64> = (0..200).collect();
        b.source(0, &vals, "src");
        b.relay(0, 1, 200, "relay-a");
        b.relay(1, 2, 200, "relay-b");
        b.sink(2, 200, "sink");
        b.build(None)
    }

    #[test]
    fn plan_stages_a_pipeline_into_one_wave_chain() {
        let m = pipeline_module();
        let plan = analyze(&m);
        let wf = analyze_wavefront(&m, &plan);
        assert!(wf.eligible(), "{:?}", wf.reject_reason());
        assert_eq!(wf.n_waves(), 4, "src -> relay -> relay -> sink");
        assert_eq!(wf.n_chunks(), 4);
        // Traffic-wide rings: the whole stream fits in one pass.
        assert_eq!(wf.max_capacity(), 200);
    }

    #[test]
    fn wavefront_matches_the_batched_run_bit_for_bit() {
        let m = pipeline_module();
        let plan = analyze(&m);
        let wf = analyze_wavefront(&m, &plan);
        let (bs, bout) = run_coop_batched(&m, &plan).unwrap();
        let (ws, wout, _) = run_wavefront(&m, &wf, None, false).unwrap();
        assert_eq!(ws.messages, bs.messages);
        assert_eq!(ws.steps, bs.steps);
        assert_eq!(ws.processes, bs.processes);
        for (a, b) in bout.iter().zip(&wout) {
            assert_eq!(*a.lock(), *b.lock());
        }
    }

    #[test]
    fn a_pipeline_drains_in_a_constant_number_of_grand_sweeps() {
        let m = pipeline_module();
        let plan = analyze(&m);
        let wf = analyze_wavefront(&m, &plan);
        let (ws, _, _) = run_wavefront(&m, &wf, None, false).unwrap();
        // Topological order + traffic-wide rings: the whole 200-value
        // stream flows source->sink in the first grand sweep.
        assert_eq!(ws.rounds, 1, "one grand sweep drains the pipeline");
        let (bs, _) = run_coop_batched(&m, &plan).unwrap();
        assert!(
            bs.rounds >= ws.rounds,
            "pid-order sweeps ({}) cannot beat staged ones ({})",
            bs.rounds,
            ws.rounds
        );
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
        let m = b.build(None);
        let plan = analyze(&m);
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        let wf = analyze_wavefront(&m, &plan);
        assert!(wf.eligible());
        assert_eq!(wf.n_waves(), 1);
        assert_eq!(wf.n_chunks(), 1, "the cycle is one chunk");
        let (ws, _, _) = run_wavefront(&m, &wf, None, false).unwrap();
        let (bs, _) = run_coop_batched(&m, &plan).unwrap();
        assert_eq!((ws.messages, ws.steps), (bs.messages, bs.steps));
    }

    #[test]
    fn ineligible_modules_carry_the_batch_reason() {
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1], "src-a");
        b.source(0, &[2], "src-b");
        b.sink(0, 2, "sink");
        let m = b.build(None);
        let plan = analyze(&m);
        let wf = analyze_wavefront(&m, &plan);
        assert!(!wf.eligible());
        assert!(wf.reject_reason().unwrap().contains("two producers"));
    }

    /// A one-cell compute module (`c := c + a` over 3 iterations, `a`
    /// moving) with both the closure body and its compiled kernel tape
    /// attached — the smallest module that exercises the full
    /// gather/tape/scatter cycle.
    fn compute_module() -> Arc<ProcIrModule> {
        use crate::kernel::{Kernel, KernelOp};
        use crate::procir::{MovingLink, ProcOp};
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
        b.set_kernel(
            Some(Arc::new(Kernel {
                ops: vec![KernelOp::Slot(1), KernelOp::Slot(0), KernelOp::Add(0, 1)],
                writes: vec![(1, 2)],
                n_slots: 2,
                n_dims: 0,
            })),
            None,
        );
        b.build(Some(Arc::new(
            |locals: &mut [crate::process::Value], _x: &[i64]| {
                locals[1] += locals[0];
            },
        )))
    }

    #[test]
    fn kernel_path_matches_the_scalar_run_bit_for_bit() {
        use crate::kernel::analyze_kernels;
        let m = compute_module();
        let plan = analyze(&m);
        assert!(plan.batchable(), "{:?}", plan.reject_reason());
        let wf = analyze_wavefront(&m, &plan);
        let kp = analyze_kernels(&m, &wf);
        assert!(kp.compiled, "{:?}", kp.reject);
        assert_eq!(kp.eligible_chunks, 1, "{:?}", kp.chunk_reject);
        let (ss, souts, soff) = run_wavefront(&m, &wf, None, false).unwrap();
        assert!(!soff.enabled);
        assert_eq!(soff.iterations, 0);
        let (ks, kouts, kon) = run_wavefront(&m, &wf, Some(&kp), false).unwrap();
        assert!(kon.enabled && kon.compiled);
        assert_eq!(kon.iterations, 3, "all repeater iterations fused");
        assert!(kon.waves_fused >= 1);
        assert_eq!(ks, ss, "logical stats invariant across kernel gate");
        for (a, b) in souts.iter().zip(&kouts) {
            assert_eq!(*a.lock(), *b.lock());
        }
        assert_eq!(*kouts[1].lock(), vec![10 + 2 + 3 + 4]);
    }

    #[test]
    fn transport_chunks_fall_back_with_a_reason() {
        use crate::kernel::analyze_kernels;
        let m = compute_module();
        let plan = analyze(&m);
        let wf = analyze_wavefront(&m, &plan);
        let kp = analyze_kernels(&m, &wf);
        let fallbacks = kp.fallbacks();
        assert!(
            fallbacks
                .iter()
                .any(|(r, n)| r.contains("transport process") && *n == 4),
            "sources and sinks stay scalar: {fallbacks:?}"
        );
    }

    #[test]
    fn ring_cap_clamp_survives_u64_max_traffic() {
        // Adversarial traffic sums must clamp to WAVEFRONT_RING_CAP
        // without overflowing the capacity arithmetic — the same
        // boundary the PR 5 `Pass::n` width regression pins, one layer
        // up. Named alongside `batch_width_math_survives_u32_overflow`.
        let m = pipeline_module();
        let mut plan = analyze(&m);
        for t in &mut plan.traffic {
            *t = u64::MAX;
        }
        let wf = analyze_wavefront(&m, &plan);
        assert!(wf.eligible());
        for (c, &cap) in wf.capacities.iter().enumerate() {
            assert_eq!(cap, plan.widths[c].max(WAVEFRONT_RING_CAP), "channel {c}");
        }
        // One below the clamp stays exact; the rings then allocate.
        for t in &mut plan.traffic {
            *t = WAVEFRONT_RING_CAP - 1;
        }
        let wf = analyze_wavefront(&m, &plan);
        for (c, &cap) in wf.capacities.iter().enumerate() {
            assert_eq!(
                cap,
                plan.widths[c].max(WAVEFRONT_RING_CAP - 1),
                "channel {c}"
            );
        }
        assert_eq!(wf.rings().len(), plan.widths.len());
    }

    #[test]
    fn deadlock_reports_the_blocked_wait() {
        // A sink expecting more than the source sends: the run wedges
        // with the sink waiting on a recv.
        let mut b = ProcIrBuilder::new();
        b.source(0, &[1, 2], "src");
        b.sink(0, 3, "sink");
        let m = b.build(None);
        // Force the plan past the (unbalanced-traffic) batch proof so
        // the executor's own deadlock reporting is exercised.
        let plan = analyze(&m);
        assert!(!plan.batchable());
        let plan = plan.assume_proven();
        let wf = analyze_wavefront(&m, &plan);
        let err = run_wavefront(&m, &wf, None, false).unwrap_err();
        let RunError::Deadlock(d) = err else {
            panic!("expected a deadlock, got {err:?}");
        };
        assert!(d.blocked.iter().any(|b| b.contains("recv@0")), "{d:?}");
    }
}
