//! Two-phase elaboration — the one place a [`SystolicProgram`] becomes
//! channels and processes: a size-parametric ProcIR skeleton compiled
//! once per (plan, options), instantiated at any concrete problem size
//! in near-linear time.
//!
//! The paper's derivation is symbolic in the problem size, and the only
//! per-size facts are integers: the PS box corners, the pipe contents,
//! and the soak/count/drain values at each point. Phase 1
//! ([`elaborate_skeleton`]) runs everything that does *not* depend on
//! the size bound: it partially evaluates every schedule quantity over
//! the **extended** dimension vector `coordinates ++ sizes`
//! (`systolic_math::speceval` keeps the listed variables symbolic as
//! integer coefficients), captures each stream's unit flow, relay
//! count, and element increment, and compiles the basic statement to its
//! kernel tape once.
//! Phase 2 ([`instantiate`]) binds the size values into the tail of one
//! evaluation vector and sweeps the now-concrete PS box with pure
//! integer arithmetic — no parsing, no rational solving, no symbolic
//! clause selection.
//!
//! The construction follows Appendix C's channel discipline — stream `s`
//! has a channel family along its flow, `s_chan[y]` connecting
//! `y - flow.s -> y` — realized as one FIFO pipe per equivalence class of
//! process-space points under translation by the stream's unit flow. Each
//! pipe gets an input process at its upstream end, `d - 1` relay buffers
//! ahead of every process for a flow of denominator `d` (Sec. 7.6,
//! "inserted in between each computation process ... for the sake of
//! regularity" also ahead of the first), and an output process downstream.
//!
//! Nothing mirrors this pass, so nothing is checked by comparing it with
//! a copy of itself. The independent references are
//! `crate::runtime_gen::scan` (a brute-force index-space scan the
//! lowered soak/count/drain must match), the plan's own rational
//! `Piecewise` evaluators (`first_at` / `count_at`), the sequential
//! evaluator `systolic_ir::seq` (every executor's stores), and
//! `systolic_math::speceval`'s unit test that size-parametric and
//! size-bound specialization agree; `tests/elaboration.rs` holds the
//! first two against every corpus design, size and options variant.
//!
//! Skeletons are immutable and `Arc`-shared; the module cache
//! (`crate::cache`) sits in front of both phases, and
//! [`crate::elaborate::elaborate`] is their uncached composition.

use crate::elaborate::{
    Census, ChanAlloc, ElabError, ElabOptions, Elaborated, OutputSpec, PsIndex,
};
use std::sync::Arc;
use systolic_core::{StreamKind, SystolicProgram};
use systolic_ir::HostStore;
use systolic_math::speceval::{SpecCount, SpecPoint};
use systolic_math::{point, Env, Var};
use systolic_runtime::{ChanId, Kernel, MovingLink, ProcIrBuilder, ProcOp};

/// Everything phase 2 needs about one stream, with every schedule
/// quantity specialized over the extended dimension vector.
struct StreamSkeleton {
    /// `StreamId` index — the row of the endpoint tables.
    id: usize,
    name: String,
    kind: StreamKind,
    unit_flow: Vec<i64>,
    increment_s: Vec<i64>,
    /// Internal relay buffers per chain element (`denominator - 1`,
    /// already gated by [`ElabOptions::internal_buffers`]).
    relays: i64,
    first_s: SpecPoint,
    last_s: SpecPoint,
    soak: SpecCount,
    drain: SpecCount,
}

/// A size-parametric ProcIR skeleton: phase 1's output, consumed by
/// [`instantiate`] at each concrete size.
pub struct SkeletonModule {
    opts: ElabOptions,
    /// Process-space dimensionality (`r - 1`): the evaluation vector is
    /// `[y_0 .. y_{n_coords-1}, size_0 .. size_{k-1}]`.
    n_coords: usize,
    /// The size symbols, in `SourceProgram::sizes` order — the tail of
    /// the evaluation vector.
    size_vars: Vec<Var>,
    ps_min: Vec<systolic_math::speceval::SpecAffine>,
    ps_max: Vec<systolic_math::speceval::SpecAffine>,
    first: SpecPoint,
    count: SpecCount,
    increment: Vec<i64>,
    /// `plan.streams.len()`, the computation processes' local-slot count.
    n_slots: u32,
    /// `max(StreamId) + 1`, the endpoint-table row count.
    n_streams: usize,
    streams: Vec<StreamSkeleton>,
    /// The basic statement's kernel tape, compiled once per plan
    /// (size-independent), carried into every instantiated module.
    kernel: Arc<Kernel>,
}

impl SkeletonModule {
    pub fn options(&self) -> &ElabOptions {
        &self.opts
    }
}

/// Phase 1: compile `plan` into a size-parametric skeleton. Everything
/// symbolic is partially evaluated here — over the extended dimension
/// vector `plan.coords ++ plan.source.sizes`, with an empty environment,
/// so a variable outside that vector panics now (at compile) rather than
/// at some instantiation later.
pub fn elaborate_skeleton(plan: &SystolicProgram, opts: &ElabOptions) -> Arc<SkeletonModule> {
    use systolic_math::speceval::SpecAffine;
    let mut dims: Vec<Var> = plan.coords.clone();
    dims.extend(plan.source.sizes.iter().copied());
    let env = Env::new();
    let streams = plan
        .streams
        .iter()
        .map(|sp| StreamSkeleton {
            id: sp.id.0,
            name: sp.name.clone(),
            kind: sp.kind.clone(),
            unit_flow: sp.unit_flow.clone(),
            increment_s: sp.increment_s.clone(),
            relays: if opts.internal_buffers {
                sp.denominator - 1
            } else {
                0
            },
            first_s: SpecPoint::of_points(&sp.first_s, &dims, &env),
            last_s: SpecPoint::of_points(&sp.last_s, &dims, &env),
            soak: SpecCount::of(&sp.soak, &dims, &env),
            drain: SpecCount::of(&sp.drain, &dims, &env),
        })
        .collect();
    Arc::new(SkeletonModule {
        opts: opts.clone(),
        n_coords: plan.coords.len(),
        size_vars: plan.source.sizes.clone(),
        ps_min: plan
            .ps_min
            .iter()
            .map(|a| SpecAffine::compile(a, &dims, &env))
            .collect(),
        ps_max: plan
            .ps_max
            .iter()
            .map(|a| SpecAffine::compile(a, &dims, &env))
            .collect(),
        first: SpecPoint::of_points(&plan.first, &dims, &env),
        count: SpecCount::of(&plan.count, &dims, &env),
        increment: plan.increment.clone(),
        n_slots: plan.streams.len() as u32,
        n_streams: plan.streams.iter().map(|s| s.id.0 + 1).max().unwrap_or(0),
        streams,
        kernel: Arc::new(crate::kernelize::kernelize(&plan.source.body)),
    })
}

/// Phase 2: materialize channels, processes, and endpoint tables for the
/// concrete size bound in `env`, reading initial stream data from
/// `store` — and recording, in the same pass, where in `store` each word
/// came from ([`Elaborated::host_words`]), so that a later run reads its
/// own data into the same network. Every symbolic query is a prebaked
/// integer form evaluated at `[y ++ sizes]`.
pub fn instantiate(
    skel: &SkeletonModule,
    env: &Env,
    store: &HostStore,
) -> Result<Elaborated, ElabError> {
    let nc = skel.n_coords;
    // One evaluation vector for every query below: the size tail is
    // fixed for the whole sweep, the coordinate head is overwritten per
    // point.
    let mut yx = vec![0i64; nc + skel.size_vars.len()];
    for (slot, &v) in yx[nc..].iter_mut().zip(&skel.size_vars) {
        *slot = env.expect(v);
    }
    let ps: Vec<(i64, i64)> = skel
        .ps_min
        .iter()
        .zip(&skel.ps_max)
        .map(|(lo, hi)| (lo.eval_int(&yx), hi.eval_int(&yx)))
        .collect();
    let in_ps = |p: &[i64]| p.iter().zip(&ps).all(|(&x, &(lo, hi))| x >= lo && x <= hi);
    let ps_points = point::box_points(&ps);
    let psidx = PsIndex::new(&ps);
    let opts = &skel.opts;

    let mut chans = ChanAlloc(0);
    let mut b = ProcIrBuilder::new();
    let mut outputs = Vec::new();
    let mut host_words: Vec<u32> = Vec::new();
    let mut census = Census::default();
    // [stream][PS offset] -> (in_chan, out_chan); every in-PS point of
    // every stream lies on exactly one pipe chain, so both tables are
    // fully populated by the pipe walks below.
    let mut endpoint: Vec<Vec<(ChanId, ChanId)>> =
        vec![vec![(ChanId::MAX, ChanId::MAX); psidx.len()]; skel.n_streams];
    // [stream][PS offset] -> pipe element count
    let mut pipe_n: Vec<Vec<i64>> = vec![vec![0; psidx.len()]; skel.n_streams];

    struct PipeIo {
        entry: ChanId,
        exit: ChanId,
        head: Vec<i64>,
        tail: Vec<i64>,
        /// Flat offset into the variable's array of each pipe element.
        words: Vec<u32>,
    }

    for sp in &skel.streams {
        let u = &sp.unit_flow;
        let var = store
            .try_get(&sp.name)
            .ok_or_else(|| ElabError::MissingVariable {
                variable: sp.name.clone(),
            })?;
        let mut pipe_ios: Vec<PipeIo> = Vec::new();
        for head in &ps_points {
            if in_ps(&point::sub(head, u)) {
                continue; // not the upstream end of a pipe
            }
            let mut chain = Vec::new();
            let mut z = head.clone();
            while in_ps(&z) {
                chain.push(z.clone());
                z = point::add(&z, u);
            }
            yx[..nc].copy_from_slice(head);
            let first_s = sp.first_s.point_at(&yx);
            let last_s = sp.last_s.point_at(&yx);
            let words = match (first_s, last_s) {
                (Some(f), Some(l)) => {
                    let k = point::exact_div(&point::sub(&l, &f), &sp.increment_s).ok_or_else(
                        || ElabError::MisalignedPipe {
                            stream: sp.name.clone(),
                            head: head.clone(),
                        },
                    )?;
                    if k < 0 {
                        return Err(ElabError::ReversedPipe {
                            stream: sp.name.clone(),
                            head: head.clone(),
                        });
                    }
                    (0..=k)
                        .map(|t| {
                            let e = point::add(&f, &point::scale(t, &sp.increment_s));
                            var.flat_offset(&e).map(|at| at as u32).ok_or_else(|| {
                                ElabError::ElementOutOfBounds {
                                    variable: sp.name.clone(),
                                    element: e,
                                }
                            })
                        })
                        .collect::<Result<Vec<u32>, ElabError>>()?
                }
                _ => Vec::new(),
            };
            let n = words.len() as i64;
            for z in &chain {
                pipe_n[sp.id][psidx.at(z)] = n;
            }

            // Pipe entry channel and chain with relays ahead of every
            // process.
            let entry = chans.next();
            let mut prev = entry;
            for z in &chain {
                for r in 0..sp.relays {
                    let nxt = chans.next();
                    b.relay(
                        prev,
                        nxt,
                        n.max(0) as usize,
                        format!("buf{r}:{}@{}", sp.name, point::fmt_point(z)),
                    );
                    census.internal_buffers += 1;
                    prev = nxt;
                }
                let out = chans.next();
                endpoint[sp.id][psidx.at(z)] = (prev, out);
                prev = out;
            }
            pipe_ios.push(PipeIo {
                entry,
                exit: prev,
                head: head.clone(),
                tail: chain.last().unwrap().clone(),
                words,
            });
        }

        // Emit i/o processes: one per pipe (the paper's abstract layout)
        // or merged per stream (the deferred optimization). Either way
        // the words an input process sends are the words its output
        // process collects, in order: `host_words` grows in step with
        // the module's data segment.
        let raw = var.raw();
        if opts.merge_io {
            let max_len = pipe_ios.iter().map(|p| p.words.len()).max().unwrap_or(0);
            let mut sends = Vec::new();
            let mut recvs = Vec::new();
            let from = host_words.len() as u32;
            for t in 0..max_len {
                for p in &pipe_ios {
                    if let Some(&at) = p.words.get(t) {
                        sends.push((p.entry, raw[at as usize]));
                        recvs.push(p.exit);
                        host_words.push(at);
                    }
                }
            }
            b.scripted_source(&sends, format!("in:{}", sp.name));
            let (_, out) = b.scripted_sink(&recvs, format!("out:{}", sp.name));
            census.inputs += 1;
            census.outputs += 1;
            outputs.push(OutputSpec {
                variable: sp.name.clone(),
                output: out,
                words: (from, host_words.len() as u32),
            });
        } else {
            for p in pipe_ios {
                let values: Vec<i64> = p.words.iter().map(|&at| raw[at as usize]).collect();
                b.source(
                    p.entry,
                    &values,
                    format!("in:{}@{}", sp.name, point::fmt_point(&p.head)),
                );
                census.inputs += 1;
                let (_, out) = b.sink(
                    p.exit,
                    p.words.len(),
                    format!("out:{}@{}", sp.name, point::fmt_point(&p.tail)),
                );
                census.outputs += 1;
                let from = host_words.len() as u32;
                host_words.extend_from_slice(&p.words);
                outputs.push(OutputSpec {
                    variable: sp.name.clone(),
                    output: out,
                    words: (from, host_words.len() as u32),
                });
            }
        }
    }

    // Processes at every PS point, querying the prebaked integer forms.
    let mut comp_at = Vec::new();
    for y in &ps_points {
        let yi = psidx.at(y);
        yx[..nc].copy_from_slice(y);
        if let Some(first) = skel.first.point_at(&yx) {
            // Computation process: the canonical load / soak / repeater /
            // drain / recover shape of Appendix C–E.
            let count = skel.count.at(&yx);
            // Pre-pass over the moving streams: split propagation's escort
            // relays are separate processes and lower before the
            // computation process opens; the paper protocol's soaks are
            // ops queued for it.
            let mut moving: Vec<MovingLink> = Vec::new();
            let mut soaks: Vec<ProcOp> = Vec::new();
            for sp in &skel.streams {
                if sp.kind == StreamKind::Moving {
                    let (ic, oc) = endpoint[sp.id][yi];
                    let soak = sp.soak.at(&yx);
                    let drain = sp.drain.at(&yx);
                    if opts.split_propagation {
                        let cs = chans.next(); // splitter -> comp
                        let cm = chans.next(); // comp -> merger
                        let sm = chans.next(); // splitter -> merger
                        b.segment_relay(
                            &[
                                (ic, sm, soak.max(0) as usize),
                                (ic, cs, count.max(0) as usize),
                                (ic, sm, drain.max(0) as usize),
                            ],
                            format!("split:{}@{}", sp.name, point::fmt_point(y)),
                        );
                        b.segment_relay(
                            &[
                                (sm, oc, soak.max(0) as usize),
                                (cm, oc, count.max(0) as usize),
                                (sm, oc, drain.max(0) as usize),
                            ],
                            format!("merge:{}@{}", sp.name, point::fmt_point(y)),
                        );
                        census.escorts += 2;
                        moving.push(MovingLink {
                            slot: sp.id as u32,
                            inp: cs,
                            out: cm,
                        });
                    } else {
                        soaks.push(ProcOp::Pass {
                            inp: ic,
                            out: oc,
                            n: soak.max(0) as u64,
                        });
                        moving.push(MovingLink {
                            slot: sp.id as u32,
                            inp: ic,
                            out: oc,
                        });
                    }
                }
            }
            b.begin(format!("comp@{}", point::fmt_point(y)));
            // Loads.
            for sp in &skel.streams {
                if let StreamKind::Stationary { .. } = sp.kind {
                    let (ic, oc) = endpoint[sp.id][yi];
                    let drain = sp.drain.at(&yx);
                    b.op(ProcOp::Keep {
                        chan: ic,
                        slot: sp.id as u32,
                    });
                    b.op(ProcOp::Pass {
                        inp: ic,
                        out: oc,
                        n: drain.max(0) as u64,
                    });
                }
            }
            // Soaks (paper protocol; escorts already handle them under
            // split propagation).
            for op in &soaks {
                b.op(*op);
            }
            b.op(ProcOp::Compute {
                count: count.max(0) as u64,
            });
            // Drains (paper protocol only; escorts already handle them).
            if !opts.split_propagation {
                for sp in &skel.streams {
                    if sp.kind == StreamKind::Moving {
                        let (ic, oc) = endpoint[sp.id][yi];
                        let drain = sp.drain.at(&yx);
                        b.op(ProcOp::Pass {
                            inp: ic,
                            out: oc,
                            n: drain.max(0) as u64,
                        });
                    }
                }
            }
            // Recoveries.
            for sp in &skel.streams {
                if let StreamKind::Stationary { .. } = sp.kind {
                    let (ic, oc) = endpoint[sp.id][yi];
                    let soak = sp.soak.at(&yx);
                    b.op(ProcOp::Pass {
                        inp: ic,
                        out: oc,
                        n: soak.max(0) as u64,
                    });
                    b.op(ProcOp::Eject {
                        chan: oc,
                        slot: sp.id as u32,
                    });
                }
            }
            b.repeater(&moving, &first, &skel.increment, skel.n_slots);
            let pid = b.finish();
            comp_at.push((y.clone(), pid));
            census.computation += 1;
        } else {
            // Null process: external buffer, one relay per stream
            // (the paper composes the passes in `par`; independent relay
            // processes are the same composition).
            for sp in &skel.streams {
                let (ic, oc) = endpoint[sp.id][yi];
                let n = pipe_n[sp.id][yi];
                b.relay(
                    ic,
                    oc,
                    n.max(0) as usize,
                    format!("extbuf:{}@{}", sp.name, point::fmt_point(y)),
                );
                census.external_buffers += 1;
            }
        }
    }

    census.channels = chans.0;
    let endpoints = skel
        .streams
        .iter()
        .flat_map(|sp| {
            let row = &endpoint[sp.id];
            let psidx = &psidx;
            ps_points.iter().map(move |y| {
                let (ic, oc) = row[psidx.at(y)];
                (sp.id, y.clone(), ic, oc)
            })
        })
        .collect();
    b.set_kernel(skel.kernel.clone());
    let module = b.build();
    debug_assert_eq!(host_words.len(), module.data.len());
    Ok(Elaborated {
        module,
        outputs,
        host_words,
        census,
        endpoints,
        comp_at,
    })
}
