//! The traced pass: every per-layer metric from one run with spans on.
//!
//! The pass is cut into rounds. In each round every stage is called a
//! fixed number of times, so a stage's calls are spread over the whole
//! pass and not bunched into the one moment the shared host happens to
//! be busy; one round's calls are one block of the stage's quiet pool
//! (`measure::quiet_pool`). All call counts are fixed, so every count
//! metric repeats exactly for a given seed.

use std::collections::BTreeMap;
use std::process::Command;

use systolic_interp::{
    simulate, BatchMode, ExecutorChoice, KernelMode, ModuleStore, SimSpec, SystolicRun,
    WavefrontMode,
};

use crate::designs::{self, read_program, stores_equal, Design};
use crate::measure::{median, percentile, quiet_pool, timer_floor_ns, Budget, Op};
use crate::metrics::{LADDER_DESIGNS, LADDER_RUNGS, PROGRAMS, STAGE_DESIGNS};
use crate::stages::{self, Staged};
use crate::trace::Tracer;
use crate::workloads::cli::{systolizer_binary, Cli, ROTATION};
use crate::workloads::fresh::Fresh;
use crate::workloads::service::{self, ServiceOpen};
use crate::workloads::warm::Warm;

/// The design `warm_kernel` runs: the tracer's own cost is measured on
/// it, and one of its runs is what `render_stores` renders.
const KERNEL_DESIGN: &str = "e1_n24";
/// The design `warm_scalar` runs.
const SCALAR_DESIGN: &str = "mmsys_n24";

/// Rounds of the full pass. `--rounds 1` (smoke, determinism check) is a
/// tenth of it.
pub const ROUNDS: usize = 10;
/// Calls per round of a cheap stage: 200 calls behind each median.
const PER_ROUND: usize = 20;
/// Operations per round of each workload's short version: 1000 behind
/// `<workload>.p50_ms` and `.p99_ms`, so that ten samples lie beyond the
/// 99th percentile. They are the workloads' own operations, timed as the
/// untraced runs time them.
const WORKLOAD_OPS: usize = 100;
/// Rotations of the four `fresh_data` designs per round under the staged
/// replica: 200 cold modules per design.
const FRESH_ROTATIONS: usize = 20;
/// Seconds of the closed-loop capacity probe, per round: 2 s in all.
const CLOSED_PROBE_S: f64 = 0.2;

/// Calls per round of each rung of the engine ladder. The plain
/// rendezvous engine and the partitioned one are 6–9 times slower than
/// the rest and get fewer; the threaded one starts an OS thread per
/// process (775 here), takes 0.4 s a run — 600 times the default rung —
/// and is called once in a ladder round.
fn ladder_calls(rung: &str) -> usize {
    match rung {
        THREADED_RUNG => 1,
        "batch_off" | "partitioned2" => 4,
        _ => 10,
    }
}

/// The threaded rung runs after the rounds, this many times per ten
/// rounds: inside them it would cost a third of the pass and leave the
/// next stage a cold machine.
const THREADED_RUNG: &str = "threaded";
const THREADED_CALLS: usize = 5;

/// Rungs that start threads, and so belong to the pass's second phase.
fn spawns_threads(rung: &str) -> bool {
    matches!(rung, "wavefront_par" | "partitioned2" | THREADED_RUNG)
}

/// One round of the engine ladder over the rungs `wanted` picks, each
/// rung one `SimSpec` field away from the default.
fn ladder_round(pass: &mut Pass, warm: &[Warm], wanted: impl Fn(&str) -> bool) {
    for w in warm
        .iter()
        .filter(|w| LADDER_DESIGNS.contains(&w.design.label))
    {
        for rung in LADDER_RUNGS.into_iter().filter(|&r| wanted(r)) {
            pass.tr.context(rung, w.design.label);
            for _ in 0..ladder_calls(rung) {
                pass.tr.next_op();
                traced_simulate(
                    pass,
                    &w.ms,
                    &w.design,
                    &w.store,
                    &w.expected,
                    ladder_spec(rung),
                );
            }
        }
    }
}

fn ladder_spec(rung: &str) -> SimSpec {
    let base = SimSpec::default();
    match rung {
        "auto" => base,
        "kernel_off" => SimSpec {
            kernel: KernelMode::Off,
            ..base
        },
        "wavefront_off" => SimSpec {
            wavefront: WavefrontMode::Off,
            ..base
        },
        "batch_off" => SimSpec {
            batch: BatchMode::Off,
            ..base
        },
        "wavefront_par" => SimSpec {
            wavefront: WavefrontMode::Par,
            ..base
        },
        "threaded" => SimSpec {
            executor: ExecutorChoice::Threaded,
            ..base
        },
        "partitioned2" => SimSpec {
            executor: ExecutorChoice::Partitioned { workers: 2 },
            ..base
        },
        other => unreachable!("unknown ladder rung {other}"),
    }
}

fn ns_of(ops: &[Op]) -> Vec<u64> {
    ops.iter().map(|o| o.ns).collect()
}

/// One per-layer value with the number of calls behind it.
pub struct Row {
    pub value: f64,
    pub calls: usize,
}

pub struct Traced {
    pub rows: BTreeMap<String, Row>,
    pub attempted: u64,
    pub failed: u64,
    pub trace_json: String,
}

struct Pass {
    tr: Tracer,
    rounds: usize,
    attempted: u64,
    failed: u64,
}

impl Pass {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Quiet-pool median in microseconds of a stage's self times, one
    /// round's calls to the block.
    fn us(&self, pass: &str, name: &str, tag: &str) -> Row {
        let ns = self.tr.self_ns(pass, name, tag);
        assert!(!ns.is_empty(), "no span {pass}/{name}/{tag}");
        Row {
            value: self.quiet_median_us(&ns),
            calls: ns.len(),
        }
    }

    /// The quiet pool of a stage's call times, one round's calls to the
    /// block.
    fn pool(&self, ns: &[u64]) -> Vec<u64> {
        quiet_pool(ns, ns.len().div_ceil(self.rounds), |&n| n)
    }

    fn quiet_median_us(&self, ns: &[u64]) -> f64 {
        let us: Vec<f64> = self.pool(ns).iter().map(|&n| n as f64 / 1e3).collect();
        median(&us)
    }

    fn quiet_mean_ns(&self, ns: &[u64]) -> f64 {
        let pool = self.pool(ns);
        pool.iter().sum::<u64>() as f64 / pool.len() as f64
    }
}

/// `simulate` under a span, its store checked against `expected`.
fn traced_simulate(
    pass: &mut Pass,
    ms: &ModuleStore,
    d: &Design,
    store: &systolic_ir::HostStore,
    expected: &systolic_ir::HostStore,
    spec: SimSpec,
) -> Option<SystolicRun> {
    let s = pass.tr.begin("interp.simulate");
    let run = simulate(ms, &d.plan, &d.env, store, spec);
    pass.tr.end(s);
    let run = run.ok().filter(|r| stores_equal(&r.store, expected));
    pass.check(run.is_some());
    run
}

pub fn run(seed: u64, rounds: usize) -> Traced {
    let mut pass = Pass {
        tr: Tracer::new(),
        rounds,
        attempted: 0,
        failed: 0,
    };
    let mut rows: BTreeMap<String, Row> = BTreeMap::new();
    let count = |value: f64| Row { value, calls: 1 };

    // Phase one: everything that runs on this thread alone. No other
    // thread exists in the process yet, which is the condition the
    // in-process workloads run under — the allocator and `Arc` take
    // their single-threaded paths, worth 15–25 % of a warm `simulate`.
    let sources: Vec<String> = PROGRAMS
        .iter()
        .map(|p| read_program(&format!("programs/{p}.sys")))
        .collect();
    let fresh = Fresh::setup(seed);
    let fresh_before = fresh.ms.stats();
    let warm: Vec<Warm> = [designs::e1_n24, designs::mmsys_n24, designs::e2_n16]
        .into_iter()
        .map(|make| Warm::setup(make, seed))
        .collect();
    let mut cli = Cli::setup(seed);
    let binary = systolizer_binary();

    // The workloads' own operations, in the order they ran.
    let mut kernel_ops: Vec<Op> = Vec::new();
    let mut scalar_ops: Vec<Op> = Vec::new();
    let mut fresh_ops: Vec<Op> = Vec::new();
    let mut cli_ops: Vec<Op> = Vec::new();
    let mut staged_last: BTreeMap<&'static str, Staged> = BTreeMap::new();
    let mut e1_run: Option<SystolicRun> = None;
    let mut fresh_i = 0u64;

    for round in 0..rounds {
        // Front end.
        for (p, src) in PROGRAMS.iter().zip(&sources) {
            pass.tr.context("front_end", p);
            for _ in 0..PER_ROUND {
                pass.tr.next_op();
                stages::front_end(&mut pass.tr, src);
            }
        }

        // fresh_data: the staged replica on a cold module, then the
        // workload's own operation (which checks its sample against the
        // oracle), all on the one store and each on data of its own.
        for _ in 0..FRESH_ROTATIONS * fresh.designs.len() {
            let d = fresh.design(fresh_i);
            let store = d.store(fresh.data_seed(fresh_i));
            pass.tr.context("fresh_data", d.label);
            pass.tr.next_op();
            let staged = stages::staged_simulate(&mut pass.tr, &fresh.ms, d, &store);
            pass.check(staged.is_ok());
            fresh_i += 1;
        }
        for _ in 0..WORKLOAD_OPS {
            let op = fresh.op(fresh_i);
            pass.check(op.ok);
            fresh_ops.push(op);
            fresh_i += 1;
        }

        // Warm designs: `simulate` and the staged replica on a module hit.
        for w in &warm {
            let d = &w.design;
            pass.tr.context("warm", d.label);
            for _ in 0..PER_ROUND {
                pass.tr.next_op();
                let run = traced_simulate(
                    &mut pass,
                    &w.ms,
                    d,
                    &w.store,
                    &w.expected,
                    SimSpec::default(),
                );
                if d.label == KERNEL_DESIGN {
                    e1_run = run.or(e1_run);
                }
                if let Ok(staged) = stages::staged_simulate(&mut pass.tr, &w.ms, d, &w.store) {
                    staged_last.insert(d.label, staged);
                }
                stages::skeleton_build(&mut pass.tr, d);
            }
            // warm_kernel's loop with none and with a span around each
            // run: the tracer's own cost (`bench.trace_overhead_pct`).
            if d.label == KERNEL_DESIGN {
                kernel_ops.extend((0..WORKLOAD_OPS).map(|_| w.op()));
                pass.tr.context("trace_overhead", d.label);
                for _ in 0..WORKLOAD_OPS {
                    pass.tr.next_op();
                    traced_simulate(
                        &mut pass,
                        &w.ms,
                        d,
                        &w.store,
                        &w.expected,
                        SimSpec::default(),
                    );
                }
            } else if d.label == SCALAR_DESIGN {
                scalar_ops.extend((0..WORKLOAD_OPS).map(|_| w.op()));
            }
        }

        ladder_round(&mut pass, &warm, |rung| !spawns_threads(rung));

        // The oracle.
        for w in &warm {
            pass.tr.context("oracle", w.design.label);
            for k in 0..3 {
                pass.tr.next_op();
                stages::oracle(&mut pass.tr, &w.design, seed + (round * 3 + k) as u64);
            }
        }

        // The binary: `cli_cold`'s rotation, and the cost of a process
        // that does nothing (no arguments: usage text, exit status 2).
        for _ in 0..WORKLOAD_OPS {
            let i = cli_ops.len() as u64;
            pass.tr
                .context("cli", ROTATION[(i % ROTATION.len() as u64) as usize].label);
            pass.tr.next_op();
            let s = pass.tr.begin("cli.invocation");
            let op = cli.op(i);
            pass.tr.end(s);
            pass.check(op.ok);
            cli_ops.push(op);
        }
        pass.tr.context("cli", "no_arguments");
        for _ in 0..PER_ROUND / 2 {
            let s = pass.tr.begin("cli.spawn_floor");
            let out = Command::new(&binary).output();
            pass.tr.end(s);
            pass.check(out.is_ok_and(|o| o.status.code() == Some(2)));
        }
    }

    // Phase two: the service and the engines that start threads. The
    // short open-loop run comes first, so that `/stats` describes it
    // alone; the server then stays up for the stage calls.
    let open = ServiceOpen::setup(seed, Budget::Ops((WORKLOAD_OPS * rounds) as u64));
    let (service_ops, _, detail) = open.measure();
    pass.tr.context("service_open", "mix");
    for (i, ((due, done), op)) in detail.spans_ns.iter().zip(&service_ops).enumerate() {
        pass.tr.record("service.request", *due, *done, i as u64);
        pass.check(op.ok);
    }
    let closed_probe_s = CLOSED_PROBE_S * rounds as f64;
    let closed_rate = open.closed_loop_rate(closed_probe_s);
    let e1_body = format!("{{\"design\":\"E.1\",\"sizes\":[24],\"seed\":{seed}}}");
    let mut render_bytes = 0usize;

    for _ in 0..rounds {
        // The service, stage by stage, then over the socket.
        pass.tr.context("service", KERNEL_DESIGN);
        for _ in 0..PER_ROUND {
            pass.tr.next_op();
            let response = stages::service_request(&mut pass.tr, open.service(), "E.1", &e1_body);
            pass.check(service::response_ok(200, &response, &warm[0].expected));
            let s = pass.tr.begin("service.http_post");
            let posted = service::post(open.addr(), "/v1/run", &e1_body);
            pass.tr.end(s);
            pass.check(posted.is_ok_and(|(status, body)| {
                service::response_ok(status, &body, &warm[0].expected)
            }));
            if let Some(run) = &e1_run {
                render_bytes = stages::render_stores(&mut pass.tr, &warm[0].design, run);
            }
        }
        ladder_round(&mut pass, &warm, |rung| {
            spawns_threads(rung) && rung != THREADED_RUNG
        });
    }
    for _ in 0..(THREADED_CALLS * rounds).div_ceil(ROUNDS) {
        ladder_round(&mut pass, &warm, |rung| rung == THREADED_RUNG);
    }

    // Reduce the spans to the per-layer table.
    for stage in ["lang.parse", "synthesis.derive_array", "core.compile"] {
        for p in PROGRAMS {
            rows.insert(format!("{stage}.us.{p}"), pass.us("front_end", stage, p));
        }
    }
    for d in STAGE_DESIGNS {
        let cold = |stage: &str| pass.us("fresh_data", stage, d);
        let hit = |stage: &str| pass.us("warm", stage, d);
        rows.insert(
            format!("interp.skeleton_build.us.{d}"),
            hit("interp.skeleton_build"),
        );
        rows.insert(format!("interp.instantiate.us.{d}"), cold("interp.module"));
        rows.insert(format!("interp.module_hit.us.{d}"), hit("interp.module"));
        rows.insert(format!("runtime.analyze.us.{d}"), cold("runtime.analyze"));
        rows.insert(format!("runtime.optimize.us.{d}"), cold("runtime.optimize"));
        rows.insert(
            format!("runtime.analyze_wavefront.us.{d}"),
            cold("runtime.analyze_wavefront"),
        );
        rows.insert(
            format!("runtime.analyze_kernels.us.{d}"),
            cold("runtime.analyze_kernels"),
        );
        rows.insert(
            format!("runtime.run_wavefront.us.{d}"),
            hit("runtime.run_wavefront"),
        );
        rows.insert(
            format!("ir.seq_run.us.{d}"),
            pass.us("oracle", "ir.seq_run", d),
        );
        rows.insert(
            format!("ir.alloc_fill.us.{d}"),
            pass.us("oracle", "ir.alloc_fill", d),
        );
        // `simulate` minus the replica of its stages: what the facade
        // adds — the store clone, the write-back, the reports.
        let whole = hit("interp.simulate");
        let replica = pass
            .tr
            .durations_ns("warm", "interp.staged_simulate", Some(d));
        rows.insert(
            format!("interp.simulate_self.us.{d}"),
            Row {
                value: whole.value - pass.quiet_median_us(&replica),
                calls: whole.calls,
            },
        );
        let staged = &staged_last[d];
        let kernel = staged.kernel.as_ref();
        rows.insert(
            format!("interp.module.processes.{d}"),
            count(staged.module_processes as f64),
        );
        rows.insert(
            format!("runtime.opt.fused_relays.{d}"),
            count(staged.fused_relays as f64),
        );
        rows.insert(
            format!("runtime.kernel.eligible_chunks.{d}"),
            count(kernel.map_or(0, |k| k.eligible_chunks) as f64),
        );
        rows.insert(
            format!("runtime.kernel.fallback_chunks.{d}"),
            count(kernel.map_or(0, |k| k.fallbacks.iter().map(|f| f.1).sum()) as f64),
        );
        rows.insert(
            format!("runtime.kernel.waves_fused.{d}"),
            count(kernel.map_or(0, |k| k.waves_fused) as f64),
        );
        rows.insert(
            format!("sim.messages.{d}"),
            count(staged.stats.messages as f64),
        );
        rows.insert(format!("sim.steps.{d}"), count(staged.stats.steps as f64));
        rows.insert(
            format!("sim.steps_per_host_s.{d}"),
            Row {
                value: staged.stats.steps as f64 / (whole.value / 1e6),
                calls: whole.calls,
            },
        );
    }
    for d in LADDER_DESIGNS {
        for rung in LADDER_RUNGS {
            rows.insert(
                format!("interp.simulate.us.{rung}.{d}"),
                pass.us(rung, "interp.simulate", d),
            );
        }
    }

    let fresh_after = fresh.ms.stats();
    let misses = (fresh_after.module_misses - fresh_before.module_misses) as f64;
    let hits = (fresh_after.module_hits - fresh_before.module_hits) as f64;
    let fresh_total_ns: u64 = pass
        .tr
        .durations_ns("fresh_data", "interp.staged_simulate", None)
        .iter()
        .chain(&ns_of(&fresh_ops))
        .sum();
    rows.insert(
        "interp.cache.module_hit_ratio.fresh_data".into(),
        count(hits / (hits + misses).max(1.0)),
    );
    rows.insert(
        "interp.cache.module_evictions.fresh_data".into(),
        count((fresh_after.module_evictions - fresh_before.module_evictions) as f64),
    );
    rows.insert(
        "interp.cache.instantiate_share.fresh_data".into(),
        Row {
            value: (fresh_after.instantiate_ns - fresh_before.instantiate_ns) as f64
                / fresh_total_ns.max(1) as f64,
            calls: fresh_i as usize,
        },
    );

    let service_us = |stage: &str| pass.us("service", stage, KERNEL_DESIGN);
    rows.insert(
        "service.parse_run_request.us".into(),
        service_us("service.parse_run_request"),
    );
    rows.insert(
        "service.resolve_hit.us".into(),
        service_us("service.resolve_hit"),
    );
    rows.insert(
        "service.render_stores.us.e1_n24".into(),
        service_us("service.render_stores"),
    );
    rows.insert(
        "service.render_stores.bytes.e1_n24".into(),
        count(render_bytes as f64),
    );
    rows.insert(
        "service.pool_roundtrip.us".into(),
        service_us("service.pool_roundtrip"),
    );
    let handle = service_us("service.handle_run");
    let posted = service_us("service.http_post");
    rows.insert(
        "service.http_overhead.us.e1_n24".into(),
        Row {
            value: posted.value - handle.value,
            calls: posted.calls,
        },
    );
    rows.insert("service.handle_run.us.e1_n24".into(), handle);
    rows.insert(
        "service.closed_req_per_s".into(),
        Row {
            value: closed_rate,
            calls: (closed_rate * closed_probe_s) as usize,
        },
    );
    let requests = service_ops.len();
    let of_requests = |value: f64| Row {
        value,
        calls: requests,
    };
    rows.insert(
        "service.pool.rejected".into(),
        of_requests(detail.server.rejected),
    );
    rows.insert(
        "service.pool.timeouts".into(),
        of_requests(detail.server.timeouts),
    );
    rows.insert(
        "service.plan_cache.hit_ratio".into(),
        of_requests(detail.server.plan_hit_ratio),
    );
    rows.insert(
        "service.module_cache.hit_ratio".into(),
        of_requests(detail.server.module_hit_ratio),
    );
    rows.insert(
        "bench.gen_late_p99_ms".into(),
        of_requests(detail.gen_late_p99_ms),
    );

    let mut floor = pass.us("cli", "cli.spawn_floor", "no_arguments");
    floor.value /= 1e3;
    rows.insert("cli.spawn_floor.ms".into(), floor);
    for slot in &ROTATION {
        let mut row = pass.us("cli", "cli.invocation", slot.label);
        row.value /= 1e3;
        rows.insert(format!("cli.p50_ms.{}", slot.label), row);
    }

    // Each workload's latency percentiles, over the quiet pool of its
    // short version.
    for (workload, ns) in [
        ("warm_kernel", ns_of(&kernel_ops)),
        ("warm_scalar", ns_of(&scalar_ops)),
        ("fresh_data", ns_of(&fresh_ops)),
        ("cli_cold", ns_of(&cli_ops)),
        ("service_open", ns_of(&service_ops)),
    ] {
        let mut ms: Vec<f64> = pass.pool(&ns).iter().map(|&n| n as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        for (p, name) in [(50.0, "p50_ms"), (99.0, "p99_ms")] {
            rows.insert(
                format!("{workload}.{name}"),
                Row {
                    value: percentile(&ms, p),
                    calls: ns.len(),
                },
            );
        }
    }

    let traced_ns = pass
        .tr
        .self_ns("trace_overhead", "interp.simulate", KERNEL_DESIGN);
    let untraced_ns = ns_of(&kernel_ops);
    rows.insert(
        "bench.trace_overhead_pct".into(),
        Row {
            value: (pass.quiet_mean_ns(&traced_ns) / pass.quiet_mean_ns(&untraced_ns) - 1.0)
                * 100.0,
            calls: traced_ns.len(),
        },
    );
    rows.insert("bench.timer_floor_ns".into(), count(timer_floor_ns()));

    drop(open);
    Traced {
        rows,
        attempted: pass.attempted,
        failed: pass.failed,
        trace_json: pass.tr.to_json(),
    }
}
