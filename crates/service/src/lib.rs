//! # systolic-service
//!
//! The multi-tenant simulation service (ROADMAP item 1, "a service
//! powering millions of users", `docs/service.md`): an HTTP/1.1 + JSON
//! front end over [`systolic_interp::simulate`]. The engine treats
//! the systolic array the way Delaval et al. treat a distributed
//! synchronous program — a long-lived shared resource, not a one-shot
//! run: elaborated modules stay hot in a service-owned
//! [`ModuleStore`] and compiled plans in a [`PlanCache`], shared by
//! every concurrent request.
//!
//! Layering (bottom-up):
//! - [`pool`] — the bounded worker pool: backpressure (429), deadline
//!   waits (504), per-worker panic isolation (structured 500);
//! - [`api`] — the wire vocabulary: request parsing, structured
//!   errors with `Deadlock`/`Protocol` offender labels,
//!   `systolic-service-v1` responses;
//! - [`Service`] (this module) — plan resolution, cache plumbing, and
//!   the in-process handlers (`handle_run`, `handle_replay`,
//!   `stats_json`) the DST harness drives without sockets;
//! - [`http`] — `std::net` HTTP/1.1 keep-alive transport, thread per
//!   connection (the workspace builds offline: no tokio, no hyper).

pub mod api;
pub mod http;
pub mod pool;

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use api::{ApiError, OutputKind, ProgramRef, RunRequest};
use pool::Pool;
use systolic_core::SystolicProgram;
use systolic_interp::{
    metrics_json, simulate, simulate_verified, trace_json, ModuleStore, Problem, SimSpec,
};
use systolic_runtime::{lock, shared, EventLogRecorder};
use systolic_sim::{policy_by_name, Json, ScheduleFile};

/// Capacity and policy knobs. Defaults suit a small box; `docs/service.md`
/// ("Capacity tuning") shows how to scale them, against the saturation
/// test of `tests/service.rs` and `benchmark/`'s `service_open` workload.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Simulation worker threads.
    pub workers: usize,
    /// Backpressure queue depth; a full queue rejects with 429.
    pub queue_cap: usize,
    /// Largest accepted problem size per dimension (413 above it).
    pub max_size: i64,
    /// Deadline applied when a request names none.
    pub default_deadline_ms: u64,
    /// Hard ceiling a request's own deadline is clamped to.
    pub max_deadline_ms: u64,
    /// Compiled-plan cache entries (design keys + source texts).
    pub plan_cache_cap: usize,
    /// Module-store FIFO capacities (skeletons, instantiated modules).
    /// A module serves every data set of its (program, options, sizes),
    /// so the second number bounds program × size combinations kept
    /// warm, however many seeds the traffic carries.
    pub module_caps: (usize, usize),
    /// Expose `POST /debug/panic` (tests only): a request whose job
    /// panics inside a worker, proving isolation end-to-end.
    pub debug_panic_route: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServiceConfig {
            workers: cores.max(2),
            queue_cap: 256,
            max_size: 64,
            default_deadline_ms: 10_000,
            max_deadline_ms: 60_000,
            plan_cache_cap: 32,
            module_caps: (32, 64),
            debug_panic_route: false,
        }
    }
}

/// A compiled program ready to elaborate: the plan plus the input
/// variables seeded data goes into by default.
pub struct ResolvedProgram {
    pub label: String,
    pub plan: SystolicProgram,
    pub default_inputs: Vec<String>,
}

#[derive(Default)]
struct PlanCacheInner {
    map: HashMap<String, Arc<ResolvedProgram>>,
    order: VecDeque<String>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded FIFO cache of compiled plans in front of the module store:
/// synthesis + compilation dominate cold-request latency, and warm
/// requests (the common case for a design gallery) skip both.
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    cap: usize,
}

impl PlanCache {
    pub fn new(cap: usize) -> PlanCache {
        PlanCache {
            inner: Mutex::new(PlanCacheInner::default()),
            cap: cap.max(1),
        }
    }

    /// Look up `key`, building (and caching) with `build` on a miss.
    /// The mutex is held across the build, so concurrent cold requests
    /// for one key compile it exactly once — the same exactness
    /// contract as `ModuleStore`, and the same poison tolerance: an
    /// entry goes in only after its build returns, so a build that
    /// panics leaves the cache valid for every later request.
    pub fn get_or_build(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<ResolvedProgram, ApiError>,
    ) -> Result<Arc<ResolvedProgram>, ApiError> {
        let mut g = lock(&self.inner);
        if let Some(p) = g.map.get(key).cloned() {
            g.hits += 1;
            return Ok(p);
        }
        g.misses += 1;
        let built = Arc::new(build()?);
        if g.map.len() >= self.cap {
            if let Some(old) = g.order.pop_front() {
                g.map.remove(&old);
                g.evictions += 1;
            }
        }
        g.order.push_back(key.to_string());
        g.map.insert(key.to_string(), built.clone());
        Ok(built)
    }

    /// `(hits, misses, evictions, len)`.
    pub fn stats(&self) -> (u64, u64, u64, usize) {
        let g = lock(&self.inner);
        (g.hits, g.misses, g.evictions, g.map.len())
    }
}

/// The service: shared caches + the worker pool. Wrap in an [`Arc`] and
/// hand to [`http::serve`], or call the `handle_*` methods directly
/// (the DST integration tests do — same code path, no sockets).
pub struct Service {
    pub config: ServiceConfig,
    pub modules: ModuleStore,
    pub plans: PlanCache,
    pub pool: Pool,
}

impl Service {
    pub fn new(config: ServiceConfig) -> Arc<Service> {
        let (skel_cap, mod_cap) = config.module_caps;
        Arc::new(Service {
            pool: Pool::new(config.workers, config.queue_cap),
            modules: ModuleStore::with_capacity(skel_cap, mod_cap),
            plans: PlanCache::new(config.plan_cache_cap),
            config,
        })
    }

    /// Resolve a gallery design key or inline source through the plan
    /// cache. An inline source is keyed by its whole text: a digest
    /// would let two tenants' different sources share one entry, and the
    /// second be answered from the first one's plan.
    pub fn resolve(&self, program: &ProgramRef) -> Result<Arc<ResolvedProgram>, ApiError> {
        match program {
            ProgramRef::Design(key) => {
                let cache_key = format!("design:{key}");
                self.plans.get_or_build(&cache_key, || compile_design(key))
            }
            ProgramRef::Source(src) => {
                let cache_key = format!("source:{src}");
                self.plans.get_or_build(&cache_key, || compile_source(src))
            }
        }
    }

    /// The deadline a request actually gets: its own ask clamped to the
    /// configured ceiling, or the default.
    fn effective_deadline_ms(&self, req: &RunRequest) -> u64 {
        req.deadline_ms
            .unwrap_or(self.config.default_deadline_ms)
            .clamp(1, self.config.max_deadline_ms)
    }

    /// `POST /v1/run`, end to end: parse on the calling thread (cheap,
    /// and malformed requests must not consume pool slots), then
    /// resolve + elaborate + simulate on the worker pool under the
    /// request deadline.
    pub fn handle_run(self: &Arc<Self>, body: &str) -> (u16, String) {
        let req = match api::parse_run_request(body) {
            Ok(r) => r,
            Err(e) => return (e.status, e.to_json()),
        };
        let deadline_ms = self.effective_deadline_ms(&req);
        let svc = Arc::clone(self);
        self.pool.run(
            Duration::from_millis(deadline_ms),
            deadline_ms,
            Box::new(move || match svc.execute(&req) {
                Ok(body) => (200, body),
                Err(e) => (e.status, e.to_json()),
            }),
        )
    }

    /// The deployment's size policy, applied on both routes before a
    /// problem is bound.
    fn check_max_size(&self, sizes: &[i64]) -> Result<(), ApiError> {
        let max = self.config.max_size;
        match sizes.iter().find(|&&s| s > max) {
            Some(&s) => Err(ApiError::size_limit(s, max)),
            None => Ok(()),
        }
    }

    /// The worker-side request body: everything after admission.
    fn execute(&self, req: &RunRequest) -> Result<String, ApiError> {
        self.check_max_size(&req.sizes)?;
        let resolved = self.resolve(&req.program)?;
        let plan = &resolved.plan;
        let inputs = req.inputs.as_ref().unwrap_or(&resolved.default_inputs);
        let Problem { env, store } = Problem::seeded(plan, &req.sizes, inputs, req.seed)?;

        // One spec and one run for the stores and trace arms. The trace
        // arm adds its recorder, which closes the fast-path gate, so its
        // document describes the plain rung of the run the request named.
        // The metrics document is a fact of the module, so that arm looks
        // the module up and runs nothing but its memoized profile.
        let sched = req.schedule.map(|(policy, seed)| {
            policy_by_name(policy, seed).expect("schedule policy validated at parse time")
        });
        let mut spec = SimSpec {
            batch: req.batch,
            sched,
            ..SimSpec::default()
        };
        let run = |spec| {
            simulate(&self.modules, plan, &env, &store, spec)
                .map_err(|e| ApiError::from_exec_error(&e))
        };
        match req.output {
            OutputKind::Stores => {
                let run = if req.verify {
                    simulate_verified(&self.modules, plan, &env, &store, spec)
                        .map_err(|e| ApiError::from_verify_error(&e))?
                } else {
                    run(spec)?
                };
                Ok(api::render_stores(
                    &resolved.label,
                    // The one executor a request can name.
                    "coop",
                    &run,
                    req.verify,
                ))
            }
            OutputKind::Metrics => {
                let cm = self
                    .modules
                    .module(plan, &env, &store, &spec.elab)
                    .map_err(|e| ApiError::from_exec_error(&e.into()))?;
                Ok(metrics_json(&cm, &self.modules))
            }
            OutputKind::Trace => {
                let (log, recorder) = shared(EventLogRecorder::with_marks());
                spec.recorders.push(recorder);
                let run = run(spec)?;
                let trace = trace_json(&lock(&log), plan, &run);
                Ok(trace)
            }
        }
    }

    /// `POST /v1/replay`: a `systolic-schedule-v1` counterexample file
    /// replayed under the worker pool. Returns whether the recorded
    /// schedule still diverges from the FIFO baseline.
    pub fn handle_replay(self: &Arc<Self>, body: &str) -> (u16, String) {
        let file = match ScheduleFile::from_json(body) {
            Ok(f) => f,
            Err(e) => {
                let e = ApiError::bad_request(format!("malformed schedule file: {e}"));
                return (e.status, e.to_json());
            }
        };
        let deadline_ms = self.config.default_deadline_ms;
        let svc = Arc::clone(self);
        self.pool.run(
            Duration::from_millis(deadline_ms),
            deadline_ms,
            Box::new(move || match svc.replay(&file) {
                Ok(report) => (
                    200,
                    Json::obj([
                        ("schema", api::SCHEMA.into()),
                        ("design", file.design.as_str().into()),
                        ("reproduced", report.reproduced.into()),
                        ("rounds_replayed", report.rounds_replayed.into()),
                        ("reason", report.reason.into()),
                    ])
                    .to_string(),
                ),
                Err(e) => (e.status, e.to_json()),
            }),
        )
    }

    /// The worker-side replay: the file's subject, under the same size
    /// policy and through the same module store as `/v1/run`.
    fn replay(&self, file: &ScheduleFile) -> Result<systolic_sim::ReplayReport, ApiError> {
        self.check_max_size(&file.sizes)?;
        let subject = systolic_sim::subject_of(file, &self.modules)?;
        systolic_sim::replay(subject.as_ref(), file)
            .map_err(|e| ApiError::internal(format!("replay failed: {e}")))
    }

    /// `GET /stats`: module-store counters, plan-cache counters, pool
    /// gauges — one JSON document.
    pub fn stats_json(&self) -> String {
        use std::sync::atomic::Ordering;
        let (hits, misses, evictions, entries) = self.plans.stats();
        let s = &self.pool.stats;
        let gauge = |a: &std::sync::atomic::AtomicU64| Json::from(a.load(Ordering::SeqCst));
        let plan_cache = Json::obj([
            ("hits", hits.into()),
            ("misses", misses.into()),
            ("evictions", evictions.into()),
            ("entries", entries.into()),
        ]);
        let pool = Json::obj([
            ("workers", self.pool.n_workers.into()),
            ("queue_cap", self.pool.queue_cap.into()),
            ("submitted", gauge(&s.submitted)),
            ("completed", gauge(&s.completed)),
            ("rejected", gauge(&s.rejected)),
            ("panics", gauge(&s.panics)),
            ("deadline_expired", gauge(&s.deadline_expired)),
            ("in_flight", gauge(&s.in_flight)),
            ("max_in_flight", gauge(&s.max_in_flight)),
        ]);
        Json::obj([
            ("schema", api::SCHEMA.into()),
            ("elab_cache", self.modules.stats().json()),
            ("plan_cache", plan_cache),
            ("pool", pool),
        ])
        .to_string()
    }

    /// `POST /debug/panic` (gated by
    /// [`ServiceConfig::debug_panic_route`]): a request whose job
    /// panics inside a worker — the panic-isolation contract,
    /// exercisable over the wire.
    pub fn handle_debug_panic(self: &Arc<Self>) -> (u16, String) {
        self.pool.run(
            Duration::from_millis(self.config.default_deadline_ms),
            self.config.default_deadline_ms,
            Box::new(|| panic!("deliberate debug panic")),
        )
    }
}

/// Compile a gallery design key — `systolic_sim::compile_design`, the
/// DST registry's resolution, with its failures as structured errors.
/// Public so `tests/service.rs` and `benchmark/` can build client-side
/// sequential oracles from the exact same plan the service serves.
pub fn compile_design(key: &str) -> Result<ResolvedProgram, ApiError> {
    let (plan, inputs) = systolic_sim::compile_design(key)?;
    Ok(ResolvedProgram {
        label: key.to_string(),
        plan,
        default_inputs: inputs.map(String::from).to_vec(),
    })
}

/// Compile inline `.sys` source — `systolic_sim::compile_source`: parse,
/// then the scheme's front door. Every failure is a structured 400/422 —
/// the parser's message reaches the client, a panic never does.
pub fn compile_source(src: &str) -> Result<ResolvedProgram, ApiError> {
    Ok(ResolvedProgram {
        label: "source".to_string(),
        plan: systolic_sim::compile_source(src)?,
        default_inputs: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALPHA: &str = "program alpha;\nsize n;\nvar a[0..n], b[0..n], c[0..2*n];\n\
        for i = 0 <- 1 -> n\nfor j = 0 <- 1 -> n {\n  c[i+j] = c[i+j] + a[i] * b[j];\n}\n";
    const BETA: &str = "program beta;\nsize n;\nvar a[0..n], b[0..n], c[0..2*n];\n\
        for i = 0 <- 1 -> n\nfor j = 0 <- 1 -> n {\n  c[i+j] = c[i+j] - a[i] * b[j];\n}\n";

    /// Two sources whose 64-bit digests collide must not share a plan.
    /// The collision is planted: source B's plan under the key a digest
    /// of source A would have, as a SipHash collision computed offline
    /// would put it there. Resolving A must compile A.
    #[test]
    fn an_inline_source_is_never_answered_from_another_sources_plan() {
        use std::hash::{Hash, Hasher};
        let svc = Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let mut h = std::collections::hash_map::DefaultHasher::new();
        ALPHA.hash(&mut h);
        let digest_key = format!("source:{:016x}", h.finish());
        let planted = svc.plans.get_or_build(&digest_key, || compile_source(BETA));
        assert_eq!(planted.unwrap().plan.source.name, "beta");

        let alpha = svc.resolve(&ProgramRef::Source(ALPHA.into())).unwrap();
        assert_eq!(alpha.plan.source.name, "alpha");
        let beta = svc.resolve(&ProgramRef::Source(BETA.into())).unwrap();
        assert_eq!(beta.plan.source.name, "beta");
        // A second request for A is a hit on A's own entry.
        let again = svc.resolve(&ProgramRef::Source(ALPHA.into())).unwrap();
        assert!(Arc::ptr_eq(&alpha, &again));
        assert_eq!(svc.plans.stats().0, 1, "one hit: the repeated A");
    }

    /// A build that panics poisons the plan cache's mutex; the next
    /// request, for any key, must still be served, and the panicking key
    /// must build afresh.
    #[test]
    fn a_panicking_build_does_not_wedge_the_plan_cache() {
        let plans = PlanCache::new(4);
        let unwound = std::panic::catch_unwind(|| {
            let _ = plans.get_or_build("source:bad", || panic!("the compiler panics"));
        });
        assert!(unwound.is_err());
        assert!(plans.inner.is_poisoned());
        let alpha = plans.get_or_build("source:alpha", || compile_source(ALPHA));
        assert_eq!(alpha.unwrap().plan.source.name, "alpha");
        let beta = plans.get_or_build("source:bad", || compile_source(BETA));
        assert_eq!(beta.unwrap().plan.source.name, "beta", "nothing was cached");
        assert_eq!(plans.stats(), (0, 3, 0, 2));
    }

    /// A metrics request answers from the module alone: two requests with
    /// different data share one cached module and one profile, so their
    /// documents agree in every member but the store's own counters.
    #[test]
    fn a_metrics_request_is_answered_by_the_module() {
        let svc = Arc::new(Service::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        }));
        let ask = |seed: u64| {
            let body =
                format!(r#"{{"design":"E.1","sizes":[5],"seed":{seed},"output":"metrics"}}"#);
            let (status, doc) = svc.handle_run(&body);
            assert_eq!(status, 200, "{doc}");
            match systolic_runtime::json::parse(&doc).unwrap() {
                Json::Obj(members) => members
                    .into_iter()
                    .filter(|(k, _)| k != "elab_cache")
                    .collect::<Vec<_>>(),
                other => panic!("not an object: {other}"),
            }
        };
        let first = ask(1);
        assert!(first.iter().any(|(k, _)| k == "end_time"), "{first:?}");
        assert_eq!(ask(2), first);
        let stats = svc.modules.stats();
        assert_eq!((stats.module_misses, stats.module_hits), (1, 1));
    }
}
