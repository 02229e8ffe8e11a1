//! The module store: a two-level, `Arc`-shared cache in front of the
//! two-phase elaborator (`crate::skeleton`).
//!
//! Level 1 caches **skeletons** — size-parametric compiles keyed by
//! `(program fingerprint, ElabOptions)`. Level 2 caches **instantiated
//! modules** keyed by `(program fingerprint, ElabOptions, size values,
//! host-store shape)`. No *value* of the host store is in either key:
//! the paper's derivation is symbolic in the data — the host's i/o
//! processes inject it (Sec. 4.2) — so an instantiated module is code
//! plus a table of where each injected word lives in the store
//! (`Elaborated::host_words`), and every run gathers its own data segment
//! through that table (`crate::exec::simulate`). The store's *shape*
//! (names and bounds, `HostStore::shape_fingerprint`) is in the key
//! because the table holds flat array offsets: they are valid for every
//! store of the shape the module was instantiated from, and a store of
//! another shape is simply another entry. So `instantiate` and the
//! analyses below run once per (program, options, size, shape), however
//! many data sets follow; a cached module still carries the data segment
//! of the store that instantiated it, which is what a caller running
//! `cm.elab.module` directly, without binding, executes.
//!
//! Each cached module also lazily memoizes the downstream per-module
//! analyses the executors would otherwise repeat — all functions of the
//! code alone: one [`FastPlan`] — the module the optimizer returns, with
//! its channel tables and its wavefront and kernel plans — so a warm
//! `run` pays for none of them. The elaborated module's channel tables
//! come with it from `instantiate` ([`Elaborated::channels`]).
//!
//! Entries never go stale silently: the plan fingerprint
//! (`SystolicProgram::fingerprint`, taken once by `compile`) covers the
//! whole derived plan — any recompilation with different
//! placement/options moves it. Capacity is bounded by FIFO eviction —
//! the store is a cache, not a leak.

use crate::elaborate::{ElabError, ElabOptions, Elaborated};
use crate::skeleton::{elaborate_skeleton, instantiate, SkeletonModule};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use systolic_core::SystolicProgram;
use systolic_ir::HostStore;
use systolic_math::Env;
use systolic_runtime::{
    analyze_kernels, analyze_wavefront, lock, BatchPlan, Json, KernelPlan, OptReport,
    OptimizedModule, ProcIrModule, WavefrontPlan,
};

/// Retained skeletons (level 1). Skeletons are small — per-stream
/// specialized forms, no per-point state.
const SKELETON_CAP: usize = 32;
/// Retained instantiated modules (level 2). Modules hold the full
/// per-point bytecode, so the cap is what bounds memory.
const MODULE_CAP: usize = 64;

/// Cache observability counters, exposed through the
/// `systolic-metrics-v1` report (`elab_cache` section) and the CI cache
/// artifact. Times are cumulative nanoseconds spent on misses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub skeleton_hits: u64,
    pub skeleton_misses: u64,
    /// Lookups served by an entry of the same (program, options, size,
    /// store shape) — whatever data the store holds.
    pub module_hits: u64,
    pub module_misses: u64,
    /// Total time in phase 1 (`elaborate_skeleton`) across misses.
    pub skeleton_build_ns: u64,
    /// Total time in phase 2 (`instantiate`) across misses.
    pub instantiate_ns: u64,
    /// Total time building fast plans ([`CachedModule::fast_plan`]: the
    /// optimizer, the wavefront and kernel plans), once per cached module
    /// that a fast run or a report asked for.
    pub fast_plan_ns: u64,
    /// Skeletons dropped by FIFO capacity management.
    pub skeleton_evictions: u64,
    /// Modules dropped by FIFO capacity management.
    pub module_evictions: u64,
}

impl CacheStats {
    /// The `elab_cache` section of the metrics report and of `/stats`.
    pub fn json(&self) -> Json {
        Json::obj([
            ("skeleton_hits", self.skeleton_hits.into()),
            ("skeleton_misses", self.skeleton_misses.into()),
            ("module_hits", self.module_hits.into()),
            ("module_misses", self.module_misses.into()),
            ("skeleton_build_ns", self.skeleton_build_ns.into()),
            ("instantiate_ns", self.instantiate_ns.into()),
            ("fast_plan_ns", self.fast_plan_ns.into()),
            ("skeleton_evictions", self.skeleton_evictions.into()),
            ("module_evictions", self.module_evictions.into()),
        ])
    }
}

/// One instantiated module plus its lazily memoized per-module
/// analyses. Everything here is immutable after construction and none
/// of it but `elab.module.data` depends on a host value; per-run state
/// is the gathered data segment and the run arena.
pub struct CachedModule {
    pub elab: Elaborated,
    fast: OnceLock<FastPlan>,
    /// The store's [`CacheStats::fast_plan_ns`], charged when `fast` is
    /// built: the plan is built on first use, outside the store's lock.
    fast_plan_ns: Arc<AtomicU64>,
}

/// The module the wavefront engine runs and every plan a run of it
/// reads, built together on first use ([`CachedModule::fast_plan`]).
/// Fast runs, the `wavefront`/`kernels`/`optimizer` sections of the
/// metrics document and of `--opt-report`, and `rustgen` all read this
/// one plan, so each describes the module that ran.
pub struct FastPlan {
    /// The optimizer's module when it rewrote the elaborated one, the
    /// elaborated module when it declined. Either way over the elaborated
    /// module's data segment, word for word, so one gather binds it.
    pub module: Arc<ProcIrModule>,
    /// The optimizer's rewrite — `module` with its delay rings' needs
    /// and `systolic-opt-v1` report — and the rewritten module's channel
    /// tables; `None` when the optimizer declined.
    pub optimized: Option<Arc<(OptimizedModule, BatchPlan)>>,
    /// The wave structure of `module`; empty for a program the fast
    /// engine never runs ([`Elaborated::wide`]).
    pub wavefront: Arc<WavefrontPlan>,
    /// Kernel eligibility of those waves; empty, like `wavefront`, for a
    /// program the fast engine never runs.
    pub kernels: Arc<KernelPlan>,
}

impl FastPlan {
    /// The optimizer's mapping report, when it rewrote the module.
    pub fn opt_report(&self) -> Option<&Arc<OptReport>> {
        self.optimized.as_ref().map(|o| &o.0.report)
    }
}

impl CachedModule {
    fn new(elab: Elaborated, fast_plan_ns: Arc<AtomicU64>) -> CachedModule {
        CachedModule {
            elab,
            fast: OnceLock::new(),
            fast_plan_ns,
        }
    }

    /// The elaborated module's channel tables, as `instantiate` recorded
    /// them.
    pub fn batch_plan(&self) -> &BatchPlan {
        &self.elab.channels
    }

    /// The fast plan, built once: the optimizer over the elaborated
    /// module and its tables, then the wavefront and kernel plans of the
    /// module it returns — and of no other, so when the optimizer
    /// rewrites the module the elaborated module's wave structure is
    /// never built. A program the fast engine never runs
    /// ([`Elaborated::wide`]) gets the empty plan.
    pub fn fast_plan(&self) -> &FastPlan {
        self.fast.get_or_init(|| {
            let t = Instant::now();
            let el = &self.elab;
            let runs = el.wide.is_none();
            let optimized = runs
                .then(|| systolic_runtime::optimize(&el.module, &el.channels))
                .flatten()
                .map(Arc::new);
            let (module, batch, needs) = match &optimized {
                Some(o) => (&o.0.module, &o.1, &o.0.ring_needs[..]),
                None => (&el.module, &el.channels, &[][..]),
            };
            let (wavefront, kernels) = if runs {
                let wavefront = analyze_wavefront(module, batch, needs);
                let kernels = analyze_kernels(module, &wavefront);
                (wavefront, kernels)
            } else {
                (WavefrontPlan::default(), KernelPlan::default())
            };
            let (wavefront, kernels) = (Arc::new(wavefront), Arc::new(kernels));
            let ns = t.elapsed().as_nanos() as u64;
            self.fast_plan_ns.fetch_add(ns, Ordering::Relaxed);
            FastPlan {
                module: Arc::clone(module),
                optimized,
                wavefront,
                kernels,
            }
        })
    }

    /// The `wavefront` section of the metrics document and of
    /// `--opt-report`: the fast plan's staging shape over its module, or
    /// why the fast engine never runs the program.
    pub fn wavefront_json(&self) -> Json {
        self.fast_section(|fast| fast.wavefront.json(&fast.module))
    }

    /// The `kernels` section of the metrics document: the fast plan's
    /// eligibility split and scalar-fallback reasons, or why the fast
    /// engine never runs the program.
    pub fn kernels_json(&self) -> Json {
        self.fast_section(|fast| fast.kernels.json())
    }

    /// A section describing one plan of the fast plan; for a program the
    /// fast engine never runs ([`Elaborated::wide`]), `eligible: false`
    /// and the reason instead.
    fn fast_section(&self, section: impl FnOnce(&FastPlan) -> Json) -> Json {
        match &self.elab.wide {
            Some(why) => Json::obj([("eligible", false.into()), ("reason", why.as_str().into())]),
            None => section(self.fast_plan()),
        }
    }

    // Spelled by the frozen `benchmark/src/stages.rs:86`; goes with ROADMAP 2(b).
    #[doc(hidden)]
    pub fn optimized(&self, _: OptMode) -> Option<Arc<(OptimizedModule, BatchPlan)>> {
        self.fast_plan().optimized.clone()
    }

    // Spelled by the frozen `benchmark/src/stages.rs:92`; goes with ROADMAP 2(b).
    #[doc(hidden)]
    pub fn wavefront_plan_opt(&self, _: OptMode) -> Option<Arc<WavefrontPlan>> {
        Some(Arc::clone(&self.fast_plan().wavefront))
    }

    // Spelled by the frozen `benchmark/src/stages.rs:93`; goes with ROADMAP 2(b).
    #[doc(hidden)]
    pub fn wavefront_plan(&self) -> &Arc<WavefrontPlan> {
        &self.fast_plan().wavefront
    }

    // Spelled by the frozen `benchmark/src/stages.rs:101`; goes with ROADMAP 2(b).
    #[doc(hidden)]
    pub fn kernel_plan_opt(&self, _: OptMode) -> Option<Arc<KernelPlan>> {
        Some(Arc::clone(&self.fast_plan().kernels))
    }

    // Spelled by the frozen `benchmark/src/stages.rs:102`; goes with ROADMAP 2(b).
    #[doc(hidden)]
    pub fn kernel_plan(&self) -> &Arc<KernelPlan> {
        &self.fast_plan().kernels
    }
}

// Spelled by the frozen `benchmark/src/stages.rs:14,86,92,101`; goes with ROADMAP 2(b).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptMode;

#[doc(hidden)]
#[allow(non_upper_case_globals)]
impl OptMode {
    pub const Auto: OptMode = OptMode;
}

type SkelKey = (u64, ElabOptions);
type ModKey = (u64, ElabOptions, Vec<i64>, u64);

struct Inner {
    skeletons: HashMap<SkelKey, Arc<SkeletonModule>>,
    skel_order: VecDeque<SkelKey>,
    modules: HashMap<ModKey, Arc<CachedModule>>,
    mod_order: VecDeque<ModKey>,
    skel_cap: usize,
    mod_cap: usize,
    stats: CacheStats,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            skeletons: HashMap::new(),
            skel_order: VecDeque::new(),
            modules: HashMap::new(),
            mod_order: VecDeque::new(),
            skel_cap: SKELETON_CAP,
            mod_cap: MODULE_CAP,
            stats: CacheStats::default(),
        }
    }
}

impl Inner {
    fn skeleton(
        &mut self,
        plan: &SystolicProgram,
        opts: &ElabOptions,
        fp: u64,
    ) -> Arc<SkeletonModule> {
        let key = (fp, opts.clone());
        if let Some(s) = self.skeletons.get(&key) {
            self.stats.skeleton_hits += 1;
            return s.clone();
        }
        self.stats.skeleton_misses += 1;
        let t = Instant::now();
        let skel = elaborate_skeleton(plan, opts);
        self.stats.skeleton_build_ns += t.elapsed().as_nanos() as u64;
        if self.skeletons.len() >= self.skel_cap {
            if let Some(old) = self.skel_order.pop_front() {
                self.skeletons.remove(&old);
                self.stats.skeleton_evictions += 1;
            }
        }
        self.skel_order.push_back(key.clone());
        self.skeletons.insert(key, skel.clone());
        skel
    }
}

/// The process-wide module cache. Executors go through
/// [`ModuleStore::global`]; tests that need isolation construct their
/// own with [`ModuleStore::new`].
///
/// The mutex is held across a miss's build and entered through the
/// poison-tolerant [`lock`]: an entry is inserted only after its build
/// returns, so a build that panics under the lock leaves every table
/// valid, and the next request, on any tenant, finds the store working.
#[derive(Default)]
pub struct ModuleStore {
    inner: Mutex<Inner>,
    /// [`CacheStats::fast_plan_ns`], shared with every module of the
    /// store.
    fast_plan_ns: Arc<AtomicU64>,
}

impl ModuleStore {
    pub fn new() -> ModuleStore {
        ModuleStore::default()
    }

    /// A store with explicit FIFO capacities, for tests that want
    /// eviction to fire early and for services tuning memory.
    pub fn with_capacity(skeletons: usize, modules: usize) -> ModuleStore {
        let ms = ModuleStore::default();
        {
            let mut g = lock(&ms.inner);
            g.skel_cap = skeletons.max(1);
            g.mod_cap = modules.max(1);
        }
        ms
    }

    /// The shared process-wide store.
    pub fn global() -> &'static ModuleStore {
        static GLOBAL: OnceLock<ModuleStore> = OnceLock::new();
        GLOBAL.get_or_init(ModuleStore::new)
    }

    /// Phase 1 through the cache: the size-parametric skeleton for
    /// `(plan, opts)`.
    pub fn skeleton(&self, plan: &SystolicProgram, opts: &ElabOptions) -> Arc<SkeletonModule> {
        let fp = plan.fingerprint;
        lock(&self.inner).skeleton(plan, opts, fp)
    }

    /// Both phases through the cache: the instantiated module for
    /// `(plan, opts)` at the size bound in `env`, for stores of the
    /// shape of `store`. A hit returns the shared `Arc` without touching
    /// the plan or a value of `store`; a miss runs whichever phases are
    /// cold (reading `store` for the carried data segment) and caches
    /// the result. Instantiation errors are returned (and not cached — a
    /// failing configuration re-diagnoses on every attempt, exactly
    /// like the uncached `elaborate`).
    pub fn module(
        &self,
        plan: &SystolicProgram,
        env: &Env,
        store: &HostStore,
        opts: &ElabOptions,
    ) -> Result<Arc<CachedModule>, ElabError> {
        let fp = plan.fingerprint;
        let sizes: Vec<i64> = plan.source.sizes.iter().map(|&v| env.expect(v)).collect();
        let key = (fp, opts.clone(), sizes, store.shape_fingerprint());
        let mut g = lock(&self.inner);
        if let Some(m) = g.modules.get(&key).cloned() {
            g.stats.module_hits += 1;
            return Ok(m);
        }
        g.stats.module_misses += 1;
        let skel = g.skeleton(plan, opts, fp);
        let t = Instant::now();
        let elab = instantiate(&skel, env, store)?;
        g.stats.instantiate_ns += t.elapsed().as_nanos() as u64;
        let m = Arc::new(CachedModule::new(elab, self.fast_plan_ns.clone()));
        if g.modules.len() >= g.mod_cap {
            if let Some(old) = g.mod_order.pop_front() {
                g.modules.remove(&old);
                g.stats.module_evictions += 1;
            }
        }
        g.mod_order.push_back(key.clone());
        g.modules.insert(key, m.clone());
        Ok(m)
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            fast_plan_ns: self.fast_plan_ns.load(Ordering::Relaxed),
            ..lock(&self.inner).stats.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_core::{compile, Options};
    use systolic_synthesis::placement::paper;

    fn plan_and_env(n: i64) -> (SystolicProgram, Env) {
        let (p, a) = paper::polyprod_d1();
        let plan = compile(&p, &a, &Options::default()).unwrap();
        let mut env = Env::new();
        env.bind(plan.source.sizes[0], n);
        (plan, env)
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_arc() {
        let (plan, env) = plan_and_env(4);
        let store = HostStore::allocate(&plan.source, &env);
        let ms = ModuleStore::new();
        let a = ms
            .module(&plan, &env, &store, &ElabOptions::default())
            .unwrap();
        let b = ms
            .module(&plan, &env, &store, &ElabOptions::default())
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = ms.stats();
        assert_eq!((s.module_hits, s.module_misses), (1, 1));
        assert_eq!((s.skeleton_hits, s.skeleton_misses), (0, 1));
    }

    /// A miss's whole cost is in the counters: the fast plan is timed
    /// when it is built, once per module, beside `instantiate`.
    #[test]
    fn the_fast_plan_is_timed_once_per_module() {
        let (plan, env) = plan_and_env(4);
        let store = HostStore::allocate(&plan.source, &env);
        let ms = ModuleStore::new();
        let cm = ms
            .module(&plan, &env, &store, &ElabOptions::default())
            .unwrap();
        assert_eq!(ms.stats().fast_plan_ns, 0, "not built yet");
        cm.fast_plan();
        let built = ms.stats().fast_plan_ns;
        assert!(built > 0);
        cm.fast_plan();
        assert_eq!(ms.stats().fast_plan_ns, built, "a hit costs nothing");
        assert!(ms.stats().json().to_string().contains("\"fast_plan_ns\":"));
    }

    #[test]
    fn new_size_reuses_the_skeleton() {
        let (plan, env4) = plan_and_env(4);
        let store4 = HostStore::allocate(&plan.source, &env4);
        let ms = ModuleStore::new();
        ms.module(&plan, &env4, &store4, &ElabOptions::default())
            .unwrap();
        let (_, env6) = plan_and_env(6);
        let store6 = HostStore::allocate(&plan.source, &env6);
        ms.module(&plan, &env6, &store6, &ElabOptions::default())
            .unwrap();
        let s = ms.stats();
        assert_eq!((s.skeleton_hits, s.skeleton_misses), (1, 1));
        assert_eq!((s.module_hits, s.module_misses), (0, 2));
    }

    /// What about the data is in the key: its shape, not its values.
    /// Editing a value is a hit on the very same module; re-allocating
    /// an array with other bounds is another entry.
    #[test]
    fn data_edit_is_a_different_key() {
        let (plan, env) = plan_and_env(3);
        let store = HostStore::allocate(&plan.source, &env);
        let ms = ModuleStore::new();
        let opts = ElabOptions::default();
        let first = ms.module(&plan, &env, &store, &opts).unwrap();
        let mut edited = store.clone();
        edited.fill_random("a", 5, -9, 9);
        let again = ms.module(&plan, &env, &edited, &opts).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "new values, same module");
        let s = ms.stats();
        assert_eq!((s.module_hits, s.module_misses), (1, 1));
        // The cached module carries the first store's segment; the
        // edited store's is one gather away, over the same code.
        let data = again.elab.gather(&edited).unwrap();
        assert_ne!(data, first.elab.module.data);
        let bound = first.elab.module.with_data(data);
        assert!(Arc::ptr_eq(&bound.ops, &first.elab.module.ops));
        assert!(Arc::ptr_eq(&bound.procs, &first.elab.module.procs));

        let mut wider = store.clone();
        wider.insert("a", systolic_ir::HostArray::zeros(&[(0, 4)]));
        let other = ms.module(&plan, &env, &wider, &opts).unwrap();
        assert!(!Arc::ptr_eq(&first, &other), "other bounds, other entry");
        assert_eq!(ms.stats().module_misses, 2);
        assert_eq!(ms.stats().skeleton_misses, 1, "and still one skeleton");
    }

    #[test]
    fn fifo_eviction_bounds_the_store() {
        let (plan, _) = plan_and_env(0);
        let ms = ModuleStore::new();
        for n in 1..=(MODULE_CAP as i64 + 8) {
            let mut env = Env::new();
            env.bind(plan.source.sizes[0], n);
            let store = HostStore::allocate(&plan.source, &env);
            ms.module(&plan, &env, &store, &ElabOptions::default())
                .unwrap();
        }
        let g = lock(&ms.inner);
        assert!(g.modules.len() <= MODULE_CAP);
        assert_eq!(g.modules.len(), g.mod_order.len());
    }

    /// Named regression for eviction racing a `--sweep-sizes` sweep: a
    /// sweep far past `MODULE_CAP` FIFO-evicts its earliest modules
    /// while later sizes keep arriving. Re-requesting an evicted
    /// configuration must rebuild a structurally bit-identical module
    /// (same bytecode arena, data, links, and points — the sweep has not
    /// poisoned the skeleton), and every overflow is one counted
    /// eviction.
    #[test]
    fn evicted_module_reinstantiates_bit_identically_across_a_sweep() {
        let (plan, _) = plan_and_env(0);
        let ms = ModuleStore::new();
        let mk = |n: i64| {
            let mut env = Env::new();
            env.bind(plan.source.sizes[0], n);
            let store = HostStore::allocate(&plan.source, &env);
            (env, store)
        };
        let (env1, store1) = mk(1);
        let first = ms
            .module(&plan, &env1, &store1, &ElabOptions::default())
            .unwrap();
        let wf_first = first.fast_plan().wavefront.clone();
        for n in 2..=(MODULE_CAP as i64 + 9) {
            let (env, store) = mk(n);
            ms.module(&plan, &env, &store, &ElabOptions::default())
                .unwrap();
        }
        {
            let g = lock(&ms.inner);
            assert!(g.modules.len() <= MODULE_CAP);
        }
        let again = ms
            .module(&plan, &env1, &store1, &ElabOptions::default())
            .unwrap();
        assert!(
            !Arc::ptr_eq(&first, &again),
            "the n=1 module must have been FIFO-evicted by the sweep"
        );
        assert!(
            first.elab.module.same_structure(&again.elab.module),
            "re-instantiation after eviction must be bit-identical"
        );
        // The memoized analyses rebuild to the same wave structure.
        let wf_again = &again.fast_plan().wavefront;
        assert_eq!(*wf_first, **wf_again);
        // The sweep instantiated MODULE_CAP + 9 distinct modules plus the
        // post-eviction re-request into a MODULE_CAP-slot store; every
        // overflow is one counted eviction, none lost.
        let s = ms.stats();
        assert_eq!(s.module_evictions, s.module_misses - MODULE_CAP as u64);
        assert_eq!(s.skeleton_evictions, 0, "one skeleton never overflows");
    }

    #[test]
    fn with_capacity_counts_every_eviction_exactly() {
        let (plan, _) = plan_and_env(0);
        let ms = ModuleStore::with_capacity(4, 3);
        for n in 1..=10i64 {
            let mut env = Env::new();
            env.bind(plan.source.sizes[0], n);
            let store = HostStore::allocate(&plan.source, &env);
            ms.module(&plan, &env, &store, &ElabOptions::default())
                .unwrap();
        }
        let s = ms.stats();
        assert_eq!(s.module_misses, 10);
        assert_eq!(s.module_evictions, 7, "10 misses into 3 slots evict 7");
        {
            let g = lock(&ms.inner);
            assert_eq!(g.modules.len(), 3);
            assert_eq!(g.mod_order.len(), 3);
        }
        let j = s.json().to_string();
        assert!(j.contains("\"module_evictions\":7"), "{j}");
    }

    /// A panic under the store's mutex poisons it. Every later lookup
    /// must still miss, hit and count exactly, not panic in its turn.
    #[test]
    fn a_panic_under_the_lock_does_not_wedge_the_store() {
        let (plan, env) = plan_and_env(3);
        let store = HostStore::allocate(&plan.source, &env);
        let ms = ModuleStore::new();
        let opts = ElabOptions::default();
        let first = ms.module(&plan, &env, &store, &opts).unwrap();
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _g = lock(&ms.inner);
                panic!("a build panics while it holds the store");
            });
            assert!(holder.join().is_err());
        });
        assert!(ms.inner.is_poisoned());
        let again = ms.module(&plan, &env, &store, &opts).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "the entry survived");
        let (plan4, env4) = plan_and_env(4);
        let store4 = HostStore::allocate(&plan4.source, &env4);
        ms.module(&plan4, &env4, &store4, &opts).unwrap();
        let s = ms.stats();
        assert_eq!((s.module_hits, s.module_misses), (1, 2));
        assert_eq!((s.skeleton_hits, s.skeleton_misses), (1, 1));
    }

    #[test]
    fn stats_json_is_well_formed() {
        let s = CacheStats {
            skeleton_hits: 1,
            module_misses: 2,
            ..Default::default()
        };
        let j = s.json().to_string();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"skeleton_hits\":1"));
        assert!(j.contains("\"module_misses\":2"));
    }
}
