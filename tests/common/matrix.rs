//! The differential matrix: one table of rows against named columns.
//!
//! A row is a (design, sizes, data seed, [`ElabOptions`]) point over the
//! corpus of [`CORPUS`] and `programs/{fir,matmul,polyprod}.sys`. It
//! builds its problem and its runs once — the sequential oracle, the
//! plain rendezvous run, the default (fast) run, and the fast plan on
//! `run_wavefront` with its kernels and on the scalar sweep alone — and
//! every column reads them. A column is one property of the derived
//! network, written once here, and a failure names its (row, column).
//!
//! The row set is every point the per-suite loops reached before they
//! became this table. A row keeps the names of those loops
//! ([`Case::origins`]) and is held to each loop's columns ([`LOOPS`]) in
//! the test of that loop's name ([`matrix_rows!`]); a row whose every
//! size is at most [`SMALL`] is held to every other column as well, in
//! `tests/matrix.rs` ([`run_table`]), which runs no cell of a loop's.
//! Generated problems (the random programs and the proptests) are
//! [`Case::new`] and go through the same columns ([`check_row`]).

use super::*;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use systolizer::interp::runtime_gen::agree_with_procir;
use systolizer::interp::{trace_json, CachedModule};
use systolizer::runtime::{
    analyze_kernels, optimize, ChanId, EventLogRecorder, FifoPolicy, Json, KernelPlan,
    KernelReport, OpKind,
};
use systolizer::runtime::{check as tables, json, lock, shared, MetricsRecorder, MetricsReport};
use systolizer::runtime::{SchedulePolicy, Value};

/// A test named after a per-suite loop the matrix absorbed: that loop's
/// columns ([`LOOPS`]) on the rows it reached.
#[macro_export]
macro_rules! matrix_rows {
    ($($name:ident),+ $(,)?) => {$(
        #[test]
        fn $name() {
            common::matrix::check(stringify!($name));
        }
    )+};
}

/// One named property of a row: its name, and its check, which returns
/// `false` when the property says nothing about the row (no golden for
/// it, or a generated program that deadlocked) and panics when the row
/// breaks it.
pub struct Column(pub &'static str, pub fn(&Case) -> bool);

pub const SEQ: Column = Column("seq", seq_walk);
pub const ORACLE: Column = Column("oracle", oracle);
pub const COUNT_LAW: Column = Column("count law", count_law);
pub const CHANNEL_LAW: Column = Column("channel law", channel_law);
pub const KERNELS: Column = Column("kernels", kernels);
pub const KERNEL_PLAN: Column = Column("kernel plan", kernel_plan);
pub const BINDING: Column = Column("binding", binding);
pub const SCAN: Column = Column("scan", scan);
pub const REPORTS: Column = Column("reports", reports);
pub const WAVEFRONT_PLAN: Column = Column("wavefront plan", wavefront_plan);
pub const ENGAGEMENT: Column = Column("engagement", engagement);
pub const GOLDENS: Column = Column("goldens", goldens);
pub const DIGESTS: Column = Column("digests", digests);

/// Run `column` on `rows`. A failing cell panics with its (row,
/// column); the number of cells that ran is returned.
pub fn run<'a>(column: &Column, rows: impl IntoIterator<Item = &'a Case>) -> usize {
    let mut ran = 0;
    for case in rows {
        match catch_unwind(AssertUnwindSafe(|| (column.1)(case))) {
            Ok(checked) => ran += checked as usize,
            Err(e) => {
                let why = (e.downcast_ref::<String>().map(String::as_str))
                    .or_else(|| e.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                panic!("cell ({}, {}): {why}", case.label, column.0);
            }
        }
    }
    ran
}

/// `columns` on one row, each of which must say something about it.
pub fn check_row(case: &Case, columns: &[&Column]) {
    for column in columns {
        assert_eq!(run(column, [case]), 1, "{}: {}", case.label, column.0);
    }
}

/// The columns of the per-suite loop `origin` on the rows it reached,
/// each of which every column must say something about.
pub fn check(origin: &str) {
    let rows = table().iter().filter(|c| c.origins.contains(&origin));
    let rows: Vec<&Case> = rows.collect();
    assert!(!rows.is_empty(), "no row comes from {origin}");
    for column in columns_of(origin) {
        let ran = run(column, rows.iter().copied());
        assert_eq!(ran, rows.len(), "{origin}: {}", column.0);
        println!("column {}: ran {ran} cells", column.0);
    }
}

/// A row whose sizes are all this small is held to every column. At 3 or
/// 4 `tests/matrix.rs` took 0.8–1.1 s more (debug build, 2 vCPUs), more
/// than tier-1 could absorb.
pub const SMALL: i64 = 2;

/// `column` on every row of the table it holds: the rows of the loops
/// that name it, whose cells run in the tests of those names ([`check`]),
/// and every other row whose sizes are all at most [`SMALL`], whose cells
/// run here. Returns the cells of both.
pub fn run_table(column: &Column) -> usize {
    let names = |o: &&str| columns_of(o).iter().any(|k| k.0 == column.0);
    let in_loops = |c: &&Case| c.origins.iter().any(names);
    let (in_loops, rest): (Vec<&Case>, Vec<&Case>) = table().iter().partition(in_loops);
    let small = rest.into_iter().filter(|c| c.sizes().all(|n| n <= SMALL));
    let ran = run(column, small);
    let name = column.0;
    println!(
        "column {name}: ran {ran} cells, and {} in its loops' tests",
        in_loops.len()
    );
    ran + in_loops.len()
}

/// What every row of one store shape — (design, sizes, options) — shares:
/// the module store its runs go through (one per (design, sizes), so
/// every protocol variant of those sizes goes through it too), the first
/// row's results that the others are held to, and the checks made once
/// for the shape's one module ([`Case::per_shape`]).
#[derive(Default)]
struct Shape {
    ms: Arc<ModuleStore>,
    first: OnceLock<(u64, HostStore, RunStats, RunStats)>,
    checked: std::sync::Mutex<Vec<&'static str>>,
    /// The module as elaborated: its wave plan and kernel plan.
    elaborated: OnceLock<(WavefrontPlan, KernelPlan)>,
}

/// A run of the fast plan by `run_wavefront`: stats, sinks, report.
pub type WaveRun = (RunStats, Vec<Vec<Value>>, KernelReport);

/// A row: its problem, and its runs, each made on first use.
pub struct Case {
    pub label: String,
    /// The corpus index (see [`prepared`]); `None` for a generated
    /// program.
    pub design: Option<usize>,
    pub plan: Arc<SystolicProgram>,
    pub env: Env,
    /// The seeded store, made on first use for a row of the table.
    store: OnceLock<HostStore>,
    pub seed: u64,
    pub opts: ElabOptions,
    /// The per-suite loops that reached this point, by test name.
    pub origins: Vec<&'static str>,
    shape: Arc<Shape>,
    runs: Runs,
}

type Ran = OnceLock<Result<SystolicRun, String>>;

/// A metered run, its metrics report, and, when it was traced too, its
/// Perfetto trace and the default (transfers-only) log beside it.
type Metered = (
    SystolicRun,
    MetricsReport,
    Option<(String, EventLogRecorder)>,
);

/// A row's runs, each made on first use.
#[derive(Default)]
struct Runs {
    oracle: OnceLock<HostStore>,
    plain: Ran,
    fast: Ran,
    reverse: Ran,
    again: Ran,
    module: OnceLock<Arc<CachedModule>>,
    metered: OnceLock<Result<Metered, String>>,
    sweeps: OnceLock<Option<[WaveRun; 2]>>,
}

impl Case {
    /// A row of its own store shape.
    pub fn new(label: String, design: Option<usize>, problem: Problem, seed: u64) -> Case {
        let (plan, env, store) = problem;
        Case {
            label,
            design,
            plan,
            env,
            store: OnceLock::from(store),
            seed,
            opts: ElabOptions::default(),
            origins: Vec::new(),
            shape: Arc::default(),
            runs: Runs::default(),
        }
    }

    /// Corpus design `design` at `n` (every size parameter), default
    /// options.
    pub fn corpus(design: usize, n: i64, seed: u64) -> Case {
        let label = format!("design {design} n={n} seed {seed}");
        Case::new(label, Some(design), problem(design, &[n], seed), seed)
    }

    /// This row with its runs going through `ms`, which other rows and
    /// runs may share.
    pub fn sharing(mut self, ms: &Arc<ModuleStore>) -> Case {
        let ms = Arc::clone(ms);
        self.shape = Arc::new(Shape {
            ms,
            ..Shape::default()
        });
        self
    }

    /// The row's data.
    pub fn store(&self) -> &HostStore {
        self.store.get_or_init(|| {
            let design = self.design.expect("a generated row brings its store");
            seeded_store(&self.plan, &self.env, inputs_of(design), self.seed)
        })
    }

    /// The module store every run of this row goes through.
    pub fn ms(&self) -> &ModuleStore {
        &self.shape.ms
    }

    /// The cached module of this row's shape.
    pub fn module(&self) -> Arc<CachedModule> {
        let cm = self.runs.module.get_or_init(|| {
            let cm = self
                .ms()
                .module(&self.plan, &self.env, self.store(), &self.opts);
            cm.unwrap_or_else(|e| panic!("{}: {e}", self.label))
        });
        Arc::clone(cm)
    }

    /// Run `check` once per store shape: it reads only the module, which
    /// every row of the shape shares ([`BINDING`] holds them to that), so
    /// its verdict on one row is its verdict on each.
    fn per_shape(&self, what: &'static str, check: impl FnOnce()) {
        let done = |d: &Vec<&str>| d.contains(&what);
        if !done(&lock(&self.shape.checked)) {
            check();
            lock(&self.shape.checked).push(what);
        }
    }

    /// The first size parameter.
    pub fn n(&self) -> i64 {
        self.env.expect(self.plan.source.sizes[0])
    }

    /// Every size parameter's value.
    pub fn sizes(&self) -> impl Iterator<Item = i64> + '_ {
        self.plan.source.sizes.iter().map(|&s| self.env.expect(s))
    }

    fn spec(&self, base: SimSpec) -> SimSpec {
        SimSpec {
            elab: self.opts.clone(),
            ..base
        }
    }

    fn go(&self, spec: SimSpec) -> Result<SystolicRun, String> {
        let (plan, env, store) = (&self.plan, &self.env, self.store());
        let run = simulate(self.ms(), plan, env, store, self.spec(spec));
        run.map_err(|e| e.to_string())
    }

    /// A run that completes, or `None` for a deadlock. Every row of the
    /// table completes; a generated program may deadlock under the
    /// paper's protocol (`tests/random_programs.rs` documents the
    /// envelope).
    fn completed<'a>(&self, run: &'a Result<SystolicRun, String>) -> Option<&'a SystolicRun> {
        match run {
            Ok(run) => Some(run),
            Err(e) => {
                let may = self.design.is_none() && e.contains("deadlock");
                assert!(may, "{}: {e}", self.label);
                None
            }
        }
    }

    /// The sequential oracle's store.
    pub fn oracle(&self) -> &HostStore {
        self.runs.oracle.get_or_init(|| {
            let mut store = self.store().clone();
            seq::run(&self.plan.source, &self.env, &mut store);
            store
        })
    }

    /// The plain rendezvous run.
    pub fn plain(&self) -> Option<&SystolicRun> {
        self.completed(self.runs.plain.get_or_init(|| self.go(SimSpec::plain())))
    }

    /// The default run: the optimizer's module on the wavefront engine.
    pub fn fast(&self) -> Option<&SystolicRun> {
        self.completed(self.runs.fast.get_or_init(|| self.go(SimSpec::default())))
    }

    /// The default spec under the identity schedule policy, once the
    /// default run has made the store warm.
    pub fn again(&self) -> Option<&SystolicRun> {
        self.fast()?;
        self.completed(self.runs.again.get_or_init(|| {
            self.go(SimSpec {
                sched: Some(Box::new(FifoPolicy)),
                ..SimSpec::default()
            })
        }))
    }

    /// The default spec under a non-FIFO schedule policy.
    pub fn reverse(&self) -> Option<&SystolicRun> {
        self.completed(self.runs.reverse.get_or_init(|| {
            self.go(SimSpec {
                sched: Some(Box::new(ReversePolicy)),
                ..SimSpec::default()
            })
        }))
    }

    /// The default spec with a metrics recorder attached, and its
    /// report; on a row of [`OBSERVED`] an event log with marks rides on
    /// the same run, as `--trace-out` attaches it, and so does a default
    /// one: the trace and that log come too.
    pub fn metered(&self) -> Option<&Metered> {
        self.plain()?;
        let run = self.runs.metered.get_or_init(|| {
            let traced = self.origins.iter().any(|o| OBSERVED.contains(o));
            let (metrics, recorder) = shared(MetricsRecorder::new());
            let (marked, tracer) = shared(EventLogRecorder::with_marks());
            let (plain, logger) = shared(EventLogRecorder::new());
            let mut recorders = vec![recorder];
            if traced {
                recorders.extend([tracer, logger]);
            }
            let run = self.go(SimSpec {
                recorders,
                ..SimSpec::default()
            });
            run.map(|run| {
                let trace = traced.then(|| {
                    let trace = trace_json(&lock(&marked), &self.plan, &run);
                    (trace, std::mem::take(&mut *lock(&plain)))
                });
                let report = lock(&metrics).report(&run.module.elab.module, &run.stats);
                (run, report, trace)
            })
        });
        Some(
            run.as_ref()
                .expect("a metered run completes where the plain run does"),
        )
    }

    /// The fast plan over this row's data on `run_wavefront`, with its
    /// kernels and on the scalar sweep alone.
    pub fn sweeps(&self) -> Option<&[WaveRun; 2]> {
        let sweeps = self.runs.sweeps.get_or_init(|| {
            self.fast()?;
            let cm = self.module();
            let fast = cm.fast_plan();
            let module = fast.module.with_data(cm.elab.gather(self.store()).unwrap());
            let wave = |kernels| run_wavefront(&module, &fast.wavefront, kernels, false).unwrap();
            Some([wave(Some(&fast.kernels)), wave(None)])
        });
        sweeps.as_ref()
    }
}

/// Reverses each round's firing order and honestly reports
/// `is_fifo() == false`.
pub struct ReversePolicy;

impl SchedulePolicy for ReversePolicy {
    fn schedule_round(&mut self, _round: u64, fire: &mut Vec<ChanId>, _defer: &mut Vec<ChanId>) {
        fire.reverse();
    }

    fn label(&self) -> String {
        "reverse".into()
    }
}

/// Every protocol variant the elaborator takes.
fn all_options(_: usize) -> Vec<ElabOptions> {
    let combo = |bits: usize| ElabOptions {
        internal_buffers: bits & 1 == 0,
        split_propagation: bits & 2 != 0,
        merge_io: bits & 4 != 0,
    };
    (0..8).map(combo).collect()
}

/// Default, split propagation, and merged host i/o on the appendix
/// designs only, as the ladder and binding loops had it.
fn protocols(design: usize) -> Vec<ElabOptions> {
    let n = if design < 4 { 3 } else { 2 };
    all_options(design).into_iter().step_by(2).take(n).collect()
}

fn variants(_: usize) -> Vec<ElabOptions> {
    option_variants().into_iter().map(|v| v.1).collect()
}

fn default(_: usize) -> Vec<ElabOptions> {
    vec![ElabOptions::default()]
}

type Options = fn(usize) -> Vec<ElabOptions>;

/// A per-suite loop: its test name, the columns it holds its rows to,
/// and its designs, sizes (each binding every size parameter), seeds and
/// options.
type Loop = (
    &'static str,
    &'static [&'static Column],
    &'static [usize],
    &'static [i64],
    &'static [u64],
    Options,
);

const PAPER: &[usize] = &[0, 1, 2, 3];
const GALLERY: &[usize] = &[0, 1, 2, 3, 4, 5, 6, 7, 8];
const ALL: &[usize] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, CORPUS];
const SHIPPED: &[usize] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, CORPUS, MATMUL_SYS, POLYPROD_SYS];

/// The per-suite loops the table absorbed. (`fast_plan_digests` holds
/// its rows to `tests/golden/fast_plans.txt` byte for byte, the whole
/// file at once.)
#[rustfmt::skip]
pub const LOOPS: &[Loop] = &[
    ("metrics_op_totals_are_the_modules_static_counts", &[&REPORTS], ALL, &[1, 2, 3], &[5], default),
    ("seq_run_matches_its_reference_on_the_whole_corpus", &[&SEQ], ALL, &[0, 1, 2, 3, 5, 12], &[73], default),
    ("every_rung_matches_the_oracle_with_the_documented_engagement", &[&ORACLE, &COUNT_LAW, &KERNELS, &ENGAGEMENT, &BINDING], ALL, &[2, 4], &[23], protocols),
    ("the_wavefront_plan_keeps_its_invariants_on_every_design", &[&WAVEFRONT_PLAN], ALL, &[1, 2, 3, 5], &[5], default),
    ("the_elaborated_module_runs_exactly_on_the_wavefront_engine", &[&COUNT_LAW], ALL, &[1, 2, 3, 5], &[19], default),
    ("elaboration_agrees_with_the_scan_and_the_symbolic_plan_across_the_corpus", &[&SCAN], ALL, &[1, 2, 3, 5], &[7], variants),
    ("no_elaborated_module_holds_a_zero_count_pass", &[&CHANNEL_LAW], ALL, &[0, 1, 2, 3, 5], &[7], variants),
    ("the_channel_tables_are_the_walk_of_the_ops_and_every_row_runs_fast", &[&CHANNEL_LAW, &KERNEL_PLAN], ALL, &[0, 1, 2, 3, 5], &[13], all_options),
    ("warm_cache_runs_bit_match_cold_runs_across_engine_modes", &[&ORACLE, &BINDING, &KERNELS], ALL, &[3], &[23], default),
    ("data_sets_of_one_shape_share_one_module_on_every_rung", &[&BINDING, &ORACLE], ALL, &[3], &[5, 23, 9001], protocols),
    ("the_optimizer_keeps_the_data_segment_word_for_word_on_the_corpus", &[&BINDING], ALL, &[2, 4], &[31], default),
    ("kernel_path_matches_macro_step_and_the_oracle_on_every_design", &[&KERNELS, &KERNEL_PLAN], GALLERY, &[4], &[17], default),
    ("kernel_path_is_invisible_on_the_optimized_module", &[&KERNELS, &COUNT_LAW], GALLERY, &[4], &[23], default),
    ("e2_cycle_schedule_matches_the_scalar_sweep_at_every_size", &[&KERNELS, &KERNEL_PLAN], &[3], &[1, 2, 3, 4, 5, 8, 16], &[29], default),
    ("wavefront_gate_corners", &[&ORACLE, &COUNT_LAW, &ENGAGEMENT], &[0], &[0, 1, 2], &[31], default),
    ("paper_designs_are_deterministic_and_match_goldens", &[&GOLDENS], PAPER, &[4], &[11], default),
    ("executors_agree_bit_for_bit_on_paper_designs", &[&GOLDENS, &COUNT_LAW], PAPER, &[4], &[11], default),
    ("coop_under_explicit_fifo_policy_matches_pre_hook_goldens", &[&GOLDENS], PAPER, &[4], &[11], default),
    ("recorder_and_non_fifo_runs_stay_on_the_unbatched_goldens", &[&GOLDENS, &ENGAGEMENT], PAPER, &[4], &[11], default),
    ("gallery_programs_are_deterministic_and_match_goldens", &[&GOLDENS], &[4, 5, 6, 7, 8], &[3], &[11], default),
    ("fast_plan_digests", &[&DIGESTS], SHIPPED, &[0, 1, 2, 3, 5], &[DIGEST_SEED], default),
];

/// The oracle suite's designs — the appendix designs, the derived FIR
/// filter, `fir.sys` and `polyprod.sys` — at three size tuples each.
#[rustfmt::skip]
const ORACLE_SUITE: &[(usize, [&[i64]; 3])] = &[
    (0, [&[1], &[3], &[6]]),
    (1, [&[1], &[3], &[6]]),
    (2, [&[1], &[2], &[4]]),
    (3, [&[1], &[2], &[4]]),
    (7, [&[1, 2], &[2, 5], &[3, 4]]),
    (CORPUS, [&[1, 2], &[2, 5], &[3, 4]]),
    (POLYPROD_SYS, [&[1], &[3], &[6]]),
];

/// The oracle suite's loops over [`ORACLE_SUITE`]: all three size tuples
/// at seeds 17 and 43, the middle one at seed 59.
#[rustfmt::skip]
const ORACLE_TESTS: [(&str, &[&Column]); 3] = [
    ("coop_matches_the_sequential_oracle_on_every_design", &[&ORACLE]),
    ("executors_agree_on_stores_and_invariant_statistics", &[&ORACLE, &COUNT_LAW, &BINDING]),
    ("observed_runs_match_the_oracle_too", &[&REPORTS]),
];

/// The columns of the per-suite loop `origin`.
fn columns_of(origin: &str) -> &'static [&'static Column] {
    let loops = LOOPS.iter().map(|l| (l.0, l.1));
    let mut all = loops.chain(ORACLE_TESTS);
    let found = all.find(|l| l.0 == origin);
    found.unwrap_or_else(|| panic!("no loop {origin}")).1
}

/// The table: every point a per-suite loop reached, once, tagged with
/// the loops that reached it.
pub fn table() -> &'static [Case] {
    static TABLE: OnceLock<Vec<Case>> = OnceLock::new();
    TABLE.get_or_init(|| {
        type Point = (usize, Vec<i64>, u64, ElabOptions, Vec<&'static str>);
        let mut points: Vec<Point> = Vec::new();
        let mut add = |origin, design, sizes: &[i64], seed, opts: ElabOptions| {
            let key = (design, sizes, seed, &opts);
            match points
                .iter_mut()
                .find(|p| (p.0, &p.1[..], p.2, &p.3) == key)
            {
                Some(p) => p.4.push(origin),
                None => points.push((design, sizes.to_vec(), seed, opts, vec![origin])),
            }
        };
        let [(coop, _), (executors, _), (observed, _)] = ORACLE_TESTS;
        for &(design, tuples) in ORACLE_SUITE {
            for sizes in tuples {
                add(coop, design, sizes, 17, ElabOptions::default());
                add(executors, design, sizes, 43, ElabOptions::default());
            }
            add(observed, design, tuples[1], 59, ElabOptions::default());
        }
        for &(origin, _, designs, ns, seeds, options) in LOOPS {
            for &design in designs {
                for n in ns {
                    for &seed in seeds {
                        for opts in options(design) {
                            add(origin, design, &[*n], seed, opts);
                        }
                    }
                }
            }
        }

        let mut stores: HashMap<(usize, Vec<i64>), Arc<ModuleStore>> = HashMap::new();
        let mut shapes: HashMap<(usize, Vec<i64>, ElabOptions), Arc<Shape>> = HashMap::new();
        let case = |(design, sizes, seed, opts, origins): Point| {
            let ms = Arc::clone(stores.entry((design, sizes.clone())).or_default());
            let shape = shapes.entry((design, sizes.clone(), opts.clone()));
            let shape = shape.or_insert_with(|| {
                Arc::new(Shape {
                    ms,
                    ..Shape::default()
                })
            });
            let plan = plan_of(design);
            let name = &plan.source.name;
            let label = format!("design {design} ({name}) sizes {sizes:?} seed {seed} {opts:?}");
            let env = bind(&plan, &sizes);
            Case {
                label,
                design: Some(design),
                plan,
                env,
                store: OnceLock::new(),
                seed,
                opts,
                origins,
                shape: Arc::clone(shape),
                runs: Runs::default(),
            }
        };
        points.into_iter().map(case).collect()
    })
}

/// The plain run's store restricted to the words each sink collects.
fn sinks_of(cm: &CachedModule, store: &HostStore) -> Vec<Vec<Value>> {
    let el = &cm.elab;
    let mut sinks = vec![Vec::new(); el.module.n_outputs];
    for out in &el.outputs {
        let raw = store.get(&out.variable).raw();
        let words = el.words_of(out).iter().map(|&at| raw[at as usize]);
        sinks[out.output as usize] = words.collect();
    }
    sinks
}

/// The oracle's own oracle: `seq::run` (a strided walk) leaves the
/// store and counts the statements of [`seq_reference`], the
/// point-by-point walker it replaced.
fn seq_walk(c: &Case) -> bool {
    let (source, env) = (&c.plan.source, &c.env);
    let mut reference = c.store().clone();
    let count = seq_reference(source, env, &mut reference);
    assert_eq!(count, source.index_space_size(env), "statement count");
    assert!(reference == *c.oracle(), "seq::run against its reference");
    true
}

/// Every rung that completes leaves the sequential oracle's store.
fn oracle(c: &Case) -> bool {
    for (rung, run) in [("plain", c.plain()), ("default", c.fast())] {
        if let Some(run) = run {
            assert!(
                run.store == *c.oracle(),
                "{rung} rung diverges from the oracle"
            );
        }
    }
    true
}

/// The optimizer's count law between the plain and the default run, and
/// the module as elaborated — every relay in place — on the wavefront
/// engine, with kernels and without: the plain run's counts and sinks
/// exactly.
fn count_law(c: &Case) -> bool {
    let (Some(plain), Some(fast)) = (c.plain(), c.fast()) else {
        return false;
    };
    assert_count_law(&c.label, &plain.stats, fast);
    if let Some(r) = &fast.opt {
        assert_eq!(fast.stats.processes, r.processes_after);
    }
    assert!(
        fast.stats.rounds <= plain.stats.rounds,
        "a fast path adds rounds"
    );
    let cm = c.module();
    let el = &cm.elab;
    let module = el.module.with_data(el.gather(c.store()).unwrap());
    let (wf, kernels) = c.shape.elaborated.get_or_init(|| {
        let wf = analyze_wavefront(&el.module, cm.batch_plan(), &[]);
        let kernels = analyze_kernels(&el.module, &wf);
        (wf, kernels)
    });
    let want = sinks_of(&cm, &plain.store);
    for kernels in [Some(kernels), None] {
        let (stats, sinks, _) = run_wavefront(&module, wf, kernels, false).unwrap();
        let counts = |s: &RunStats| (s.messages, s.steps, s.processes);
        assert_eq!(counts(&stats), counts(&plain.stats), "elaborated module");
        assert!(sinks == want, "elaborated module: sinks");
    }
    true
}

/// The channel tables the elaborator recorded are the walk of the ops
/// (`systolic_runtime::check`, called so that release builds run it
/// too), the fused module's too; the module keeps the op law
/// ([`assert_lean_ops`]) and the optimizer fuses every relay; the
/// default run, where it completes, takes the fast engine.
fn channel_law(c: &Case) -> bool {
    c.per_shape("channel law", || {
        let cm = c.module();
        assert_eq!(tables(&cm.elab.module, cm.batch_plan()), Ok(()));
        assert_eq!(cm.elab.wide, None, "within the par-set mask");
        let relays = assert_lean_ops(&c.label, &cm.elab.module);
        let fast = cm.fast_plan();
        if let Some(od) = &fast.optimized {
            assert_eq!(tables(&od.0.module, &od.1), Ok(()), "fused");
        }
        let fused = fast.opt_report().map_or(0, |r| r.fused_relays());
        assert_eq!(fused, relays, "every relay fuses");
    });
    if let Some(run) = c.fast() {
        assert!(run.wavefront, "the default run is a fast run");
    }
    true
}

/// The kernel run and the scalar sweep of one fast plan agree with each
/// other, with the default run (stats and kernel report) and with the
/// plain run's sinks. On the corpus the kernels engage wherever the plan
/// says they may ([`KERNEL_PLAN`]), and E.2's cycle runs every iteration
/// on its firing schedule, one batch per round.
fn kernels(c: &Case) -> bool {
    let (Some(plain), Some(fast), Some([k, s])) = (c.plain(), c.fast(), c.sweeps()) else {
        return false;
    };
    assert_eq!((&k.0, &k.1), (&s.0, &s.1), "kernels vs scalar sweep");
    assert_eq!(k.0, fast.stats, "the default run is the kernel run");
    assert_eq!(Some(&k.2), fast.kernel.as_ref(), "kernel report");
    let cm = c.module();
    assert!(k.1 == sinks_of(&cm, &plain.store), "sinks vs the plain run");
    if c.design.is_none() {
        return true;
    }
    let (report, eligible) = (&k.2, cm.fast_plan().kernels.eligible_chunks as u64);
    assert!(report.compiled, "{report:?}");
    assert_eq!(report.eligible_chunks, eligible);
    let engaged = report.waves_fused > 0 && report.iterations > 0;
    assert!(eligible == 0 || engaged, "eligible but idle: {report:?}");
    if let Some(n) = e2_cycle(c) {
        assert_eq!(
            report.iterations,
            (n + 1).pow(3),
            "every iteration scheduled"
        );
        assert_eq!(report.batches, 3 * n + 1, "a batch per round");
    }
    true
}

/// E.2's n when the row's plan has its one cycle: at n ≥ 1, and not under
/// split propagation.
fn e2_cycle(c: &Case) -> Option<u64> {
    let n = c.n() as u64;
    (c.design == Some(3) && !c.opts.split_propagation && n > 0).then_some(n)
}

const TRANSPORT: &str = "transport process (no compute op)";

/// Where the kernels reach, on the corpus: every compute chunk; only
/// transport processes take the scalar sweep — except E.2 (design 3)
/// under split propagation at n ≥ 1, whose escorts put transport windows
/// into its one compute cycle — and E.2's cycle otherwise has a firing
/// schedule, one round per value of `step = i + j + k`.
fn kernel_plan(c: &Case) -> bool {
    let Some(design) = c.design else {
        return false;
    };
    c.per_shape("kernel plan", || {
        let cm = c.module();
        let plan = &cm.fast_plan().kernels;
        let mut fallbacks: Vec<(&str, u64)> =
            plan.fallbacks().iter().map(|(r, k)| (&r[..], *k)).collect();
        let transport = fallbacks.iter().any(|&(r, _)| r == TRANSPORT);
        assert!(transport, "sources and sinks stay scalar: {fallbacks:?}");
        fallbacks.retain(|&(reason, _)| reason != TRANSPORT);
        let n = c.n();
        if design == 3 && c.opts.split_propagation && n > 0 {
            let windows = format!("cyclic chunk ({} compute windows)", 3 * n * (n + 1) + 1);
            assert_eq!(fallbacks, [(windows.as_str(), 1)]);
            assert_eq!(plan.eligible_chunks, 0);
            return;
        }
        assert_eq!(fallbacks, [], "only transport runs scalar");
        assert!(plan.eligible_chunks > 0, "no eligible chunk");
        if let Some(n) = e2_cycle(c) {
            assert_eq!(plan.eligible_chunks, 1, "one chunk, the cycle");
            let cycles = plan.json();
            let cycles = cycles.get("cycles").and_then(|c| c.as_arr());
            let [cycle] = cycles.expect("a scheduled cycle") else {
                panic!("one cycle");
            };
            let field = |name| cycle.get(name).and_then(|v| v.as_i64()).unwrap() as u64;
            assert_eq!(
                (field("rounds"), field("fires")),
                (3 * n + 1, (n + 1).pow(3))
            );
        }
    });
    true
}

/// A module is code for a store shape, not a data set: every data set
/// and protocol variant of a table row's (design, sizes) goes through
/// one store, which instantiates one module and one skeleton per variant;
/// a warm run changes nothing, the logical counts are the shape's, two
/// data sets give two results, and the optimizer keeps the data segment
/// word for word.
fn binding(c: &Case) -> bool {
    let (Some(plain), Some(fast)) = (c.plain(), c.fast()) else {
        return false;
    };
    let ran = |r: &SystolicRun| (r.store.clone(), r.stats.clone(), r.kernel.clone());
    assert!(
        ran(c.again().unwrap()) == ran(fast),
        "a warm run changed the result"
    );
    let rows = if c.origins.is_empty() { &[] } else { table() };
    let shares = |r: &&Case| Arc::ptr_eq(&r.shape.ms, &c.shape.ms);
    let mut variants = HashSet::from([&c.opts]);
    for row in rows.iter().filter(shares) {
        row.module();
        variants.insert(&row.opts);
    }
    let (v, s) = (variants.len() as u64, c.ms().stats());
    let counters = (s.module_misses, s.skeleton_misses, s.module_evictions);
    assert_eq!(counters, (v, v, 0), "one module per variant: {s:?}");
    let cm = c.module();
    let data = cm.elab.gather(c.store()).unwrap();
    assert_eq!(data.len(), cm.elab.module.data.len(), "data segment");
    if let Some(od) = &cm.fast_plan().optimized {
        assert_eq!(od.0.module.data, cm.elab.module.data, "fused data segment");
    }
    let first = (
        c.seed,
        plain.store.clone(),
        plain.stats.clone(),
        fast.stats.clone(),
    );
    let (seed, store, p, f) = c.shape.first.get_or_init(|| first);
    assert_eq!((p, f), (&plain.stats, &fast.stats), "counts of one shape");
    assert!(
        *seed == c.seed || *store != plain.store,
        "two seeds, one result"
    );
    true
}

/// The production elaboration against evaluators it shares no code
/// with: (a) soak / count / drain against the index-space scan (not
/// under split propagation, where they live in the escorts), (b) CS
/// membership, `first` and `count` against the plan's piecewise forms,
/// (c) the census laws.
fn scan(c: &Case) -> bool {
    c.per_shape("scan", || scan_module(c));
    true
}

fn scan_module(c: &Case) {
    let (plan, env, opts) = (&*c.plan, &c.env, &c.opts);
    let cm = c.module();
    let el = &cm.elab;
    if !opts.split_propagation {
        let scanned = agree_with_procir(plan, env, el);
        assert_eq!(scanned, Ok(el.comp_at().len()), "scan");
    }
    let cs: Vec<Vec<i64>> = plan
        .ps_points(env)
        .into_iter()
        .filter(|y| plan.in_cs(env, y))
        .collect();
    let points: Vec<Vec<i64>> = el.comp_at().map(|(y, _)| y.to_vec()).collect();
    assert_eq!(points, cs, "CS points");
    for (y, pid) in el.comp_at() {
        let first = plan.first_at(env, y);
        assert_eq!(
            Some(el.module.first_of(pid)),
            first.as_deref(),
            "first at {y:?}"
        );
        let counts: Vec<u64> = el
            .module
            .ops_of(pid)
            .iter()
            .filter_map(|op| match op {
                ProcOp::Compute { count } => Some(*count),
                _ => None,
            })
            .collect();
        assert_eq!(counts, [plan.count_at(env, y) as u64], "count at {y:?}");
    }
    let n = &el.census;
    assert_eq!((n.inputs, n.computation), (n.outputs, cs.len()));
    let total =
        n.computation + n.escorts + n.external_buffers + n.internal_buffers + n.inputs + n.outputs;
    assert_eq!(el.module.procs.len(), total, "process total");
    let moving = plan.streams.iter().filter(|s| s.kind == StreamKind::Moving);
    let escorts = if opts.split_propagation {
        2 * moving.count() * n.computation
    } else {
        0
    };
    assert_eq!(n.escorts, escorts);
    assert!(opts.internal_buffers || n.internal_buffers == 0);
    if opts.merge_io {
        let streams = plan.streams.len();
        assert_eq!(
            (n.inputs, n.outputs),
            (streams, streams),
            "one host per stream"
        );
    }
}

/// The loops whose rows are also traced as `run --trace-out` and the
/// service trace them: their metered run carries a Perfetto recorder
/// beside the metrics recorder, as `run --metrics --trace-out` does. The
/// rest of the table attaches the metrics recorder alone: with the trace
/// on every row, the table's `reports` column took 3.4 s in a debug build
/// on 2 vCPUs against 0.56 s (medians of five alternated runs).
const OBSERVED: [&str; 2] = [
    "observed_runs_match_the_oracle_too",
    "metrics_op_totals_are_the_modules_static_counts",
];

/// A metered run (a recorder attached, so the plain engine) reports the
/// run it made — the oracle's store, transfers, time and steps that
/// reconcile with its stats, op totals that are the module's static
/// counts — and that report is the row's module's rendezvous profile,
/// which the metrics document prints (rows sharing a store with another
/// data seed check that it does not read the data); on the rows of
/// [`OBSERVED`] it ran the row's cached module, and its trace is the run
/// (one `xfer` per message, one `step` per step, one `finished` per
/// process) while a default log beside it keeps its transfers and no
/// marks;
/// the sections the metrics document and
/// `--opt-report` take from the cached module describe the module a
/// default run executes: the `optimizer`, `wavefront` and `kernels`
/// sections are those of the fast plan, derived here again from the
/// elaborated module by the runtime API alone.
fn reports(c: &Case) -> bool {
    let Some((run, report, trace)) = c.metered() else {
        return false;
    };
    let cm = c.module();
    let stats = &run.stats;
    if let Some((trace, log)) = trace {
        assert!(Arc::ptr_eq(&run.module, &cm), "the row's module");
        let doc = json::parse(trace).expect("trace");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let count = |name: &str| {
            let named = |e: &&Json| e.get("name").and_then(Json::as_str) == Some(name);
            events.iter().filter(named).count() as u64
        };
        assert_eq!(
            (count("xfer"), count("step"), count("finished")),
            (stats.messages, stats.steps, stats.processes as u64),
            "the trace is the run"
        );
        assert_eq!(log.transfers().len() as u64, stats.messages, "log");
        assert!(log.marks().is_empty(), "a default log keeps no marks");
    }
    let m = &cm.elab.module;
    let mut want = [0u64; 6];
    for op in m.ops.iter() {
        let (kind, n) = match *op {
            ProcOp::Emit { .. } => (OpKind::Emit, 1),
            ProcOp::Collect { .. } => (OpKind::Collect, 1),
            ProcOp::Keep { .. } => (OpKind::Keep, 1),
            ProcOp::Pass { n, .. } => (OpKind::Pass, n),
            ProcOp::Eject { .. } => (OpKind::Eject, 1),
            ProcOp::Compute { count } => (OpKind::Compute, count),
        };
        want[kind as usize] += n;
    }
    assert_eq!(want[OpKind::Emit as usize], m.data.len() as u64);
    assert!(!run.wavefront, "a recorder closes the gate");
    assert!(run.store == *c.oracle(), "metered store");
    assert_eq!(
        (report.transfers, report.end_time),
        (stats.messages, stats.rounds)
    );
    let steps: u64 = report.processes.iter().map(|p| p.steps).sum();
    assert_eq!(steps, stats.steps);
    assert_eq!(report.op_totals(), want, "op totals");
    // The module's profile is this run's report, over whatever data
    // instantiated the module: the metrics document is a fact of the
    // module.
    let profile = cm.profile().as_ref().expect("the profile completes");
    assert!(profile == report, "profile");

    c.per_shape("report sections", || report_sections(&cm));
    true
}

fn report_sections(cm: &CachedModule) {
    let el = &cm.elab;
    let fused = optimize(&el.module, &el.channels);
    let (module, batch, needs) = match &fused {
        Some((o, b)) => (&o.module, b, &o.ring_needs[..]),
        None => (&el.module, &el.channels, &[][..]),
    };
    let waves = analyze_wavefront(module, batch, needs);
    let optimizer = cm.fast_plan().opt_report().map(|r| r.json());
    let want = fused.as_ref().map(|(o, _)| o.report.json());
    assert_eq!(optimizer, want, "optimizer section");
    assert_eq!(cm.wavefront_json(), waves.json(module), "wavefront section");
    let kernels = analyze_kernels(module, &waves).json();
    assert_eq!(cm.kernels_json(), kernels, "kernels section");
}

/// [`check_wavefront_plans`] on the row's module.
fn wavefront_plan(c: &Case) -> bool {
    c.per_shape("wavefront plan", || {
        check_wavefront_plans(&c.label, &c.module());
    });
    true
}

/// Which engine each rung takes: the plain rung neither the fast engine
/// nor the optimizer nor the kernels; the default rung the fast engine
/// and its kernels, on the optimizer's module exactly when it rewrote
/// one; the identity schedule policy keeps the gate open, and a non-FIFO
/// policy closes it — each with the oracle's store and the plain run's
/// logical counts. (A recorder closes it too: [`REPORTS`].)
fn engagement(c: &Case) -> bool {
    let (Some(plain), Some(fast)) = (c.plain(), c.fast()) else {
        return false;
    };
    let plain_rung = (plain.wavefront, plain.opt.is_some(), plain.kernel.is_some());
    assert_eq!(plain_rung, (false, false, false), "the plain rung");
    assert!(fast.wavefront && fast.kernel.is_some(), "the default rung");
    let rewrote = c.module().fast_plan().optimized.is_some();
    assert_eq!(fast.opt.is_some(), rewrote, "the optimizer rides the gate");
    let fifo = c.again().unwrap();
    assert!(fifo.wavefront, "the identity policy keeps the gate open");
    assert!(
        (&fifo.store, &fifo.stats) == (c.oracle(), &fast.stats),
        "FIFO policy"
    );
    let reverse = c.reverse().expect("completes where plain does");
    assert!(!reverse.wavefront, "a non-FIFO policy closes the gate");
    assert!(reverse.store == *c.oracle(), "reversed schedule");
    let logical = |r: &SystolicRun| (r.stats.messages, r.stats.steps);
    assert_eq!(logical(reverse), logical(plain), "reversed schedule");
    true
}

/// `(processes, rounds, messages, steps)` of the plain run, captured
/// from the seed scheduler: the appendix designs at n = 4 and the
/// gallery at n = 3.
const GOLDEN_STATS: [(usize, i64, [u64; 4]); 9] = [
    (0, 4, [16, 44, 139, 244]),
    (1, 4, [24, 70, 235, 444]),
    (2, 4, [55, 36, 450, 705]),
    (3, 4, [191, 22, 710, 1111]),
    (4, 3, [14, 39, 103, 188]),
    (5, 3, [40, 32, 240, 392]),
    (6, 3, [40, 32, 240, 392]),
    (7, 3, [14, 39, 103, 188]),
    (8, 3, [160, 32, 960, 1568]),
];

/// The row's uniform size, when every size parameter is bound to it.
fn uniform(c: &Case) -> Option<i64> {
    let n = c.n();
    c.sizes().all(|s| s == n).then_some(n)
}

/// The scheduler is deterministic and its counts are pinned: the plain
/// run twice, and once more under an explicit FIFO policy, moves the
/// golden counts; a recorder or a non-FIFO policy keeps the run on the
/// plain engine with the golden counts (all of them, and messages and
/// steps, respectively); the default run moves them less what the
/// optimizer's report itemizes.
fn goldens(c: &Case) -> bool {
    let key = (c.design, uniform(c), c.opts == ElabOptions::default());
    let Some(&(_, _, [processes, rounds, messages, steps])) = GOLDEN_STATS
        .iter()
        .find(|g| key == (Some(g.0), Some(g.1), true))
    else {
        return false;
    };
    let want = RunStats {
        rounds,
        messages,
        processes: processes as usize,
        steps,
    };
    let (plain, fast) = (c.plain().unwrap(), c.fast().unwrap());
    assert_eq!(plain.stats, want, "stats drifted from the seed golden");
    let again = c.go(SimSpec::plain()).unwrap();
    let hooked = c
        .go(SimSpec {
            sched: Some(Box::new(FifoPolicy)),
            ..SimSpec::plain()
        })
        .unwrap();
    for run in [&again, &hooked] {
        assert!((&run.store, &run.stats) == (&plain.store, &want), "rerun");
    }
    assert_eq!(c.metered().unwrap().0.stats, want, "metered run");
    let reverse = c.reverse().unwrap();
    assert_eq!(
        (reverse.stats.messages, reverse.stats.steps),
        (messages, steps)
    );
    assert!(fast.store == plain.store, "wavefront store");
    assert_count_law(&c.label, &want, fast);
    true
}

/// 64-bit FNV-1a: the same on every build and platform (unlike
/// `DefaultHasher`), so a golden of digests stays valid.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The row's line of `tests/golden/fast_plans.txt`: the module the fast
/// engine runs (every table, labels included, with its channel count)
/// and every plan a run of it reads (the wave structure with its ring
/// capacities, and the kernel plan), by digest.
pub fn digest_line(c: &Case) -> String {
    let name = match c.design {
        Some(MATMUL_SYS) => "matmul.sys".to_string(),
        Some(POLYPROD_SYS) => "polyprod.sys".to_string(),
        Some(d) => format!("design {d} ({})", c.plan.source.name),
        None => c.label.clone(),
    };
    let cm = c.module();
    let fast = cm.fast_plan();
    let m = &*fast.module.with_data(cm.elab.gather(c.store()).unwrap());
    let module = format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{} {}",
        m.ops, m.data, m.moving, m.points, m.procs, m.n_chans, m.n_outputs
    );
    let wf = &*fast.wavefront;
    // `None ` is what the plan's reject reason, since deleted, printed
    // on every row: kept so that the pinned digests stay the same.
    let mut plan_text = format!("None {:?}\n", wf.capacities);
    for w in 0..wf.n_waves() {
        for k in wf.wave(w) {
            plan_text += &format!("{w} {k} {:?} {:?}\n", wf.chunk(k), wf.neighbors(k));
        }
    }
    plan_text.push_str(&fast.kernels.json().to_string());
    format!(
        "{name} n={}: {} procs, {} chans, {} chunks, module {:016x}, plans {:016x}\n",
        c.n(),
        m.procs.len(),
        m.n_chans,
        wf.n_chunks(),
        fnv1a(&module),
        fnv1a(&plan_text)
    )
}

/// Every default-options row with a line in `tests/golden/fast_plans.txt`
/// (seeded with [`DIGEST_SEED`]) digests to that line; at any other seed
/// to the same line but for the module's data segment: a fast plan is
/// code for the store's shape, not for its data.
fn digests(c: &Case) -> bool {
    static GOLDEN: OnceLock<String> = OnceLock::new();
    let golden = GOLDEN.get_or_init(|| read_golden("fast_plans.txt"));
    if c.opts != ElabOptions::default() || uniform(c).is_none() {
        return false;
    }
    let line = digest_line(c);
    let key = &line[..line.find(':').unwrap() + 1];
    let Some(want) = golden.lines().find(|l| l.starts_with(key)) else {
        return false;
    };
    // ", module " and the data-dependent digest after it.
    let plans = |l: &str| l.replacen(&l[l.find(", module").unwrap()..][..25], "", 1);
    let (line, want) = match c.seed == DIGEST_SEED {
        true => (line.trim_end().to_string(), want.to_string()),
        false => (plans(line.trim_end()), plans(want)),
    };
    assert_eq!(line, want, "fast plan digest");
    true
}

/// The data seed of `tests/golden/fast_plans.txt`.
pub const DIGEST_SEED: u64 = 3;
