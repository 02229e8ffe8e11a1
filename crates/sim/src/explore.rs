//! Schedule exploration: sweep a seed × policy matrix over a subject,
//! detect any schedule dependence, and shrink the offending decision log
//! to a minimal replayable prefix.
//!
//! The oracle is the paper's Sec. 4 schedule-independence theorem: a
//! correctly systolized program run under *any* legal interleaving
//! produces the same outputs, and under pure permutation policies the
//! same `RunStats` as well. A divergence is therefore always a bug — in
//! the compiled network, in the engine, or (deliberately, for the
//! harness's own mutation test) in a subject like [`RaceSubject`] whose
//! output depends on who fires first.

use crate::json::{parse, Json};
use crate::policy::{policy_by_name, RecordingPolicy, ReplayPolicy, ScheduleLog, ScheduleRound};
use std::sync::Arc;
use systolic_core::{systolize, CompileError, Options, PlaceChoice, SystolicProgram};
use systolic_interp::{ElabError, ElabOptions, ModuleStore, Problem, ProblemError};
use systolic_runtime::{
    canonicalize_transfers, first_divergence, lock, shared, EventLogRecorder, Network,
    ProcIrBuilder, ProcIrModule, RunError, RunStats, SchedulePolicy, Transfer, Value,
};

/// What one run produced: everything a schedule may not change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// The output sink buffers, in output-index order.
    pub outputs: Vec<Vec<Value>>,
    pub stats: RunStats,
    /// The transfer stream, canonicalized (sorted by round, channel,
    /// value) so legal same-round reorderings compare equal.
    pub transfers: Vec<Transfer>,
}

/// Something the explorer can run repeatedly under different schedule
/// policies. Each `run` must build a fresh network from the same
/// immutable description.
pub trait DstSubject {
    /// The design this subject's schedule files name.
    fn label(&self) -> String {
        self.schedule_stub().design
    }
    fn run(&self, sched: Option<Box<dyn SchedulePolicy>>) -> Result<Outcome, RunError>;
    /// A schedule file identifying this subject, with an empty log.
    fn schedule_stub(&self) -> ScheduleFile;
}

/// A compiled systolic plan elaborated at a fixed size and bound to its
/// own seeded inputs; every `run` re-instantiates the immutable
/// `ProcIrModule`.
pub struct PlanSubject {
    /// Which design, sizes and input seed: the schedule file this
    /// subject's runs are recorded into.
    stub: ScheduleFile,
    module: Arc<ProcIrModule>,
}

impl PlanSubject {
    /// Elaborate `plan` through `ms` at the sizes `stub` names, with
    /// `inputs` filled from its input seed. `stub.design` identifies the
    /// design in schedule files; `stub.source` carries the program text
    /// of a non-registry design so the file stays self-contained.
    pub fn from_plan(
        stub: ScheduleFile,
        plan: &SystolicProgram,
        inputs: &[&str],
        ms: &ModuleStore,
    ) -> Result<PlanSubject, DesignError> {
        let Problem { env, store } = Problem::seeded(plan, &stub.sizes, inputs, stub.input_seed)
            .map_err(DesignError::Problem)?;
        // The cached module is code for (plan, sizes); it carries the
        // data of whichever store instantiated it, so bind this
        // subject's own.
        let cm = ms
            .module(plan, &env, &store, &ElabOptions::default())
            .map_err(DesignError::Elaborate)?;
        let data = cm.elab.gather(&store).map_err(DesignError::Elaborate)?;
        Ok(PlanSubject {
            stub,
            module: cm.elab.module.with_data(data),
        })
    }
}

impl DstSubject for PlanSubject {
    fn run(&self, sched: Option<Box<dyn SchedulePolicy>>) -> Result<Outcome, RunError> {
        run_logged(&self.module, sched)
    }

    fn schedule_stub(&self) -> ScheduleFile {
        self.stub.clone()
    }
}

/// One run of `module` under `sched`, with its canonicalized transfer
/// stream: a log made without marks, since only transfers are compared.
fn run_logged(
    module: &Arc<ProcIrModule>,
    sched: Option<Box<dyn SchedulePolicy>>,
) -> Result<Outcome, RunError> {
    let (handle, rec) = shared(EventLogRecorder::new());
    let mut net = Network::of(module);
    if let Some(s) = sched {
        net.set_schedule_policy(s);
    }
    net.add_recorder(rec);
    let (stats, outputs) = net.run_with_outputs()?;
    let mut transfers = lock(&handle).take_transfers();
    canonicalize_transfers(&mut transfers);
    Ok(Outcome {
        outputs,
        stats,
        transfers,
    })
}

/// The built-in mutation subject: two sources feed two sinks that merge
/// into one shared buffer. Schedule-DEPENDENT by construction — the
/// explorer must catch it, and the shrinker must reduce the catch to a
/// minimal prefix. This is the harness's own canary, not a gallery
/// design.
pub struct RaceSubject {
    /// Values per source stream.
    pub k: usize,
}

pub const RACE_SINK: &str = "race-sink";

impl DstSubject for RaceSubject {
    fn run(&self, sched: Option<Box<dyn SchedulePolicy>>) -> Result<Outcome, RunError> {
        // Two sources, and two sinks whose `Collect`s fill one shared
        // output: the seeded interleaving bug. The merged order is
        // exactly the order the scheduler re-steps the two sinks, so any
        // policy that perturbs the ready order diverges from the FIFO
        // baseline.
        let k = self.k;
        let mut b = ProcIrBuilder::new();
        for (chan, base) in [(0, 100), (1, 200)] {
            let values: Vec<Value> = (0..k as Value).map(|i| base + i).collect();
            b.source(chan, &values, format!("source@{chan}"));
        }
        let (_, merged) = b.sink(0, k, "race-sink@0");
        b.sink_into(1, k, merged, "race-sink@1");
        run_logged(&b.build(), sched)
    }

    fn schedule_stub(&self) -> ScheduleFile {
        ScheduleFile::stub(RACE_SINK, None, &[self.k as i64], 0)
    }
}

/// One design of the DST matrix: registry key ([`compile_design`]
/// resolves it to the plan and its input variables), problem sizes, and
/// the seed the input data is drawn from.
pub struct DesignSpec {
    pub key: &'static str,
    pub sizes: Vec<i64>,
    pub input_seed: u64,
}

/// The five gallery designs the CI matrix sweeps: the four appendix
/// designs plus the FIR filter on a derived array. Sizes are chosen so a
/// full 64-seed × 3-policy sweep stays in CI's budget.
pub fn registry() -> Vec<DesignSpec> {
    vec![
        DesignSpec {
            key: "D.1",
            sizes: vec![4],
            input_seed: 17,
        },
        DesignSpec {
            key: "D.2",
            sizes: vec![4],
            input_seed: 18,
        },
        DesignSpec {
            key: "E.1",
            sizes: vec![3],
            input_seed: 19,
        },
        DesignSpec {
            key: "E.2",
            sizes: vec![3],
            input_seed: 20,
        },
        DesignSpec {
            key: "fir",
            sizes: vec![2, 5],
            input_seed: 21,
        },
    ]
}

/// Why a design — a gallery key, or a schedule file's — did not resolve
/// to a runnable subject. Front ends map the variants to their own
/// error vocabulary.
#[derive(Clone, Debug)]
pub enum DesignError {
    /// No gallery design has this key.
    Unknown(String),
    /// The program text of a `"source"` design is missing or does not
    /// parse; the message says which.
    Source(String),
    /// The design did not compile.
    Compile(CompileError),
    /// The sizes do not make a problem for the design.
    Problem(ProblemError),
    /// The plan did not elaborate at these sizes.
    Elaborate(ElabError),
}

impl std::fmt::Display for DesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignError::Unknown(key) => write!(f, "unknown design '{key}'"),
            DesignError::Source(message) => write!(f, "{message}"),
            DesignError::Compile(e) => write!(f, "compile failed: {e}"),
            DesignError::Problem(e) => write!(f, "{e}"),
            DesignError::Elaborate(e) => write!(f, "elaboration failed: {e}"),
        }
    }
}

impl std::error::Error for DesignError {}

/// The one gallery-key resolution (the DST registry's and the service's
/// `"design"`): the four appendix designs by label on the paper's
/// arrays, `fir` on a derived array, compiled with default options.
/// Returns the plan and the input variables seeded by default.
pub fn compile_design(key: &str) -> Result<(SystolicProgram, [&'static str; 2]), DesignError> {
    let (program, place, inputs) = if key == "fir" {
        let fir = systolic_ir::gallery::fir_filter();
        (fir, PlaceChoice::Auto, ["h", "x"])
    } else {
        let (_, p, a) = systolic_synthesis::placement::paper::all()
            .into_iter()
            .find(|(label, _, _)| *label == key)
            .ok_or_else(|| DesignError::Unknown(key.to_string()))?;
        (p, PlaceChoice::Explicit(a), ["a", "b"])
    };
    let opts = Options {
        place,
        ..Options::default()
    };
    let plan = systolize(&program, &opts).map_err(DesignError::Compile)?;
    Ok((plan, inputs))
}

/// Compile program text (a schedule file's embedded `"source"`, the
/// service's inline `source`) with default options.
pub fn compile_source(src: &str) -> Result<SystolicProgram, DesignError> {
    let program =
        systolic_lang::parse(src).map_err(|e| DesignError::Source(format!("parse error: {e}")))?;
    systolize(&program, &Options::default()).map_err(DesignError::Compile)
}

/// Resolve a schedule file to the subject it names, elaborating through
/// `ms`: a registry key, the [`RACE_SINK`] builtin, or `"source"` with
/// the program text embedded (every variable seeded, as the CLI does).
pub fn subject_of(
    file: &ScheduleFile,
    ms: &ModuleStore,
) -> Result<Box<dyn DstSubject>, DesignError> {
    if file.design == RACE_SINK {
        let k = file.sizes.first().copied().unwrap_or(4);
        let k = Problem::size(k).map_err(DesignError::Problem)?.max(1) as usize;
        return Ok(Box::new(RaceSubject { k }));
    }
    let stub = ScheduleFile::stub(
        &file.design,
        file.source.clone(),
        &file.sizes,
        file.input_seed,
    );
    let subject = if file.design == "source" {
        let src = file.source.as_deref().ok_or_else(|| {
            let missing = "schedule file has design \"source\" but no embedded program text";
            DesignError::Source(missing.into())
        })?;
        let plan = compile_source(src)?;
        PlanSubject::from_plan(stub, &plan, &plan.source.variable_names(), ms)?
    } else {
        let (plan, inputs) = compile_design(&file.design)?;
        PlanSubject::from_plan(stub, &plan, &inputs, ms)?
    };
    Ok(Box::new(subject))
}

/// A registry key (or [`RACE_SINK`]) at the given sizes and input seed:
/// [`subject_of`] the schedule stub that names it, elaborated through a
/// module store of its own.
pub fn subject_for(
    key: &str,
    sizes: &[i64],
    input_seed: u64,
) -> Result<Box<dyn DstSubject>, DesignError> {
    let stub = ScheduleFile::stub(key, None, sizes, input_seed);
    subject_of(&stub, &ModuleStore::new())
}

/// The serialized counterexample/replay format (`systolic-schedule-v1`):
/// which subject, which inputs, which policy produced the log, and the
/// (possibly shrunk) per-round decisions to replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleFile {
    /// Registry key, [`RACE_SINK`], or `"source"`.
    pub design: String,
    /// Program text when `design == "source"` — the file is then
    /// self-contained.
    pub source: Option<String>,
    pub sizes: Vec<i64>,
    pub input_seed: u64,
    /// The policy whose recorded decisions the log holds.
    pub policy: String,
    pub policy_seed: u64,
    /// Human-readable failure description (diagnostic only; ignored on
    /// parse-for-replay).
    pub reason: Option<String>,
    pub log: ScheduleLog,
}

pub const SCHEDULE_SCHEMA: &str = "systolic-schedule-v1";

fn ids_from_json(j: Option<&Json>) -> Result<Vec<usize>, String> {
    j.and_then(Json::as_arr)
        .map(|xs| {
            xs.iter()
                .map(|x| x.as_i64().map(|n| n as usize).ok_or("non-integer id"))
                .collect::<Result<Vec<_>, _>>()
                .map_err(String::from)
        })
        .unwrap_or_else(|| Ok(Vec::new()))
}

impl ScheduleFile {
    /// The file identifying a subject, with an empty FIFO log.
    pub fn stub(design: &str, source: Option<String>, sizes: &[i64], input_seed: u64) -> Self {
        ScheduleFile {
            design: design.to_string(),
            source,
            sizes: sizes.to_vec(),
            input_seed,
            policy: "fifo".into(),
            policy_seed: 0,
            reason: None,
            log: ScheduleLog::default(),
        }
    }

    pub fn to_json(&self) -> String {
        let ids = |xs: &[usize]| Json::arr(xs.iter().copied());
        let mut fields = vec![
            ("schema", SCHEDULE_SCHEMA.into()),
            ("design", self.design.as_str().into()),
        ];
        if let Some(src) = &self.source {
            fields.push(("source", src.as_str().into()));
        }
        fields.push(("sizes", Json::arr(self.sizes.iter().copied())));
        fields.push(("input_seed", self.input_seed.into()));
        fields.push(("policy", self.policy.as_str().into()));
        fields.push(("policy_seed", self.policy_seed.into()));
        if let Some(r) = &self.reason {
            fields.push(("reason", r.as_str().into()));
        }
        let round = |r: &ScheduleRound| {
            Json::obj([
                ("round", r.round.into()),
                ("fire", ids(&r.fire)),
                ("defer", ids(&r.defer)),
                ("ready", ids(&r.ready)),
            ])
        };
        fields.push(("rounds", Json::arr(self.log.rounds.iter().map(round))));
        Json::obj(fields).to_string()
    }

    pub fn from_json(text: &str) -> Result<ScheduleFile, String> {
        let doc = parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEDULE_SCHEMA) => {}
            Some(other) => return Err(format!("unsupported schedule schema '{other}'")),
            None => return Err("missing \"schema\" field".into()),
        }
        let design = doc
            .get("design")
            .and_then(Json::as_str)
            .ok_or("missing \"design\" field")?
            .to_string();
        let source = doc.get("source").and_then(Json::as_str).map(String::from);
        let sizes = doc
            .get("sizes")
            .and_then(Json::as_arr)
            .map(|xs| xs.iter().filter_map(Json::as_i64).collect())
            .unwrap_or_default();
        let input_seed = doc.get("input_seed").and_then(Json::as_i64).unwrap_or(0) as u64;
        let policy = doc
            .get("policy")
            .and_then(Json::as_str)
            .unwrap_or("fifo")
            .to_string();
        let policy_seed = doc.get("policy_seed").and_then(Json::as_i64).unwrap_or(0) as u64;
        let reason = doc.get("reason").and_then(Json::as_str).map(String::from);
        let mut rounds = Vec::new();
        for r in doc.get("rounds").and_then(Json::as_arr).unwrap_or(&[]) {
            rounds.push(ScheduleRound {
                round: r
                    .get("round")
                    .and_then(Json::as_i64)
                    .ok_or("round without number")? as u64,
                fire: ids_from_json(r.get("fire"))?,
                defer: ids_from_json(r.get("defer"))?,
                ready: ids_from_json(r.get("ready"))?,
            });
        }
        Ok(ScheduleFile {
            design,
            source,
            sizes,
            input_seed,
            policy,
            policy_seed,
            reason,
            log: ScheduleLog { rounds },
        })
    }
}

/// Compare a candidate run against the FIFO baseline; `None` means the
/// schedule independence held. The description attributes transfer-level
/// divergence via the recorder stream's first differing transfer.
pub fn compare_outcomes(baseline: &Outcome, candidate: &Outcome) -> Option<String> {
    if baseline == candidate {
        return None;
    }
    let mut parts = Vec::new();
    if baseline.outputs != candidate.outputs {
        let which = baseline
            .outputs
            .iter()
            .zip(&candidate.outputs)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        parts.push(format!("output buffer {which} differs"));
    }
    if baseline.stats != candidate.stats {
        parts.push(format!(
            "stats differ (rounds {}→{}, messages {}→{}, steps {}→{})",
            baseline.stats.rounds,
            candidate.stats.rounds,
            baseline.stats.messages,
            candidate.stats.messages,
            baseline.stats.steps,
            candidate.stats.steps
        ));
    }
    match first_divergence(&baseline.transfers, &candidate.transfers) {
        Some(i) => {
            let describe = |t: Option<&Transfer>| match t {
                Some(t) => format!("round {} chan {} value {}", t.time, t.chan, t.value),
                None => "<absent>".into(),
            };
            parts.push(format!(
                "first transfer divergence at event {i}: baseline {} vs candidate {}",
                describe(baseline.transfers.get(i)),
                describe(candidate.transfers.get(i))
            ));
        }
        None => parts.push("transfer streams agree; divergence is in output assembly".into()),
    }
    Some(parts.join("; "))
}

/// A caught, shrunk schedule-dependence failure.
#[derive(Clone, Debug)]
pub struct Counterexample {
    pub subject: String,
    pub policy: String,
    pub seed: u64,
    pub reason: String,
    /// Rounds in the full recorded log.
    pub full_rounds: usize,
    /// The minimal replayable prefix, embedded in the schedule file.
    pub schedule: ScheduleFile,
}

/// Outcome of sweeping one subject.
pub struct ExploreReport {
    pub subject: String,
    /// Schedules exercised (excluding the baseline).
    pub runs: usize,
    pub counterexample: Option<Counterexample>,
}

/// Sweep configuration: which adversary policies, which seeds.
pub struct ExploreConfig {
    pub policies: Vec<&'static str>,
    pub seeds: Vec<u64>,
}

impl ExploreConfig {
    /// The standard matrix: all three adversaries × seeds `0..n`.
    pub fn matrix(n_seeds: u64) -> ExploreConfig {
        ExploreConfig {
            policies: vec!["random", "lifo", "prio-inv"],
            seeds: (0..n_seeds).collect(),
        }
    }
}

/// What one policied run did, relative to the baseline.
fn verdict(
    subject: &dyn DstSubject,
    baseline: &Outcome,
    sched: Box<dyn SchedulePolicy>,
) -> Option<String> {
    match subject.run(Some(sched)) {
        Ok(out) => compare_outcomes(baseline, &out),
        Err(e) => Some(format!("run failed: {e}")),
    }
}

/// Shrink a failing decision log to the shortest prefix that still
/// fails. Linear scan from the empty prefix (pure FIFO — passes by
/// baseline construction), so the first failing length is minimal by
/// construction. Replay is deterministic, so the scan is sound.
pub fn shrink_log(
    subject: &dyn DstSubject,
    baseline: &Outcome,
    full: &ScheduleLog,
) -> (ScheduleLog, String) {
    for k in 0..full.rounds.len() {
        let prefix = ScheduleLog {
            rounds: full.rounds[..k].to_vec(),
        };
        if let Some(reason) = verdict(
            subject,
            baseline,
            Box::new(ReplayPolicy::new(prefix.clone())),
        ) {
            return (prefix, reason);
        }
    }
    let reason = verdict(subject, baseline, Box::new(ReplayPolicy::new(full.clone())))
        .unwrap_or_else(|| "full log no longer reproduces".into());
    (full.clone(), reason)
}

/// Sweep the matrix over one subject. On the first divergence, record,
/// shrink, and return the counterexample; otherwise report the clean
/// sweep.
pub fn explore(subject: &dyn DstSubject, cfg: &ExploreConfig) -> Result<ExploreReport, String> {
    let baseline = subject
        .run(None)
        .map_err(|e| format!("{}: baseline run failed: {e}", subject.label()))?;
    let mut runs = 0usize;
    for policy_name in &cfg.policies {
        for &seed in &cfg.seeds {
            let inner = policy_by_name(policy_name, seed)
                .ok_or_else(|| format!("unknown policy '{policy_name}'"))?;
            let (rec, log) = RecordingPolicy::new(inner);
            runs += 1;
            let failed = match subject.run(Some(Box::new(rec))) {
                Ok(out) => compare_outcomes(&baseline, &out),
                Err(e) => Some(format!("run failed: {e}")),
            };
            if let Some(reason) = failed {
                let full = lock(&log).clone();
                let full_rounds = full.rounds.len();
                let (shrunk, min_reason) = shrink_log(subject, &baseline, &full);
                let mut schedule = subject.schedule_stub();
                schedule.policy = policy_name.to_string();
                schedule.policy_seed = seed;
                schedule.reason = Some(min_reason);
                schedule.log = shrunk;
                return Ok(ExploreReport {
                    subject: subject.label(),
                    runs,
                    counterexample: Some(Counterexample {
                        subject: subject.label(),
                        policy: policy_name.to_string(),
                        seed,
                        reason,
                        full_rounds,
                        schedule,
                    }),
                });
            }
        }
    }
    Ok(ExploreReport {
        subject: subject.label(),
        runs,
        counterexample: None,
    })
}

/// Result of replaying a schedule file against its subject.
pub struct ReplayReport {
    /// Did the recorded schedule still diverge from the FIFO baseline?
    pub reproduced: bool,
    /// The divergence (or failure) description, when reproduced.
    pub reason: Option<String>,
    pub rounds_replayed: usize,
}

/// Re-run a subject under a schedule file's decision log and check the
/// divergence reproduces.
pub fn replay(subject: &dyn DstSubject, file: &ScheduleFile) -> Result<ReplayReport, String> {
    let baseline = subject
        .run(None)
        .map_err(|e| format!("baseline run failed: {e}"))?;
    let reason = verdict(
        subject,
        &baseline,
        Box::new(ReplayPolicy::new(file.log.clone())),
    );
    Ok(ReplayReport {
        reproduced: reason.is_some(),
        reason,
        rounds_replayed: file.log.rounds.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gallery_designs_are_schedule_independent_over_a_small_matrix() {
        // The real sweep lives in the `dst_explore` binary (64 seeds);
        // this is the fast in-tree version.
        let cfg = ExploreConfig::matrix(3);
        for spec in registry() {
            let subject = subject_for(spec.key, &spec.sizes, spec.input_seed).unwrap();
            let report = explore(subject.as_ref(), &cfg).unwrap();
            assert!(
                report.counterexample.is_none(),
                "{}: {:?}",
                spec.key,
                report.counterexample.map(|c| c.reason)
            );
            assert_eq!(report.runs, 9, "{}", spec.key);
        }
    }

    #[test]
    fn race_sink_mutation_is_caught_shrunk_and_replayable() {
        // The seeded interleaving bug: the explorer must catch it, the
        // shrinker must cut the log down, and replaying the shrunk file
        // must reproduce the divergence.
        let subject = RaceSubject { k: 8 };
        let report = explore(&subject, &ExploreConfig::matrix(4)).unwrap();
        let ce = report.counterexample.expect("race-sink must be caught");
        let shrunk = ce.schedule.log.rounds.len();
        assert!(shrunk >= 1 && shrunk <= ce.full_rounds);
        let replayed = replay(&subject, &ce.schedule).unwrap();
        assert!(replayed.reproduced, "shrunk schedule must reproduce");
        // Minimality: one round fewer no longer reproduces.
        let mut smaller = ce.schedule.clone();
        smaller.log.rounds.pop();
        let under = replay(&subject, &smaller).unwrap();
        assert!(!under.reproduced, "shrunk log must be a *minimal* prefix");
    }

    #[test]
    fn schedule_files_round_trip_through_json() {
        let subject = RaceSubject { k: 5 };
        let report = explore(&subject, &ExploreConfig::matrix(2)).unwrap();
        let ce = report.counterexample.unwrap();
        let text = ce.schedule.to_json();
        let parsed = ScheduleFile::from_json(&text).unwrap();
        assert_eq!(parsed, ce.schedule);
        // And the parsed file still reproduces.
        let replayed = replay(&subject, &parsed).unwrap();
        assert!(replayed.reproduced);
    }

    #[test]
    fn adversarial_policies_close_the_wavefront_gate_without_changing_results() {
        // The DST policy matrix must also exercise the *engine selection*
        // gate: attaching any non-FIFO policy to a full-auto `simulate`
        // forces the run off the wavefront fast path (the policies
        // permute a per-round worklist that engine does not have), while
        // the recovered store and the
        // logical statistics stay bit-identical to the wavefront run.
        use systolic_interp::{simulate, SimSpec};
        let spec = registry().remove(2); // E.1
        let (plan, inputs) = compile_design(spec.key).unwrap();
        let Problem { env, store } =
            Problem::seeded(&plan, &spec.sizes, &inputs, spec.input_seed).unwrap();
        let run_with = |sched: Option<Box<dyn SchedulePolicy>>| {
            let spec = SimSpec {
                sched,
                ..SimSpec::default()
            };
            simulate(ModuleStore::global(), &plan, &env, &store, spec).unwrap()
        };
        let fast = run_with(None);
        assert!(fast.wavefront, "E.1 must take the wavefront fast path");
        for name in &crate::policy::POLICY_NAMES[1..] {
            let perturbed = run_with(policy_by_name(name, 7));
            assert!(!perturbed.wavefront, "{name}: policy must close the gate");
            assert_eq!(
                (perturbed.stats.messages, perturbed.stats.steps),
                (fast.stats.messages, fast.stats.steps),
                "{name}: logical stats must be schedule-invariant"
            );
            assert_eq!(perturbed.store, fast.store, "{name}: stores diverge");
        }
        // And the FIFO anchor keeps the gate open.
        let anchored = run_with(policy_by_name("fifo", 0));
        assert!(anchored.wavefront, "an explicit FIFO policy is inert");
        assert_eq!(anchored.store, fast.store);
    }

    /// A module store keys on (design, sizes, store shape), not on the
    /// data: a second subject of the same design and size is a module
    /// hit and must still run the data *its* seed names.
    #[test]
    fn subjects_of_one_design_and_size_run_their_own_seeded_data() {
        let (key, sizes) = ("E.2", [3i64]);
        let (plan, inputs) = compile_design(key).unwrap();
        let ms = ModuleStore::new();
        let outcome_of = |seed: u64| {
            let stub = ScheduleFile::stub(key, None, &sizes, seed);
            subject_of(&stub, &ms).unwrap().run(None).unwrap()
        };
        let (first, second) = (outcome_of(101), outcome_of(202));
        assert_eq!(ms.stats().module_hits, 1, "one module, two data sets");
        assert_ne!(
            first.outputs, second.outputs,
            "the second replayed the first"
        );
        assert_eq!(first.stats, second.stats, "same network either way");
        for (seed, outcome) in [(101, &first), (202, &second)] {
            let Problem { env, store } = Problem::seeded(&plan, &sizes, &inputs, seed).unwrap();
            let mut expected = store.clone();
            systolic_ir::seq::run(&plan.source, &env, &mut expected);
            let cm = ms
                .module(&plan, &env, &store, &ElabOptions::default())
                .unwrap();
            for out in &cm.elab.outputs {
                let raw = expected.get(&out.variable).raw();
                let want: Vec<Value> = cm
                    .elab
                    .words_of(out)
                    .iter()
                    .map(|&at| raw[at as usize])
                    .collect();
                assert_eq!(
                    outcome.outputs[out.output as usize], want,
                    "seed {seed}: sink of {}",
                    out.variable
                );
            }
        }

        // A schedule recorded on the second subject names seed 202; the
        // file alone rebuilds a subject that replays that very run.
        let recorded = subject_for(key, &sizes, 202).unwrap();
        let (rec, log) = RecordingPolicy::new(policy_by_name("random", 5).unwrap());
        let under_policy = recorded.run(Some(Box::new(rec))).unwrap();
        let mut file = recorded.schedule_stub();
        file.log = lock(&log).clone();
        let file = ScheduleFile::from_json(&file.to_json()).unwrap();
        assert_eq!(file.input_seed, 202);
        let rebuilt = subject_of(&file, &ms).unwrap();
        let replayed = rebuilt
            .run(Some(Box::new(ReplayPolicy::new(file.log.clone()))))
            .unwrap();
        assert_eq!(replayed, under_policy);
        assert_eq!(replayed.outputs, second.outputs);
    }

    #[test]
    fn subject_for_resolves_the_race_builtin_and_rejects_unknowns() {
        assert_eq!(subject_for(RACE_SINK, &[4], 0).unwrap().label(), RACE_SINK);
        assert!(subject_for("Z.9", &[3], 0).is_err());
    }

    #[test]
    fn replaying_an_empty_log_is_the_baseline() {
        let subject = RaceSubject { k: 4 };
        let stub = subject.schedule_stub();
        let replayed = replay(&subject, &stub).unwrap();
        assert!(!replayed.reproduced, "empty log = FIFO = no divergence");
        assert_eq!(replayed.rounds_replayed, 0);
    }
}
