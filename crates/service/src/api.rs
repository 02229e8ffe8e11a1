//! The wire vocabulary of the simulation service: request parsing,
//! structured errors, and response rendering (`systolic-service-v1`).
//!
//! Every body, in and out, goes through the workspace's one JSON model
//! ([`Json`], `crates/runtime/src/json.rs`). Errors are
//! *structured*: every failure maps to an HTTP status plus a stable
//! `kind` and the offender labels the runtime diagnosis carries
//! ([`systolic_runtime::RunError::offenders`]); raw panic payloads
//! never cross the wire (see `crate::pool`).

use systolic_core::CompileError;
use systolic_interp::{ExecError, ProblemError, SystolicRun, VerifyError};
use systolic_runtime::{json, BatchMode, Json, RunError};
use systolic_sim::{DesignError, POLICY_NAMES};

/// The response schema identifier.
pub const SCHEMA: &str = "systolic-service-v1";

/// A structured service failure: HTTP status, stable machine-readable
/// `kind`, human prose, and the offender labels (blocked processes of a
/// deadlock, the scope that timed out, the engine that diverged).
#[derive(Clone, Debug)]
pub struct ApiError {
    pub status: u16,
    pub kind: &'static str,
    pub message: String,
    pub offenders: Vec<String>,
}

impl ApiError {
    pub fn new(status: u16, kind: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            kind,
            message: message.into(),
            offenders: Vec::new(),
        }
    }

    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "bad-request", message)
    }

    pub fn parse(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "parse", message)
    }

    pub fn unknown_design(key: &str) -> ApiError {
        ApiError::new(404, "unknown-design", format!("unknown design '{key}'"))
    }

    pub fn size_limit(got: i64, max: i64) -> ApiError {
        ApiError::new(
            413,
            "size-limit",
            format!("requested problem size {got} exceeds the service limit {max}"),
        )
    }

    pub fn overloaded(queue_cap: usize) -> ApiError {
        ApiError::new(
            429,
            "overloaded",
            format!("worker queue full ({queue_cap} waiting); retry later"),
        )
    }

    pub fn deadline(ms: u64) -> ApiError {
        ApiError {
            status: 504,
            kind: "timeout",
            message: format!("request deadline of {ms} ms expired"),
            offenders: vec!["request".into()],
        }
    }

    pub fn internal(message: impl Into<String>) -> ApiError {
        ApiError::new(500, "internal", message)
    }

    /// Map a structured runtime diagnosis to the wire. Deadlocks and
    /// protocol violations are *program* pathologies: 422, the request
    /// was well-formed, the configuration cannot run.
    pub fn from_run_error(e: &RunError) -> ApiError {
        ApiError {
            status: 422,
            kind: e.kind(),
            message: e.to_string(),
            offenders: e.offenders(),
        }
    }

    pub fn from_exec_error(e: &ExecError) -> ApiError {
        match e {
            ExecError::Run(r) => ApiError::from_run_error(r),
            ExecError::Elab(el) => ApiError::new(422, "elaborate", el.to_string()),
            ExecError::ShortOutput { .. } => ApiError::internal(e.to_string()),
        }
    }

    /// Differential-mode failures keep the engine label structurally:
    /// the diverging executor leads the offender list.
    pub fn from_verify_error(e: &VerifyError) -> ApiError {
        match e {
            VerifyError::Engine { engine, error } => {
                let mut api = ApiError::from_run_error(error);
                api.offenders.insert(0, (*engine).to_string());
                api
            }
            VerifyError::Divergence { engine, variable } => ApiError {
                status: 500,
                kind: "divergence",
                message: e.to_string(),
                offenders: vec![(*engine).to_string(), variable.clone()],
            },
            VerifyError::Setup { message } => ApiError::internal(message.clone()),
        }
    }

    /// `{"error":{"kind":...,"message":...,"offenders":[...]}}`
    pub fn to_json(&self) -> String {
        let error = Json::obj([
            ("kind", self.kind.into()),
            ("message", self.message.as_str().into()),
            (
                "offenders",
                Json::arr(self.offenders.iter().map(String::as_str)),
            ),
        ]);
        Json::obj([("error", error)]).to_string()
    }
}

/// Sizes or inputs that make no problem are the client's mistake (400);
/// a problem past the library's budget is too large (413), like one past
/// the deployment's `max_size`.
impl From<ProblemError> for ApiError {
    fn from(e: ProblemError) -> ApiError {
        match e {
            ProblemError::TooLarge(message) => ApiError::new(413, "size-limit", message),
            ProblemError::Invalid(message) => ApiError::bad_request(message),
        }
    }
}

/// Why a design key, inline source or schedule-file subject did not
/// resolve: unknown key 404, unparseable text 400, outside what the
/// scheme compiles or elaborates 422.
impl From<DesignError> for ApiError {
    fn from(e: DesignError) -> ApiError {
        match e {
            DesignError::Unknown(key) => ApiError::unknown_design(&key),
            DesignError::Source(message) => ApiError::parse(message),
            DesignError::Compile(CompileError::Source(violations)) => {
                let msgs: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
                let msgs = msgs.join("; ");
                let message = format!("program outside the compilable envelope: {msgs}");
                ApiError::new(422, "validate", message)
            }
            DesignError::Compile(CompileError::NoArray) => {
                ApiError::new(422, "no-array", CompileError::NoArray.to_string())
            }
            DesignError::Compile(_) => ApiError::new(422, "compile", e.to_string()),
            DesignError::Problem(e) => e.into(),
            DesignError::Elaborate(e) => ApiError::new(422, "elaborate", e.to_string()),
        }
    }
}

/// What program a request names: a gallery design key or inline `.sys`
/// source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramRef {
    Design(String),
    Source(String),
}

/// Which artifact the response body carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputKind {
    /// The post-run host store (the default).
    Stores,
    /// The `systolic-metrics-v1` report of an observed run.
    Metrics,
    /// The Chrome `trace_event` document of an observed run.
    Trace,
}

/// A parsed `POST /v1/run` body. The engine gate takes the values of the
/// CLI's `--batch`; `executor` takes one value, `coop`, and is read only
/// to be checked.
#[derive(Debug)]
pub struct RunRequest {
    pub program: ProgramRef,
    pub sizes: Vec<i64>,
    /// Seed the named input variables are filled from
    /// (`HostStore::fill_random(name, seed + i)` in declaration order —
    /// `systolic_interp::seeded_store`'s convention, so oracles can
    /// reproduce the data exactly).
    pub seed: u64,
    /// Input variables to fill; `None` uses the design's registry
    /// defaults (inline-source requests with no list run zero-filled).
    pub inputs: Option<Vec<String>>,
    pub batch: BatchMode,
    pub deadline_ms: Option<u64>,
    pub output: OutputKind,
    /// Differential mode: additionally run the sequential reference and
    /// fail (naming the engine) on any store mismatch.
    pub verify: bool,
    /// Adversarial schedule `{policy, seed}`, the policy one of
    /// `systolic_sim::POLICY_NAMES`; non-FIFO policies run on the
    /// cooperative engine (see `systolic_interp::SimSpec::sched`).
    pub schedule: Option<(&'static str, u64)>,
}

/// An optional member of `doc`: absent or `null` is `None`; a value
/// `read` cannot take is a 400 that names the field and `what` it must
/// be — never a silent default.
fn field<'a, T>(
    doc: &'a Json,
    key: &str,
    what: &str,
    read: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, ApiError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => read(v)
            .map(Some)
            .ok_or_else(|| ApiError::bad_request(format!("field '{key}' must be {what}"))),
    }
}

/// A closed-set string member: the first of `options` when absent, else
/// the one it names, else a 400 listing what is accepted.
fn choice<T: Copy>(doc: &Json, key: &str, options: &[(&str, T)]) -> Result<T, ApiError> {
    let Some(given) = field(doc, key, "a string", Json::as_str)? else {
        return Ok(options[0].1);
    };
    let found = options.iter().find(|o| o.0 == given);
    found.map(|o| o.1).ok_or_else(|| {
        let accepted: Vec<&str> = options.iter().map(|o| o.0).collect();
        let accepted = accepted.join("|");
        ApiError::bad_request(format!("unknown {key} '{given}' ({accepted})"))
    })
}

fn u64_field(doc: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    let read = |v: &Json| v.as_i64().and_then(|n| u64::try_from(n).ok());
    field(doc, key, "a non-negative integer", read)
}

fn bool_field(doc: &Json, key: &str) -> Result<Option<bool>, ApiError> {
    field(doc, key, "a boolean", Json::as_bool)
}

/// The top-level members [`parse_run_request`] reads. Any other is a 400
/// that names it: a misspelt option must not run as its default.
pub const RUN_MEMBERS: &[&str] = &[
    "design",
    "source",
    "sizes",
    "inputs",
    "seed",
    "batch",
    "executor",
    "deadline_ms",
    "output",
    "verify",
    "schedule",
];

/// The members of the `schedule` object.
const SCHEDULE_MEMBERS: &[&str] = &["policy", "seed"];

/// A member of the object `doc` outside `accepted` is a 400 that names
/// it, and `within` names the object when it is not the request itself.
fn only_members(doc: &Json, accepted: &[&str], within: &str) -> Result<(), ApiError> {
    let Json::Obj(members) = doc else {
        return Ok(());
    };
    match members
        .iter()
        .find(|(key, _)| !accepted.contains(&key.as_str()))
    {
        None => Ok(()),
        Some((key, _)) => Err(ApiError::bad_request(format!(
            "unknown member '{key}'{within} (accepted: {})",
            accepted.join(" ")
        ))),
    }
}

/// Parse and validate a run request body.
pub fn parse_run_request(body: &str) -> Result<RunRequest, ApiError> {
    let doc = json::parse(body)
        .map_err(|e| ApiError::bad_request(format!("malformed request JSON: {e}")))?;
    only_members(&doc, RUN_MEMBERS, "")?;
    let program = match (doc.get("design"), doc.get("source")) {
        (Some(d), None) => ProgramRef::Design(
            d.as_str()
                .ok_or_else(|| ApiError::bad_request("field 'design' must be a string"))?
                .to_string(),
        ),
        (None, Some(s)) => ProgramRef::Source(
            s.as_str()
                .ok_or_else(|| ApiError::bad_request("field 'source' must be a string"))?
                .to_string(),
        ),
        (Some(_), Some(_)) => {
            return Err(ApiError::bad_request(
                "give either 'design' or 'source', not both",
            ))
        }
        (None, None) => {
            return Err(ApiError::bad_request(
                "request must name a 'design' or carry inline 'source'",
            ))
        }
    };
    let ints = |v: &Json| v.as_arr()?.iter().map(Json::as_i64).collect();
    let sizes: Vec<i64> = field(&doc, "sizes", "an array of integers", ints)?
        .ok_or_else(|| ApiError::bad_request("field 'sizes' must be an array of integers"))?;
    let names = |v: &Json| {
        let names = v.as_arr()?.iter().map(|x| x.as_str().map(str::to_string));
        names.collect()
    };
    let inputs: Option<Vec<String>> = field(&doc, "inputs", "an array of strings", names)?;
    // The closed sets, default first (the gate's is `BatchMode::NAMES`).
    let executors = [("coop", ())];
    let outputs = [
        ("stores", OutputKind::Stores),
        ("metrics", OutputKind::Metrics),
        ("trace", OutputKind::Trace),
    ];
    let schedule = match doc.get("schedule") {
        None | Some(Json::Null) => None,
        Some(s) => {
            only_members(s, SCHEDULE_MEMBERS, " of 'schedule'")?;
            let given = s
                .get("policy")
                .and_then(Json::as_str)
                .ok_or_else(|| ApiError::bad_request("schedule.policy must be a string"))?;
            let policy = POLICY_NAMES
                .into_iter()
                .find(|&p| p == given)
                .ok_or_else(|| {
                    let accepted = POLICY_NAMES.join("|");
                    ApiError::bad_request(format!("unknown schedule policy '{given}' ({accepted})"))
                })?;
            let seed = u64_field(s, "seed")
                .map_err(|e| ApiError::bad_request(format!("schedule: {}", e.message)))?;
            Some((policy, seed.unwrap_or(0)))
        }
    };
    let output = choice(&doc, "output", &outputs)?;
    let verify = bool_field(&doc, "verify")?.unwrap_or(false);
    if verify && output != OutputKind::Stores {
        return Err(ApiError::bad_request(
            "'verify' compares the stores of a run: it needs 'output' \"stores\" (the default)",
        ));
    }
    let seed = u64_field(&doc, "seed")?.unwrap_or(42);
    let batch = choice(&doc, "batch", BatchMode::NAMES)?;
    choice(&doc, "executor", &executors)?;
    Ok(RunRequest {
        program,
        sizes,
        seed,
        inputs,
        batch,
        deadline_ms: u64_field(&doc, "deadline_ms")?,
        output,
        verify,
        schedule,
    })
}

/// Render a completed run as the stores response.
pub fn render_stores(design: &str, executor: &str, run: &SystolicRun, verified: bool) -> String {
    let mut stores: Vec<(&str, Json)> = Vec::new();
    for name in run.store.names() {
        let arr = run.store.get(name);
        let bounds = arr.bounds();
        let bounds = bounds.iter().map(|&(lo, hi)| Json::arr([lo, hi]));
        let store = Json::obj([
            ("bounds", Json::arr(bounds)),
            ("values", Json::arr(arr.raw().iter().copied())),
        ]);
        stores.push((name, store));
    }
    stores.sort_by(|a, b| a.0.cmp(b.0));
    let kernels = run.kernel.as_ref().is_some_and(|k| k.waves_fused > 0);
    let engine = Json::obj([
        ("executor", executor.into()),
        ("wavefront", run.wavefront.into()),
        ("kernels", kernels.into()),
        ("optimized", run.opt.is_some().into()),
    ]);
    let stats = Json::obj([
        ("rounds", run.stats.rounds.into()),
        ("messages", run.stats.messages.into()),
        ("steps", run.stats.steps.into()),
        ("processes", run.stats.processes.into()),
    ]);
    Json::obj([
        ("schema", SCHEMA.into()),
        ("design", design.into()),
        ("engine", engine),
        ("stats", stats),
        ("verified", verified.into()),
        ("stores", Json::obj(stores)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_design_request() {
        let r = parse_run_request(r#"{"design":"E.1","sizes":[8]}"#).unwrap();
        assert_eq!(r.program, ProgramRef::Design("E.1".into()));
        assert_eq!(r.sizes, vec![8]);
        assert_eq!(r.output, OutputKind::Stores);
        assert!(!r.verify);
    }

    #[test]
    fn every_listed_member_is_read() {
        // A request with every member but `source` (the alternative to
        // `design`) parses; an unlisted one is refused by name
        // (`tests/service.rs`, the error-path table).
        let all = RUN_MEMBERS.iter().map(|&m| match m {
            "source" => None,
            "design" => Some((m, Json::from("E.1"))),
            "sizes" => Some((m, Json::arr([4i64]))),
            "schedule" => Some((m, Json::obj([("policy", Json::from("fifo"))]))),
            "batch" => Some((m, "auto".into())),
            "executor" => Some((m, "coop".into())),
            "output" => Some((m, "stores".into())),
            "inputs" => Some((m, Json::arr(["a"]))),
            "verify" => Some((m, true.into())),
            _ => Some((m, 1i64.into())),
        });
        parse_run_request(&Json::obj(all.flatten()).to_string()).unwrap();
    }

    #[test]
    fn rejects_junk_with_a_parse_error_kind() {
        let e = parse_run_request("{nope").unwrap_err();
        assert_eq!(e.status, 400);
        let j = e.to_json();
        assert!(j.contains("\"kind\":\"bad-request\""), "{j}");
    }

    /// The parser copies a string in runs, so a request costs its
    /// length once: 1 MiB of inline source (an escape every line,
    /// multi-byte text) comes back equal well inside a budget that the
    /// per-character re-validation this replaced missed by two orders
    /// of magnitude — a complexity bound, not a timing gate.
    #[test]
    fn a_one_mebibyte_source_parses_in_linear_time() {
        let line = "# é — the quick brown fox jumps over the lazy dog, once more\n";
        let source = line.repeat((1 << 20) / line.len() + 1);
        assert!(source.len() >= 1 << 20);
        let body = Json::obj([
            ("source", source.as_str().into()),
            ("sizes", Json::arr([4i64])),
        ])
        .to_string();
        let t = std::time::Instant::now();
        let r = parse_run_request(&body).unwrap();
        assert!(t.elapsed().as_secs() < 2, "{:?}", t.elapsed());
        assert_eq!(r.program, ProgramRef::Source(source));
    }

    #[test]
    fn deadlock_maps_to_422_with_offenders() {
        let e = ApiError::from_run_error(&RunError::Deadlock(systolic_runtime::Deadlock {
            blocked: vec!["a@(1) recv chan 3".into()],
        }));
        assert_eq!((e.status, e.kind), (422, "deadlock"));
        assert_eq!(e.offenders.len(), 1);
        assert!(e.to_json().contains("a@(1) recv chan 3"));
    }
}
