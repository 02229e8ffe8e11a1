//! The wire vocabulary of the simulation service: request parsing,
//! structured errors, and response rendering (`systolic-service-v1`).
//!
//! Everything is hand-rolled JSON over [`systolic_sim::Json`] — the
//! workspace-wide policy (see `crates/sim/src/json.rs`). Errors are
//! *structured*: every failure maps to an HTTP status plus a stable
//! `kind` and the offender labels the runtime diagnosis carries
//! ([`systolic_runtime::RunError::offenders`]); raw panic payloads
//! never cross the wire (see `crate::pool`).

use systolic_interp::{ExecError, SystolicRun, VerifyError};
use systolic_runtime::{BatchMode, KernelMode, OptMode, RunError, WavefrontMode};
use systolic_sim::Json;

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
    /// protocol violations are *program* pathologies (422 — the request
    /// was well-formed, the configuration cannot run); timeouts are 504;
    /// worker-side panics and aborts are 500.
    pub fn from_run_error(e: &RunError) -> ApiError {
        let status = match e {
            RunError::Deadlock(_) | RunError::Protocol(_) => 422,
            RunError::Timeout { .. } => 504,
            RunError::Aborted | RunError::Panicked { .. } => 500,
            RunError::Spawn { .. } => 503,
            RunError::Partition { .. } => 400,
        };
        ApiError {
            status,
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
        Json::Obj(vec![(
            "error".into(),
            Json::Obj(vec![
                ("kind".into(), Json::Str(self.kind.into())),
                ("message".into(), Json::Str(self.message.clone())),
                (
                    "offenders".into(),
                    Json::Arr(
                        self.offenders
                            .iter()
                            .map(|o| Json::Str(o.clone()))
                            .collect(),
                    ),
                ),
            ]),
        )])
        .to_string()
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

/// A parsed `POST /v1/run` body. Engine-mode and executor fields mirror
/// the CLI flags bit for bit (`--batch/--opt/--wavefront/--executor`).
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
    pub opt: OptMode,
    pub wavefront: WavefrontMode,
    pub kernel: KernelMode,
    pub executor: String,
    pub workers: usize,
    pub deadline_ms: Option<u64>,
    pub output: OutputKind,
    /// Differential mode: additionally run the sequential reference and
    /// fail (naming the engine) on any store mismatch.
    pub verify: bool,
    /// Adversarial schedule `{policy, seed}`; non-FIFO policies run on
    /// the cooperative engine (see `systolic_interp::SimSpec::sched`).
    pub schedule: Option<(String, u64)>,
}

fn mode_field<'a>(doc: &'a Json, key: &str) -> Result<Option<&'a str>, ApiError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| ApiError::bad_request(format!("field '{key}' must be a string"))),
    }
}

fn u64_field(doc: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_i64() {
            Some(n) if n >= 0 => Ok(Some(n as u64)),
            _ => Err(ApiError::bad_request(format!(
                "field '{key}' must be a non-negative integer"
            ))),
        },
    }
}

/// Parse and validate a run request body.
pub fn parse_run_request(body: &str) -> Result<RunRequest, ApiError> {
    let doc = systolic_sim::json::parse(body)
        .map_err(|e| ApiError::bad_request(format!("malformed request JSON: {e}")))?;
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
    let sizes = doc
        .get("sizes")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| ApiError::bad_request("field 'sizes' must be an array of integers"))?
        .iter()
        .map(|v| {
            v.as_i64()
                .ok_or_else(|| ApiError::bad_request("field 'sizes' must be an array of integers"))
        })
        .collect::<Result<Vec<i64>, _>>()?;
    let inputs = match doc.get("inputs") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_arr()
                .ok_or_else(|| ApiError::bad_request("field 'inputs' must be an array of strings"))?
                .iter()
                .map(|x| {
                    x.as_str().map(str::to_string).ok_or_else(|| {
                        ApiError::bad_request("field 'inputs' must be an array of strings")
                    })
                })
                .collect::<Result<Vec<String>, _>>()?,
        ),
    };
    let batch = match mode_field(&doc, "batch")? {
        None | Some("auto") => BatchMode::Auto,
        Some("off") => BatchMode::Off,
        Some(other) => {
            return Err(ApiError::bad_request(format!(
                "unknown batch mode '{other}' (auto|off)"
            )))
        }
    };
    let opt = match mode_field(&doc, "opt")? {
        None | Some("auto") => OptMode::Auto,
        Some("off") => OptMode::Off,
        Some(other) => {
            return Err(ApiError::bad_request(format!(
                "unknown opt mode '{other}' (auto|off)"
            )))
        }
    };
    let wavefront = match mode_field(&doc, "wavefront")? {
        None | Some("auto") => WavefrontMode::Auto,
        Some("off") => WavefrontMode::Off,
        Some("par") => WavefrontMode::Par,
        Some(other) => {
            return Err(ApiError::bad_request(format!(
                "unknown wavefront mode '{other}' (auto|off|par)"
            )))
        }
    };
    let kernel = match mode_field(&doc, "kernel")? {
        None | Some("auto") => KernelMode::Auto,
        Some("off") => KernelMode::Off,
        Some(other) => {
            return Err(ApiError::bad_request(format!(
                "unknown kernel mode '{other}' (auto|off)"
            )))
        }
    };
    let executor = mode_field(&doc, "executor")?.unwrap_or("coop").to_string();
    if !matches!(executor.as_str(), "coop" | "threaded" | "partitioned") {
        return Err(ApiError::bad_request(format!(
            "unknown executor '{executor}' (coop|threaded|partitioned)"
        )));
    }
    let output = match mode_field(&doc, "output")? {
        None | Some("stores") => OutputKind::Stores,
        Some("metrics") => OutputKind::Metrics,
        Some("trace") => OutputKind::Trace,
        Some(other) => {
            return Err(ApiError::bad_request(format!(
                "unknown output '{other}' (stores|metrics|trace)"
            )))
        }
    };
    let schedule = match doc.get("schedule") {
        None | Some(Json::Null) => None,
        Some(s) => {
            let policy = s
                .get("policy")
                .and_then(|p| p.as_str())
                .ok_or_else(|| ApiError::bad_request("schedule.policy must be a string"))?;
            let seed = s.get("seed").and_then(|v| v.as_i64()).unwrap_or(0) as u64;
            Some((policy.to_string(), seed))
        }
    };
    Ok(RunRequest {
        program,
        sizes,
        seed: u64_field(&doc, "seed")?.unwrap_or(42),
        inputs,
        batch,
        opt,
        wavefront,
        kernel,
        executor,
        workers: u64_field(&doc, "workers")?.unwrap_or(2).max(1) as usize,
        deadline_ms: u64_field(&doc, "deadline_ms")?,
        output,
        verify: doc.get("verify").and_then(|v| v.as_bool()).unwrap_or(false),
        schedule,
    })
}

/// Render a completed run as the stores response.
pub fn render_stores(design: &str, executor: &str, run: &SystolicRun, verified: bool) -> String {
    let mut stores = Vec::new();
    for name in run.store.names() {
        let arr = run.store.get(name);
        let bounds = arr
            .bounds()
            .iter()
            .map(|&(lo, hi)| Json::Arr(vec![Json::Num(lo), Json::Num(hi)]))
            .collect();
        let values = arr.raw().iter().map(|&v| Json::Num(v)).collect();
        stores.push((
            name.to_string(),
            Json::Obj(vec![
                ("bounds".into(), Json::Arr(bounds)),
                ("values".into(), Json::Arr(values)),
            ]),
        ));
    }
    stores.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("design".into(), Json::Str(design.into())),
        (
            "engine".into(),
            Json::Obj(vec![
                ("executor".into(), Json::Str(executor.into())),
                ("batched".into(), Json::Bool(run.batched)),
                ("wavefront".into(), Json::Bool(run.wavefront)),
                (
                    "kernels".into(),
                    Json::Bool(run.kernel.as_ref().is_some_and(|k| k.waves_fused > 0)),
                ),
                ("optimized".into(), Json::Bool(run.opt.is_some())),
            ]),
        ),
        (
            "stats".into(),
            Json::Obj(vec![
                ("rounds".into(), Json::Num(run.stats.rounds as i64)),
                ("messages".into(), Json::Num(run.stats.messages as i64)),
                ("steps".into(), Json::Num(run.stats.steps as i64)),
                ("processes".into(), Json::Num(run.stats.processes as i64)),
            ]),
        ),
        ("verified".into(), Json::Bool(verified)),
        ("stores".into(), Json::Obj(stores)),
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
        assert_eq!(r.executor, "coop");
        assert_eq!(r.output, OutputKind::Stores);
        assert!(!r.verify);
    }

    #[test]
    fn rejects_junk_with_a_parse_error_kind() {
        let e = parse_run_request("{nope").unwrap_err();
        assert_eq!(e.status, 400);
        let j = e.to_json();
        assert!(j.contains("\"kind\":\"bad-request\""), "{j}");
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

    #[test]
    fn timeout_maps_to_504_with_the_scope() {
        let e = ApiError::from_run_error(&RunError::Timeout {
            scope: "process 3".into(),
        });
        assert_eq!((e.status, e.kind), (504, "timeout"));
        assert_eq!(e.offenders, vec!["process 3".to_string()]);
    }
}
