//! Integration suite for the multi-tenant simulation service
//! (`crates/service`, `docs/service.md`): the test-first concurrency
//! harness of PR 9.
//!
//! Three pillars:
//!
//! 1. **Concurrency soak** — N threads hammer one shared service
//!    (one `ModuleStore`, one `PlanCache`, one worker pool) across the
//!    whole gallery × engine-mode matrix. Every response's stores must
//!    be bit-identical to a locally computed sequential oracle, and the
//!    cache counters must be *exactly* what the same workload produces
//!    sequentially — the PR 8 eviction-race regression, extended to the
//!    full service stack.
//! 2. **Error paths** — every malformed, oversized, unknown, or expired
//!    request maps to a distinct structured JSON error with the right
//!    HTTP status, and raw panic text never crosses the wire.
//! 3. **DST integration** — adversarial `SchedulePolicy` seeds and
//!    fault plans run under the service worker pool (in-process, no
//!    sockets), proving adversaries change neither stores nor error
//!    classification; a shrunk race-sink counterexample replays through
//!    the service facade.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use systolic_ir::seq;
use systolic_math::Env;
use systolic_service::api::ApiError;
use systolic_service::{compile_design, http, Service, ServiceConfig};
use systolic_sim::{
    explore, json, policy_by_name, replay, subject_for, ExploreConfig, FaultPlan, Json, RaceSubject,
};

/// The DST-registry gallery: design keys and sizes.
const GALLERY: &[(&str, &[i64])] = &[
    ("D.1", &[4]),
    ("D.2", &[4]),
    ("E.1", &[3]),
    ("E.2", &[3]),
    ("fir", &[2, 5]),
];

fn test_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_cap: 128,
        ..ServiceConfig::default()
    }
}

/// Expected stores for `(design, sizes, seed)` from the sequential
/// reference semantics — computed entirely outside the service.
fn oracle_for(design: &str, sizes: &[i64], seed: u64) -> HashMap<String, Vec<i64>> {
    let resolved = compile_design(design).expect("gallery design compiles");
    let mut env = Env::new();
    for (&v, &val) in resolved.plan.source.sizes.iter().zip(sizes) {
        env.bind(v, val);
    }
    let inputs: Vec<&str> = resolved.default_inputs.iter().map(|s| s.as_str()).collect();
    let store = seq::run_random(&resolved.plan.source, &env, &inputs, seed);
    store
        .names()
        .map(|n| (n.to_string(), store.get(n).raw().to_vec()))
        .collect()
}

/// Assert a 200 stores response matches the oracle bit for bit.
fn assert_stores_match(body: &str, expected: &HashMap<String, Vec<i64>>, ctx: &str) {
    let doc = json::parse(body).unwrap_or_else(|e| panic!("{ctx}: unparseable body: {e}"));
    let stores = doc
        .get("stores")
        .unwrap_or_else(|| panic!("{ctx}: no stores"));
    for (name, want) in expected {
        let got: Vec<i64> = stores
            .get(name)
            .and_then(|s| s.get("values"))
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("{ctx}: missing store '{name}'"))
            .iter()
            .filter_map(|v| v.as_i64())
            .collect();
        assert_eq!(&got, want, "{ctx}: store '{name}' diverges from the oracle");
    }
}

fn run_body(design: &str, sizes: &[i64], seed: u64, extra: &[(&str, Json)]) -> String {
    let mut fields = vec![
        ("design".to_string(), Json::Str(design.into())),
        (
            "sizes".to_string(),
            Json::Arr(sizes.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("seed".to_string(), Json::Num(seed as i64)),
    ];
    for (k, v) in extra {
        fields.push((k.to_string(), v.clone()));
    }
    Json::Obj(fields).to_string()
}

/// The soak workload: gallery × batch modes × the executor member
/// spelled and left out, each body issued twice so cache hits actually
/// occur.
fn soak_workload() -> Vec<(String, HashMap<String, Vec<i64>>)> {
    let mut work = Vec::new();
    for (design, sizes) in GALLERY {
        let expected = oracle_for(design, sizes, 42);
        for batch in ["auto", "off"] {
            let batch = ("batch", Json::Str(batch.into()));
            let coop = ("executor", Json::Str("coop".into()));
            for extra in [vec![batch.clone(), coop], vec![batch]] {
                let body = run_body(design, sizes, 42, &extra);
                work.push((body.clone(), expected.clone()));
                work.push((body, expected.clone()));
            }
        }
    }
    work
}

fn run_workload_on(
    svc: &Arc<Service>,
    work: &[(String, HashMap<String, Vec<i64>>)],
    threads: usize,
) {
    if threads <= 1 {
        for (i, (body, expected)) in work.iter().enumerate() {
            let (status, resp) = svc.handle_run(body);
            assert_eq!(status, 200, "request {i}: {resp}");
            assert_stores_match(&resp, expected, &format!("request {i}"));
        }
        return;
    }
    std::thread::scope(|scope| {
        for t in 0..threads {
            let svc = Arc::clone(svc);
            scope.spawn(move || {
                // Interleaved slices: every thread touches every design.
                for (i, (body, expected)) in work.iter().enumerate().skip(t).step_by(threads) {
                    let (status, resp) = svc.handle_run(body);
                    assert_eq!(status, 200, "thread {t} request {i}: {resp}");
                    assert_stores_match(&resp, expected, &format!("thread {t} request {i}"));
                }
            });
        }
    });
}

// ---------------------------------------------------------------------
// 1. Concurrency soak.

#[test]
fn soak_shared_caches_are_oracle_exact_and_counter_exact_under_contention() {
    let work = soak_workload();

    // Sequential reference pass on a fresh service.
    let seq_svc = Service::new(test_config());
    run_workload_on(&seq_svc, &work, 1);
    let seq_stats = seq_svc.modules.stats();
    let (seq_ph, seq_pm, seq_pe, seq_plen) = seq_svc.plans.stats();
    assert!(
        seq_stats.module_hits > 0,
        "workload must produce cache hits"
    );
    assert_eq!(seq_stats.module_evictions, 0, "caps must hold the soak");

    // The same workload, 8 threads, one shared service. Stores stay
    // bit-identical and — because `ModuleStore` and `PlanCache` hold
    // their mutex across lookup-or-build — every counter lands on
    // exactly the sequential value: no double-builds, no lost updates.
    let conc_svc = Service::new(test_config());
    run_workload_on(&conc_svc, &work, 8);
    let conc = conc_svc.modules.stats();
    assert_eq!(
        (
            conc.skeleton_hits,
            conc.skeleton_misses,
            conc.skeleton_evictions
        ),
        (
            seq_stats.skeleton_hits,
            seq_stats.skeleton_misses,
            seq_stats.skeleton_evictions
        ),
        "skeleton counters drifted under contention"
    );
    assert_eq!(
        (conc.module_hits, conc.module_misses, conc.module_evictions),
        (
            seq_stats.module_hits,
            seq_stats.module_misses,
            seq_stats.module_evictions
        ),
        "module counters drifted under contention"
    );
    assert_eq!(
        conc_svc.plans.stats(),
        (seq_ph, seq_pm, seq_pe, seq_plen),
        "plan-cache counters drifted under contention"
    );

    // Pool accounting agrees with the workload it actually served.
    let pool = &conc_svc.pool.stats;
    assert_eq!(pool.submitted.load(Ordering::SeqCst), work.len() as u64);
    assert_eq!(pool.completed.load(Ordering::SeqCst), work.len() as u64);
    assert_eq!(pool.rejected.load(Ordering::SeqCst), 0);
    assert_eq!(pool.panics.load(Ordering::SeqCst), 0);
}

#[test]
fn soak_eviction_counters_stay_exact_when_the_store_thrashes() {
    // Tiny module capacity: the soak workload now evicts constantly
    // while 8 threads race lookups against evictions — the PR 8
    // eviction-race regression at service scale. Module keys are
    // (design, options, sizes, store shape); the data is not in them, so
    // what makes the keys many here is the five designs, not the seeds —
    // five shapes through two slots. FIFO interleavings differ run to
    // run, but the eviction identity (every miss past capacity evicts
    // exactly one) is order-free.
    let cfg = ServiceConfig {
        module_caps: (2, 2),
        ..test_config()
    };
    let svc = Service::new(cfg);
    let work = soak_workload();
    run_workload_on(&svc, &work, 8);
    let s = svc.modules.stats();
    assert!(s.module_misses > 2, "thrash workload must miss repeatedly");
    assert_eq!(
        s.module_evictions,
        s.module_misses - 2,
        "eviction counter lost or double-counted an eviction under contention: {s:?}"
    );
    assert_eq!(
        s.skeleton_evictions,
        s.skeleton_misses.saturating_sub(2),
        "skeleton eviction counter drifted under contention: {s:?}"
    );
}

// ---------------------------------------------------------------------
// 2. Error paths over real HTTP.

fn http_request(addr: std::net::SocketAddr, raw: &str) -> (u16, String) {
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.write_all(raw.as_bytes()).expect("write");
    // Half-close: a server waiting for more of the request sees EOF
    // and answers, not a hang.
    s.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut text = String::new();
    s.read_to_string(&mut text).expect("read");
    let (head, body) = text.split_once("\r\n\r\n").expect("header break");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("status");
    (status, body.to_string())
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    http_request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

type Plugs = Vec<(mpsc::Sender<()>, mpsc::Receiver<(u16, String)>)>;

/// Occupy every pool worker with a job that blocks until [`unplug`] — or
/// until its sender drops, so a panicking test releases the workers too.
/// The queue is FIFO: whatever is submitted next waits behind the plugs.
fn plug_workers(svc: &Service) -> Plugs {
    (0..svc.pool.n_workers)
        .map(|_| {
            let (gate_tx, gate_rx) = mpsc::channel::<()>();
            let plug = Box::new(move || {
                let _ = gate_rx.recv();
                (200, String::new())
            });
            (gate_tx, svc.pool.submit(plug).expect("plug submission"))
        })
        .collect()
}

fn unplug(plugs: Plugs) {
    for (gate_tx, done) in plugs {
        gate_tx.send(()).expect("plug still waiting");
        assert_eq!(done.recv().expect("plug result").0, 200);
    }
}

fn error_kind(body: &str) -> (String, Vec<String>) {
    let doc = json::parse(body).unwrap_or_else(|e| panic!("unparseable error body: {e}\n{body}"));
    let err = doc
        .get("error")
        .unwrap_or_else(|| panic!("no error object: {body}"));
    let kind = err
        .get("kind")
        .and_then(|k| k.as_str())
        .expect("kind")
        .to_string();
    let offenders = err
        .get("offenders")
        .and_then(|o| o.as_arr())
        .expect("offenders")
        .iter()
        .filter_map(|o| o.as_str().map(str::to_string))
        .collect();
    (kind, offenders)
}

#[test]
fn every_failure_mode_is_a_distinct_structured_error_with_the_right_status() {
    let svc = Service::new(ServiceConfig {
        max_size: 16,
        debug_panic_route: true,
        ..test_config()
    });
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = http::serve(Arc::clone(&svc), listener).expect("serve");
    let addr = server.addr;

    // Malformed request JSON.
    let (status, body) = post(addr, "/v1/run", "{this is not json");
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_kind(&body).0, "bad-request");

    // A body of nothing but open brackets: the parser's nesting cap
    // answers it on the connection thread's small stack (unbounded
    // recursion here used to kill the whole process), on both routes
    // that parse a body; the next connection finds the server alive.
    let hostile = "[".repeat(100_000);
    for route in ["/v1/run", "/v1/replay"] {
        let (status, body) = post(addr, route, &hostile);
        assert_eq!(status, 400, "{route}: {body}");
        assert_eq!(error_kind(&body).0, "bad-request", "{route}");
        assert!(body.contains("nesting deeper than 64"), "{route}: {body}");
    }
    let (status, _) = post(addr, "/v1/run", r#"{"design":"E.1","sizes":[3]}"#);
    assert_eq!(status, 200);

    // A field of the wrong type is named, never coerced to a default: a
    // client that asked for the oracle check must not silently go
    // without it, nor a schedule seed wrap or read as 0. Nor is a member
    // the request does not have: a misspelt
    // `verify` would run unverified, a misspelt schedule `seed` would run
    // seed 0, and the deleted `wavefront`, `opt` and `kernel` gates
    // (docs/wavefront.md, docs/process-ir.md, docs/kernels.md) would run a
    // rung or a module the request did not ask for. A schedule policy is
    // checked when the request is parsed, whatever the output. The
    // observed outputs read the whole request too: a schedule they cannot
    // honour and an oracle check they do not make are refused. Every one
    // is refused before admission: none reaches the pool.
    let submitted = svc.pool.stats.submitted.load(Ordering::SeqCst);
    for (field, value) in [
        ("'verify'", r#""verify":"yes""#),
        ("'seed'", r#""schedule":{"policy":"random","seed":"7"}"#),
        ("'seed'", r#""schedule":{"policy":"random","seed":-1}"#),
        (
            "unknown member 'verfy' (accepted: design ",
            r#""verfy":true"#,
        ),
        (
            "unknown member 'wavefront' (accepted: ",
            r#""wavefront":"off""#,
        ),
        ("unknown member 'opt' (accepted: ", r#""opt":"off""#),
        ("unknown member 'kernel' (accepted: ", r#""kernel":"off""#),
        (
            "unknown member 'sed' of 'schedule' (accepted: policy seed)",
            r#""schedule":{"policy":"random","sed":5}"#,
        ),
        (
            "unknown schedule policy 'life' (fifo|random|lifo|prio-inv)",
            r#""schedule":{"policy":"life"}"#,
        ),
        (
            "unknown schedule policy 'bogus'",
            r#""output":"metrics","schedule":{"policy":"bogus"}"#,
        ),
        (
            "'verify' compares the stores of a run: it needs 'output'",
            r#""output":"trace","verify":true"#,
        ),
        (
            "'metrics' reports the module's rendezvous profile under the FIFO clock",
            r#""output":"metrics","schedule":{"policy":"lifo","seed":3}"#,
        ),
        (
            "'metrics' reports the module's rendezvous profile under the FIFO clock",
            r#""output":"metrics","batch":"off""#,
        ),
    ] {
        let (status, body) = post(
            addr,
            "/v1/run",
            &format!(r#"{{"design":"E.1","sizes":[3],{value}}}"#),
        );
        assert_eq!(status, 400, "{value}: {body}");
        assert_eq!(error_kind(&body).0, "bad-request", "{value}");
        assert!(body.contains(field), "{value}: {body}");
    }
    assert_eq!(svc.pool.stats.submitted.load(Ordering::SeqCst), submitted);

    // Malformed .sys source: the parser's message reaches the client as
    // a structured 400, kind "parse".
    let (status, body) = post(
        addr,
        "/v1/run",
        &Json::Obj(vec![
            ("source".into(), Json::Str("program broken; siz".into())),
            ("sizes".into(), Json::Arr(vec![Json::Num(4)])),
        ])
        .to_string(),
    );
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_kind(&body).0, "parse");

    // Unknown gallery design.
    let (status, body) = post(addr, "/v1/run", r#"{"design":"Z.9","sizes":[4]}"#);
    assert_eq!(status, 404, "{body}");
    assert_eq!(error_kind(&body).0, "unknown-design");

    // Oversized problem.
    let (status, body) = post(addr, "/v1/run", r#"{"design":"E.1","sizes":[99]}"#);
    assert_eq!(status, 413, "{body}");
    assert_eq!(error_kind(&body).0, "size-limit");

    // Wrong size arity and unknown input variable are plain 400s.
    let (status, body) = post(addr, "/v1/run", r#"{"design":"E.1","sizes":[3,3]}"#);
    assert_eq!(status, 400, "{body}");
    let (status, body) = post(
        addr,
        "/v1/run",
        r#"{"design":"E.1","sizes":[3],"inputs":["nonsense"]}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_kind(&body).0, "bad-request");

    // Expired deadline: structured 504, kind "timeout", naming the
    // request as the offender. It queues behind the plugs, so its 1 ms
    // expires in the queue however fast a run would have been.
    let plugs = plug_workers(&svc);
    let (status, body) = post(
        addr,
        "/v1/run",
        r#"{"design":"E.1","sizes":[16],"deadline_ms":1}"#,
    );
    unplug(plugs);
    assert_eq!(status, 504, "{body}");
    let (kind, offenders) = error_kind(&body);
    assert_eq!(kind, "timeout");
    assert_eq!(offenders, ["request"], "{body}");

    // Worker panic: structured 500 and the panic text stays server-side.
    let (status, body) = post(addr, "/debug/panic", "");
    assert_eq!(status, 500, "{body}");
    let (kind, offenders) = error_kind(&body);
    assert_eq!(kind, "panic");
    assert!(offenders.iter().any(|o| o.contains("sim-worker")), "{body}");
    assert!(
        !body.contains("deliberate debug panic"),
        "raw panic text crossed the wire: {body}"
    );
    // And the pool keeps serving afterwards.
    let (status, _) = post(addr, "/v1/run", r#"{"design":"E.1","sizes":[3]}"#);
    assert_eq!(status, 200);

    // Unknown route.
    let (status, body) = post(addr, "/no/such/route", "{}");
    assert_eq!(status, 404, "{body}");
    assert_eq!(error_kind(&body).0, "not-found");

    // Declared body larger than the transport cap: rejected before the
    // body is read.
    let (status, body) = http_request(
        addr,
        "POST /v1/run HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
         Content-Length: 2000000\r\n\r\n",
    );
    assert_eq!(status, 413, "{body}");
    assert_eq!(error_kind(&body).0, "body-too-large");

    // A head past the 16 KiB transport cap — one header that never
    // ends, then headers that never stop — is refused, not buffered
    // without bound. Each sends exactly the cap's worth of bytes, so the
    // server has read all it was sent and its close resets nothing away.
    for filler in ["a", "X-Pad: v\r\n"] {
        let mut raw = String::from("POST /v1/run HTTP/1.1\r\nHost: t\r\n");
        raw.push_str(&filler.repeat((16 << 10) / filler.len()));
        raw.truncate(16 << 10);
        let (status, body) = http_request(addr, &raw);
        assert_eq!(status, 431, "{body}");
        assert_eq!(error_kind(&body).0, "headers-too-large");
    }
    // And the server still serves — on the kernel fast path, and says so.
    let (status, body) = post(addr, "/v1/run", r#"{"design":"E.1","sizes":[3]}"#);
    assert_eq!(status, 200);
    assert!(body.contains(r#""kernels":true"#), "{body}");

    // Malformed replay file.
    let (status, body) = post(addr, "/v1/replay", "{\"schema\":\"wrong\"}");
    assert_eq!(status, 400, "{body}");

    // A replay's problem is bound by the constructor `/v1/run` uses and
    // under the same size policy: wrong arity (once a worker panic) and
    // a negative size are 400s on both routes, a size past `max_size` is
    // a 413 before anything is elaborated, and a legal replay
    // elaborates through the service's own module store.
    let stat = |section: &str, counter: &str| {
        let stats = json::parse(&svc.stats_json()).unwrap();
        let value = stats.get(section).and_then(|s| s.get(counter));
        value.and_then(|v| v.as_i64()).expect("a counter")
    };
    let panics = stat("pool", "panics");
    let misses = stat("elab_cache", "module_misses");
    for (design, sizes, want, kind) in [
        ("fir", "[3]", 400, "bad-request"),
        ("fir", "[3,4,5]", 400, "bad-request"),
        ("E.1", "[-3]", 400, "bad-request"),
        ("E.1", "[100]", 413, "size-limit"),
    ] {
        let run = format!(r#"{{"design":"{design}","sizes":{sizes}}}"#);
        let file =
            format!(r#"{{"schema":"systolic-schedule-v1","design":"{design}","sizes":{sizes}}}"#);
        for (route, body) in [("/v1/run", run), ("/v1/replay", file)] {
            let (status, resp) = post(addr, route, &body);
            assert_eq!(status, want, "{route} {body}: {resp}");
            assert_eq!(error_kind(&resp).0, kind, "{route} {body}");
        }
    }
    assert_eq!(stat("elab_cache", "module_misses"), misses, "nothing ran");
    let legal = r#"{"schema":"systolic-schedule-v1","design":"fir","sizes":[2,7]}"#;
    let (status, resp) = post(addr, "/v1/replay", legal);
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains(r#""reproduced":false"#), "{resp}");
    assert_eq!(stat("elab_cache", "module_misses"), misses + 1);
    assert_eq!(stat("pool", "panics"), panics, "no request panicked");
    // n = 0 is the one-point problem here as at every other door.
    let (status, resp) = post(addr, "/v1/run", r#"{"design":"E.1","sizes":[0]}"#);
    assert_eq!(status, 200, "{resp}");

    server.shutdown();
}

/// The executor vocabulary is one word. `threaded` and `partitioned`
/// named an OS-thread engine that is gone, so each is a 400 that lists
/// what is accepted, and its worker count is a member the request does
/// not have. The one accepted
/// value changes nothing: its body is the body of the same request
/// without the member, byte for byte. None of the refusals reaches the
/// pool.
#[test]
fn the_executor_member_accepts_coop_alone() {
    let svc = Service::new(test_config());
    let request = |extra: &str| format!(r#"{{"design":"E.1","sizes":[3]{extra}}}"#);
    let submitted = svc.pool.stats.submitted.load(Ordering::SeqCst);
    for (extra, needle) in [
        (
            r#","executor":"threaded""#,
            "unknown executor 'threaded' (coop)",
        ),
        (
            r#","executor":"partitioned""#,
            "unknown executor 'partitioned' (coop)",
        ),
        (r#","workers":2"#, "unknown member 'workers' (accepted: "),
    ] {
        let (status, body) = svc.handle_run(&request(extra));
        assert_eq!(status, 400, "{extra}: {body}");
        assert_eq!(error_kind(&body).0, "bad-request", "{extra}");
        assert!(body.contains(needle), "{extra}: {body}");
    }
    assert_eq!(svc.pool.stats.submitted.load(Ordering::SeqCst), submitted);

    let (status, named) = svc.handle_run(&request(r#","executor":"coop""#));
    assert_eq!(status, 200, "{named}");
    assert_eq!(svc.handle_run(&request("")), (200, named));
}

#[test]
fn inline_source_requests_run_verified_end_to_end() {
    let svc = Service::new(test_config());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = http::serve(Arc::clone(&svc), listener).expect("serve");
    let src = std::fs::read_to_string("programs/matmul.sys").expect("read matmul.sys");
    let body = Json::Obj(vec![
        ("source".into(), Json::Str(src)),
        ("sizes".into(), Json::Arr(vec![Json::Num(4)])),
        (
            "inputs".into(),
            Json::Arr(vec![Json::Str("a".into()), Json::Str("b".into())]),
        ),
        ("verify".into(), Json::Bool(true)),
    ])
    .to_string();
    let (status, resp) = post(server.addr, "/v1/run", &body);
    assert_eq!(status, 200, "{resp}");
    let doc = json::parse(&resp).unwrap();
    assert_eq!(
        doc.get("verified").and_then(|v| v.as_bool()),
        Some(true),
        "{resp}"
    );
    assert_eq!(
        doc.get("design").and_then(|v| v.as_str()),
        Some("source"),
        "{resp}"
    );
    // A second identical request hits the source-hash plan cache.
    let (status, _) = post(server.addr, "/v1/run", &body);
    assert_eq!(status, 200);
    let (hits, misses, _, _) = svc.plans.stats();
    assert_eq!((hits, misses), (1, 1));
    server.shutdown();
}

/// Inline source nested past the parser's depth cap — 5 000 parentheses
/// in a 10 KB body, or a 50 000-term sum — is a structured parse error,
/// and the server goes on answering (each used to overflow a worker's
/// stack and take the process down).
#[test]
fn a_deeply_nested_source_is_a_parse_error_and_the_service_keeps_answering() {
    let svc = Service::new(test_config());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = http::serve(Arc::clone(&svc), listener).expect("serve");
    let program = |rhs: String| {
        format!(
            "program deep;\nsize n;\nvar a[0..n], b[0..n], c[0..2*n];\n\
             for i = 0 <- 1 -> n\nfor j = 0 <- 1 -> n {{\n  c[i+j] = {rhs};\n}}\n"
        )
    };
    let sources = [
        program(format!("{}a[i]{}", "(".repeat(5_000), ")".repeat(5_000))),
        program(vec!["a[i]"; 50_000].join(" + ")),
    ];
    for src in sources {
        let body = Json::Obj(vec![
            ("source".into(), Json::Str(src)),
            ("sizes".into(), Json::Arr(vec![Json::Num(4)])),
        ])
        .to_string();
        let (status, resp) = post(server.addr, "/v1/run", &body);
        assert_eq!(status, 400, "{resp}");
        assert_eq!(error_kind(&resp).0, "parse");
        let needle = "line 6: expression nested deeper than 256 levels";
        assert!(resp.contains(needle), "{resp}");
        let get = "GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
        let (status, stats) = http_request(server.addr, get);
        assert_eq!(status, 200, "{stats}");
    }
    assert_eq!(svc.pool.stats.panics.load(Ordering::SeqCst), 0);
    server.shutdown();
}

#[test]
fn saturation_over_sockets_keeps_every_client_in_flight_and_oracle_exact() {
    // Under `test_config()`'s queue_cap of 128, so nothing is rejected.
    const CLIENTS: usize = 96;

    let svc = Service::new(test_config());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = http::serve(Arc::clone(&svc), listener).expect("serve");
    let addr = server.addr;
    let pool = &svc.pool.stats;
    let workers = svc.pool.n_workers;

    // Requests queue up behind the plugs, which is what holds N of them
    // in flight at once however few cores the box has.
    let plugs = plug_workers(&svc);

    std::thread::scope(|scope| {
        for ci in 0..CLIENTS {
            scope.spawn(move || {
                let (design, sizes) = GALLERY[ci % GALLERY.len()];
                let seed = 42 + (ci % 7) as u64;
                // Alternate the fast path and the plain rung: both must be
                // bit-identical to the oracle, served interleaved.
                let batch = if ci % 2 == 0 { "auto" } else { "off" };
                let body = run_body(
                    design,
                    sizes,
                    seed,
                    &[
                        ("batch", Json::Str(batch.into())),
                        // Checked twice: by the server's own oracle
                        // here, from outside by `oracle_for` below.
                        ("verify", Json::Bool(true)),
                        ("deadline_ms", Json::Num(60_000)),
                    ],
                );
                let (status, resp) = post(addr, "/v1/run", &body);
                assert_eq!(status, 200, "client {ci} ({design}): {resp}");
                let expected = oracle_for(design, sizes, seed);
                assert_stores_match(&resp, &expected, &format!("client {ci} ({design})"));
            });
        }

        // Pull the plugs only once every client's request sits in the
        // pool's queue: all submitted, none served — N in flight at once.
        let give_up = std::time::Instant::now() + Duration::from_secs(60);
        while pool.submitted.load(Ordering::SeqCst) < (CLIENTS + workers) as u64 {
            assert!(
                std::time::Instant::now() < give_up,
                "only {} of {CLIENTS} clients got in flight",
                pool.submitted.load(Ordering::SeqCst) - workers as u64
            );
            std::thread::yield_now();
        }
        assert_eq!(pool.completed.load(Ordering::SeqCst), 0);
        unplug(plugs);
    });

    assert_eq!(pool.rejected.load(Ordering::SeqCst), 0);
    assert_eq!(pool.panics.load(Ordering::SeqCst), 0);
    let all = (CLIENTS + workers) as u64;
    assert_eq!(pool.submitted.load(Ordering::SeqCst), all);
    assert_eq!(pool.completed.load(Ordering::SeqCst), all);
    server.shutdown();
}

// ---------------------------------------------------------------------
// 3. DST integration: adversaries and fault plans under the pool.

#[test]
fn adversarial_schedules_change_no_stores_behind_the_service() {
    // Every policy × seed runs through `handle_run` (in-process — same
    // code path as the wire, no sockets) in differential mode; the
    // response stores must still match the client-side oracle. A non-FIFO
    // schedule closes the fast-path gate, so each run is the plain
    // rendezvous engine's.
    let svc = Service::new(test_config());
    for (design, sizes) in &GALLERY[..3] {
        let expected = oracle_for(design, sizes, 42);
        for policy in ["random", "lifo", "prio-inv"] {
            for seed in 0..2i64 {
                let body = run_body(
                    design,
                    sizes,
                    42,
                    &[
                        (
                            "schedule",
                            Json::Obj(vec![
                                ("policy".into(), Json::Str(policy.into())),
                                ("seed".into(), Json::Num(seed)),
                            ]),
                        ),
                        ("verify", Json::Bool(true)),
                    ],
                );
                let (status, resp) = svc.handle_run(&body);
                assert_eq!(status, 200, "{design} under {policy}:{seed}: {resp}");
                assert!(resp.contains(r#""wavefront":false"#), "{resp}");
                assert_stores_match(&resp, &expected, &format!("{design}/{policy}:{seed}"));
            }
        }
    }
}

#[test]
fn fault_plans_keep_stores_and_error_classification_under_the_pool() {
    // The DST fault contracts, executed as service worker-pool jobs.
    let svc = Service::new(test_config());
    let deadline = Duration::from_secs(60);

    // Bounded delay fault: outputs, messages, and steps are invariant
    // (rounds may grow — asynchronous semantics tolerates finite
    // slowdown).
    let (status, verdict) = svc.pool.run(
        deadline,
        60_000,
        Box::new(|| {
            let subject = subject_for("D.1", &[4], 17).expect("subject");
            let baseline = subject.run(None).expect("baseline");
            let delayed = subject
                .run(Some(Box::new(FaultPlan::delay(0, 3).delay_policy())))
                .expect("delayed run");
            if baseline.outputs != delayed.outputs {
                return (500, "outputs changed under bounded delay".into());
            }
            if baseline.stats.messages != delayed.stats.messages
                || baseline.stats.steps != delayed.stats.steps
            {
                return (500, "logical counts changed under bounded delay".into());
            }
            (200, "invariant".into())
        }),
    );
    assert_eq!((status, verdict.as_str()), (200, "invariant"));

    // Abort fault: classification is stable — the deadlock report names
    // the aborted victim, with and without an adversarial scheduler, and
    // maps to the same structured 422.
    for adversarial in [false, true] {
        let (status, body) = svc.pool.run(
            deadline,
            60_000,
            Box::new(move || {
                use systolic_runtime::{Network, ProcIrBuilder};
                let mut b = ProcIrBuilder::new();
                b.source(0, &[10, 20, 30, 40], "src");
                b.relay(0, 1, 4, "relay");
                b.sink(1, 4, "snk");
                let faulted = FaultPlan::abort(1).apply(&b.build()).unwrap();
                let mut net = Network::of(&faulted);
                if adversarial {
                    net.set_schedule_policy(policy_by_name("lifo", 7).unwrap());
                }
                match net.run() {
                    Ok(_) => (500, "abort fault failed to fail".into()),
                    Err(e) => {
                        let api = ApiError::from_run_error(&e);
                        (api.status, api.to_json())
                    }
                }
            }),
        );
        assert_eq!(status, 422, "adversarial={adversarial}: {body}");
        let (kind, offenders) = error_kind(&body);
        assert_eq!(kind, "deadlock", "adversarial={adversarial}");
        assert!(
            offenders
                .iter()
                .any(|o| o.contains("relay") && o.contains("aborted")),
            "deadlock report must name the aborted victim: {body}"
        );
    }
}

#[test]
fn a_shrunk_race_sink_counterexample_replays_through_the_service() {
    // The harness's own canary: catch the seeded interleaving bug,
    // shrink it, then hand the counterexample file to the service's
    // replay endpoint — which must reproduce the divergence under its
    // worker pool.
    let subject = RaceSubject { k: 8 };
    let report = explore(&subject, &ExploreConfig::matrix(4)).expect("explore");
    let ce = report.counterexample.expect("race-sink must be caught");
    assert!(
        !ce.schedule.log.rounds.is_empty(),
        "shrunk log must keep at least one round"
    );
    // Direct replay reproduces (sanity) …
    assert!(replay(&subject, &ce.schedule).expect("replay").reproduced);

    // … and so does the service endpoint, structurally.
    let svc = Service::new(test_config());
    let (status, resp) = svc.handle_replay(&ce.schedule.to_json());
    assert_eq!(status, 200, "{resp}");
    let doc = json::parse(&resp).unwrap();
    assert_eq!(
        doc.get("reproduced").and_then(|v| v.as_bool()),
        Some(true),
        "{resp}"
    );
    assert_eq!(
        doc.get("design").and_then(|v| v.as_str()),
        Some("race-sink"),
        "{resp}"
    );
    assert!(
        doc.get("reason").and_then(|v| v.as_str()).is_some(),
        "a reproduced divergence carries its reason: {resp}"
    );

    // A gallery design's empty-log stub must NOT reproduce: schedule
    // independence holds behind the same endpoint.
    let stub = subject_for("E.1", &[3], 19).unwrap().schedule_stub();
    let (status, resp) = svc.handle_replay(&stub.to_json());
    assert_eq!(status, 200, "{resp}");
    let doc = json::parse(&resp).unwrap();
    assert_eq!(
        doc.get("reproduced").and_then(|v| v.as_bool()),
        Some(false),
        "{resp}"
    );
}
