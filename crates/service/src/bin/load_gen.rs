//! Closed-loop load generator for the simulation service, and the
//! keeper of `BENCH_service.json` (the service counterpart of
//! `BENCH_simulate.json` — same labeled-snapshot scheme, same
//! regression gate).
//!
//! Boots a real server (`systolic_service::http::serve`) on a loopback
//! port and drives it over actual sockets. Two scenarios:
//!
//! - **warm-latency** — one client, matmul E.1 at n = 24, repeated
//!   requests against hot plan/module caches. Records end-to-end
//!   p50/p99; the acceptance bar is warm p50 under 10 ms. Since PR 10
//!   every warm response must also report `engine.kernels = true` — the
//!   default coop run takes the wavefront executor's compiled
//!   struct-of-arrays kernel path (see `docs/kernels.md`), so the warm
//!   percentiles measure the kernel fast path, not the scalar sweep.
//! - **saturation** — N closed-loop clients (default 1000) with a mixed
//!   design/executor/mode workload across the whole gallery, rotating
//!   `kernel: auto|off` so both wave execution strategies serve
//!   concurrently. The pool workers are plugged until every client has a
//!   request in flight, so the peak-concurrency claim is measured, not
//!   hoped for. Every response's stores are checked bit-for-bit against
//!   a locally precomputed sequential oracle — zero mismatches required,
//!   which pins the kernel path as observationally invisible end to end.
//!
//! Flags:
//! - `--quick`: CI smoke mode — small client counts, full correctness
//!   checks (oracle match, peak concurrency, structured stats), **no**
//!   wall-clock assertions and no `BENCH_service.json` write (CI
//!   runners are too noisy for timing gates; the precedent is
//!   `simulate_trajectory --quick`). Still parses an existing bench
//!   file so a corrupted checkin fails fast.
//! - `--clients N`, `--per-client R`, `--warm-requests K`: load shape.
//! - `--label L`: snapshot label (default `pr9-service`).
//! - `--gate-pct P`: regression gate — new p50/p99 more than `P`%
//!   (plus a scenario-sized slack) over the best prior snapshot fails
//!   the run and writes nothing.
//! - `--out PATH`: bench file path (default `BENCH_service.json`).
//! - `--artifact PATH`: also write the measured snapshot (alone, as a
//!   complete suite document) to `PATH` — the CI upload artifact.

use std::collections::HashMap;
use std::io::{Read, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use systolic_ir::seq;
use systolic_math::Env;
use systolic_service::{compile_design, http, Service, ServiceConfig};
use systolic_sim::json;

/// The gallery mix: DST-registry keys and sizes (small on purpose —
/// saturation measures the service, not the simulator).
const GALLERY: &[(&str, &[i64])] = &[
    ("D.1", &[4]),
    ("D.2", &[4]),
    ("E.1", &[3]),
    ("E.2", &[3]),
    ("fir", &[2, 5]),
];

/// Executor rotation for the saturation mix. Coop-heavy: it is the
/// default engine; the threaded/partitioned entries prove the pool
/// serves every engine concurrently.
const EXECUTORS: &[&str] = &["coop", "coop", "threaded", "coop", "partitioned"];

const SEEDS: &[u64] = &[42, 43, 44, 45, 46, 47, 48];

struct Config {
    quick: bool,
    clients: usize,
    per_client: usize,
    warm_requests: usize,
    label: String,
    gate_pct: f64,
    out: String,
    artifact: Option<String>,
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let quick = args.iter().any(|a| a == "--quick");
    Config {
        quick,
        clients: flag("--clients")
            .and_then(|v| v.parse().ok())
            .unwrap_or(if quick { 32 } else { 1000 }),
        per_client: flag("--per-client")
            .and_then(|v| v.parse().ok())
            .unwrap_or(if quick { 1 } else { 2 }),
        warm_requests: flag("--warm-requests")
            .and_then(|v| v.parse().ok())
            .unwrap_or(if quick { 10 } else { 50 }),
        label: flag("--label").unwrap_or_else(|| "pr10-kernels".into()),
        gate_pct: flag("--gate-pct")
            .and_then(|v| v.parse().ok())
            .unwrap_or(25.0),
        out: flag("--out").unwrap_or_else(|| "BENCH_service.json".into()),
        artifact: flag("--artifact"),
    }
}

// ---------------------------------------------------------------------
// Minimal HTTP client (connection per request, `Connection: close`).

fn http_post(addr: std::net::SocketAddr, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: load-gen\r\nConnection: close\r\n\
                 Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .map_err(|e| format!("write: {e}"))?;
    read_response(&mut stream)
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: load-gen\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("write: {e}"))?;
    read_response(&mut stream)
}

fn read_response(stream: &mut TcpStream) -> Result<(u16, String), String> {
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "non-UTF-8 response".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed response (no header break)".to_string())?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: {head}"))?;
    Ok((status, body.to_string()))
}

// ---------------------------------------------------------------------
// Client-side sequential oracle.

/// Expected stores per `(design index, seed)`: every variable's raw
/// values after a sequential reference run, with inputs filled by the
/// same `fill_random(name, seed + i)` convention the service uses.
type Oracle = HashMap<(usize, u64), HashMap<String, Vec<i64>>>;

fn build_oracle() -> Oracle {
    let mut oracle = Oracle::new();
    for (di, (key, sizes)) in GALLERY.iter().enumerate() {
        let resolved = compile_design(key).expect("gallery design compiles");
        let mut env = Env::new();
        for (&v, &val) in resolved.plan.source.sizes.iter().zip(sizes.iter()) {
            env.bind(v, val);
        }
        let inputs: Vec<&str> = resolved.default_inputs.iter().map(|s| s.as_str()).collect();
        for &seed in SEEDS {
            let store = seq::run_random(&resolved.plan.source, &env, &inputs, seed);
            let expected: HashMap<String, Vec<i64>> = store
                .names()
                .map(|name| (name.to_string(), store.get(name).raw().to_vec()))
                .collect();
            oracle.insert((di, seed), expected);
        }
    }
    oracle
}

/// Compare a 200 response body against the oracle entry. Returns a
/// description of the first mismatch, if any.
fn check_stores(body: &str, expected: &HashMap<String, Vec<i64>>) -> Option<String> {
    let doc = match json::parse(body) {
        Ok(d) => d,
        Err(e) => return Some(format!("unparseable response body: {e}")),
    };
    let Some(stores) = doc.get("stores") else {
        return Some("response has no 'stores' field".into());
    };
    for (name, want) in expected {
        let Some(values) = stores.get(name).and_then(|s| s.get("values")) else {
            return Some(format!("response missing store '{name}'"));
        };
        let got: Vec<i64> = values
            .as_arr()
            .map(|a| a.iter().filter_map(|v| v.as_i64()).collect())
            .unwrap_or_default();
        if &got != want {
            return Some(format!(
                "store '{name}' diverges from the sequential oracle \
                 ({} values vs {} expected)",
                got.len(),
                want.len()
            ));
        }
    }
    None
}

/// Whether a 200 response's engine block reports the given flag set.
fn engine_flag(body: &str, key: &str) -> bool {
    json::parse(body)
        .ok()
        .as_ref()
        .and_then(|d| d.get("engine"))
        .and_then(|e| e.get(key))
        .and_then(|v| v.as_bool())
        .unwrap_or(false)
}

// ---------------------------------------------------------------------
// Scenarios.

struct ScenarioResult {
    scenario: &'static str,
    design: Option<(&'static str, i64)>,
    clients: usize,
    requests: usize,
    peak_in_flight: u64,
    mismatches: usize,
    p50_ms: f64,
    p99_ms: f64,
    req_per_s: f64,
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)] as f64 / 1000.0
}

/// One client, matmul E.1 n = 24, hot caches. The acceptance criterion
/// lives here: warm p50 under 10 ms end-to-end.
fn warm_latency(addr: std::net::SocketAddr, cfg: &Config) -> ScenarioResult {
    let body = r#"{"design":"E.1","sizes":[24],"seed":42,"deadline_ms":60000}"#;
    // Warm-up: pays plan compilation + module elaboration once.
    let (status, warmup) = http_post(addr, "/v1/run", body).expect("warm-up request");
    assert_eq!(status, 200, "warm-up failed: {warmup}");

    // The warm oracle (n = 24 is not in the saturation mix).
    let resolved = compile_design("E.1").expect("E.1 compiles");
    let mut env = Env::new();
    for &v in resolved.plan.source.sizes.iter() {
        env.bind(v, 24);
    }
    let inputs: Vec<&str> = resolved.default_inputs.iter().map(|s| s.as_str()).collect();
    let oracle_store = seq::run_random(&resolved.plan.source, &env, &inputs, 42);
    let expected: HashMap<String, Vec<i64>> = oracle_store
        .names()
        .map(|name| (name.to_string(), oracle_store.get(name).raw().to_vec()))
        .collect();

    let mut latencies_us = Vec::with_capacity(cfg.warm_requests);
    let mut mismatches = 0usize;
    let start = Instant::now();
    for _ in 0..cfg.warm_requests {
        let t0 = Instant::now();
        let (status, resp) = http_post(addr, "/v1/run", body).expect("warm request");
        latencies_us.push(t0.elapsed().as_micros() as u64);
        if status != 200 {
            mismatches += 1;
            eprintln!("warm-latency: non-200 ({status}): {resp}");
        } else if let Some(why) = check_stores(&resp, &expected) {
            mismatches += 1;
            eprintln!("warm-latency: {why}");
        } else if !engine_flag(&resp, "kernels") {
            // The warm percentiles are a claim about the kernel fast
            // path; a silent fall-back to the scalar sweep would keep
            // the stores right but invalidate the measurement.
            mismatches += 1;
            eprintln!("warm-latency: engine did not engage the wave kernels");
        }
    }
    let wall = start.elapsed().as_secs_f64();
    latencies_us.sort_unstable();
    ScenarioResult {
        scenario: "warm-latency",
        design: Some(("E.1", 24)),
        clients: 1,
        requests: cfg.warm_requests,
        peak_in_flight: 1,
        mismatches,
        p50_ms: percentile(&latencies_us, 50.0),
        p99_ms: percentile(&latencies_us, 99.0),
        req_per_s: cfg.warm_requests as f64 / wall.max(1e-9),
    }
}

/// N closed-loop clients over the gallery mix. The pool workers are
/// plugged until every client has a request in flight, so the reported
/// peak concurrency is exact; then the plug is pulled and the queue
/// drains under measurement.
fn saturation(
    svc: &Arc<Service>,
    addr: std::net::SocketAddr,
    oracle: &Arc<Oracle>,
    cfg: &Config,
) -> ScenarioResult {
    let clients = cfg.clients;
    let per_client = cfg.per_client.max(1);

    // Plug every worker: jobs that block until released. Requests
    // submitted meanwhile queue up behind them — that is what lets N
    // clients be simultaneously in flight on a small box.
    let mut plugs = Vec::new();
    for _ in 0..svc.pool.n_workers {
        let (gate_tx, gate_rx) = sync_channel::<()>(0);
        let rx = svc
            .pool
            .submit(Box::new(move || {
                let _ = gate_rx.recv();
                (200, "plug".into())
            }))
            .expect("plug submission");
        plugs.push((gate_tx, rx));
    }

    let barrier = Arc::new(Barrier::new(clients));
    let in_flight = Arc::new(AtomicU64::new(0));
    let peak = Arc::new(AtomicU64::new(0));
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let all_latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|ci| {
            let barrier = Arc::clone(&barrier);
            let in_flight = Arc::clone(&in_flight);
            let peak = Arc::clone(&peak);
            let failures = Arc::clone(&failures);
            let all_latencies = Arc::clone(&all_latencies);
            let oracle = Arc::clone(oracle);
            std::thread::Builder::new()
                .name(format!("client-{ci}"))
                .stack_size(256 * 1024)
                .spawn(move || {
                    barrier.wait();
                    let mut local_lat = Vec::with_capacity(per_client);
                    for r in 0..per_client {
                        let idx = ci + r * 7919; // co-prime stride mixes the gallery
                        let di = idx % GALLERY.len();
                        let (design, sizes) = GALLERY[di];
                        let seed = SEEDS[idx % SEEDS.len()];
                        let executor = EXECUTORS[idx % EXECUTORS.len()];
                        let verify = idx % 7 == 0;
                        // Alternate the wave execution strategy: the
                        // oracle check below holds bit-for-bit on both,
                        // served interleaved from the same module cache.
                        let kernel = if idx % 2 == 0 { "auto" } else { "off" };
                        let sizes_json: Vec<String> = sizes.iter().map(|s| s.to_string()).collect();
                        let body = format!(
                            "{{\"design\":\"{design}\",\"sizes\":[{}],\"seed\":{seed},\
                             \"executor\":\"{executor}\",\"verify\":{verify},\
                             \"kernel\":\"{kernel}\",\"deadline_ms\":60000}}",
                            sizes_json.join(",")
                        );
                        let t0 = Instant::now();
                        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        let result = http_post(addr, "/v1/run", &body);
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        local_lat.push(t0.elapsed().as_micros() as u64);
                        let fail = match &result {
                            Err(e) => Some(format!("client {ci}: transport: {e}")),
                            Ok((200, resp)) => check_stores(resp, &oracle[&(di, seed)])
                                .map(|why| format!("client {ci} ({design}): {why}")),
                            Ok((status, resp)) => {
                                Some(format!("client {ci} ({design}): HTTP {status}: {resp}"))
                            }
                        };
                        if let Some(f) = fail {
                            let mut g = failures.lock().unwrap();
                            if g.len() < 10 {
                                g.push(f);
                            } else {
                                g.push("...".into());
                            }
                        }
                    }
                    all_latencies.lock().unwrap().extend(local_lat);
                })
                .expect("spawn client")
        })
        .collect();

    // Pull the plug only once every client is provably in flight.
    let plug_deadline = Instant::now() + Duration::from_secs(120);
    while in_flight.load(Ordering::SeqCst) < clients as u64 {
        assert!(
            Instant::now() < plug_deadline,
            "clients never all got in flight ({} of {clients})",
            in_flight.load(Ordering::SeqCst)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let drain_start = Instant::now();
    for (gate_tx, rx) in plugs {
        let _ = gate_tx.send(());
        let _ = rx.recv();
    }
    for h in handles {
        h.join().expect("client thread");
    }
    let drain_wall = drain_start.elapsed().as_secs_f64();
    let _total_wall = start.elapsed().as_secs_f64();

    let failures = Arc::try_unwrap(failures).unwrap().into_inner().unwrap();
    let mut latencies = Arc::try_unwrap(all_latencies)
        .unwrap()
        .into_inner()
        .unwrap();
    latencies.sort_unstable();
    let total_requests = clients * per_client;

    for f in &failures {
        eprintln!("saturation failure: {f}");
    }
    ScenarioResult {
        scenario: "saturation",
        design: None,
        clients,
        requests: total_requests,
        peak_in_flight: peak.load(Ordering::SeqCst),
        mismatches: failures.len(),
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        req_per_s: total_requests as f64 / drain_wall.max(1e-9),
    }
}

// ---------------------------------------------------------------------
// Bench file: labeled snapshots + regression gate (the
// `BENCH_simulate.json` scheme, per-scenario keys).

struct Prior {
    scenario: String,
    p50_ms: f64,
    p99_ms: f64,
}

fn prior_best(old: &str) -> Vec<Prior> {
    let mut best: Vec<Prior> = Vec::new();
    for line in old.lines() {
        let Some(s0) = line.find("\"scenario\": \"") else {
            continue;
        };
        let rest = &line[s0 + 13..];
        let Some(s1) = rest.find('"') else { continue };
        let scenario = rest[..s1].to_string();
        let field = |name: &str| -> Option<f64> {
            let i = line.find(name)? + name.len();
            let tail = &line[i..];
            let end = tail
                .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-'))
                .unwrap_or(tail.len());
            tail[..end].parse().ok()
        };
        let (Some(p50), Some(p99)) = (field("\"p50_ms\": "), field("\"p99_ms\": ")) else {
            continue;
        };
        match best.iter_mut().find(|p| p.scenario == scenario) {
            Some(p) => {
                p.p50_ms = p.p50_ms.min(p50);
                p.p99_ms = p.p99_ms.min(p99);
            }
            None => best.push(Prior {
                scenario,
                p50_ms: p50,
                p99_ms: p99,
            }),
        }
    }
    best
}

fn entry_json(e: &ScenarioResult) -> String {
    let design = match e.design {
        Some((d, n)) => format!("\"design\": \"{d}\", \"n\": {n}, "),
        None => String::new(),
    };
    format!(
        "      {{\"scenario\": \"{}\", {design}\"clients\": {}, \"requests\": {}, \
         \"peak_in_flight\": {}, \"mismatches\": {}, \"p50_ms\": {:.3}, \
         \"p99_ms\": {:.3}, \"req_per_s\": {:.1}}}",
        e.scenario,
        e.clients,
        e.requests,
        e.peak_in_flight,
        e.mismatches,
        e.p50_ms,
        e.p99_ms,
        e.req_per_s
    )
}

fn snapshot_json(label: &str, entries: &[ScenarioResult]) -> String {
    let mut snapshot = format!("    {{\"label\": \"{label}\", \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        snapshot.push_str(&entry_json(e));
        snapshot.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    snapshot.push_str("    ]}");
    snapshot
}

fn write_bench(cfg: &Config, entries: &[ScenarioResult]) {
    let path = std::path::Path::new(&cfg.out);
    let old = std::fs::read_to_string(path).unwrap_or_default();

    // Regression gate: latency percentiles vs the best prior snapshot.
    // The saturation slack is large — its latencies are queueing time by
    // design and scale with --clients.
    let mut violations = Vec::new();
    for e in entries {
        let Some(p) = prior_best(&old)
            .into_iter()
            .find(|p| p.scenario == e.scenario)
        else {
            continue;
        };
        let slack_ms = if e.scenario == "saturation" {
            250.0
        } else {
            5.0
        };
        let mut check = |what: &str, new: f64, best: f64| {
            let limit = best * (1.0 + cfg.gate_pct / 100.0) + slack_ms;
            if new > limit {
                violations.push(format!(
                    "{} {what}: {new:.3} ms vs best prior {best:.3} ms \
                     (limit {limit:.3} ms at {}% + {slack_ms} ms slack)",
                    e.scenario, cfg.gate_pct
                ));
            }
        };
        check("p50", e.p50_ms, p.p50_ms);
        check("p99", e.p99_ms, p.p99_ms);
    }
    if !violations.is_empty() {
        eprintln!("REGRESSION GATE FAILED — nothing written:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }

    let snapshot = snapshot_json(&cfg.label, entries);
    let json = if old.contains("\"snapshots\"") {
        let cut = old.rfind("\n  ]\n}").expect("well-formed snapshot file");
        format!("{},\n{snapshot}\n  ]\n}}\n", &old[..cut])
    } else {
        format!("{{\n  \"suite\": \"service\",\n  \"snapshots\": [\n{snapshot}\n  ]\n}}\n")
    };
    std::fs::write(path, json).expect("write BENCH_service.json");
    println!("wrote {} (snapshot \"{}\")", path.display(), cfg.label);
}

fn main() {
    let cfg = parse_args();

    // The server under test: in-process, real sockets. A queue deeper
    // than the client count keeps backpressure out of the saturation
    // measurement (the 429 path has its own tests).
    let service = Service::new(ServiceConfig {
        queue_cap: cfg.clients + 64,
        max_deadline_ms: 120_000,
        ..ServiceConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = http::serve(Arc::clone(&service), listener).expect("serve");
    let addr = server.addr;
    println!(
        "serving on {addr} ({} workers, queue {})",
        service.pool.n_workers, service.pool.queue_cap
    );

    let oracle = Arc::new(build_oracle());
    println!(
        "oracle ready: {} (design, seed) configurations",
        oracle.len()
    );

    let warm = warm_latency(addr, &cfg);
    println!(
        "warm-latency: {} requests, p50 {:.3} ms, p99 {:.3} ms, {:.1} req/s, \
         {} mismatches",
        warm.requests, warm.p50_ms, warm.p99_ms, warm.req_per_s, warm.mismatches
    );

    let sat = saturation(&service, addr, &oracle, &cfg);
    println!(
        "saturation: {} clients x {} requests, peak {} in flight, p50 {:.1} ms, \
         p99 {:.1} ms, {:.1} req/s, {} failures",
        sat.clients,
        sat.requests / sat.clients.max(1),
        sat.peak_in_flight,
        sat.p50_ms,
        sat.p99_ms,
        sat.req_per_s,
        sat.mismatches
    );

    // Server-side accounting must agree: nothing rejected (the queue was
    // sized for the load), nothing panicked, caches actually shared.
    let (status, stats) = http_get(addr, "/stats").expect("stats");
    assert_eq!(status, 200, "stats failed: {stats}");
    let doc = json::parse(&stats).expect("stats parses");
    let pool = doc.get("pool").expect("pool stats");
    let num = |k: &str| pool.get(k).and_then(|v| v.as_i64()).unwrap_or(-1);
    assert_eq!(
        num("rejected"),
        0,
        "unexpected 429s under a sized queue: {stats}"
    );
    assert_eq!(num("panics"), 0, "worker panics under load: {stats}");
    let hits = doc
        .get("elab_cache")
        .and_then(|c| c.get("module_hits"))
        .and_then(|v| v.as_i64())
        .unwrap_or(0);
    println!("server stats OK: rejected=0 panics=0 module_hits={hits}");

    // Correctness bars hold in every mode.
    assert_eq!(warm.mismatches, 0, "warm-latency store mismatches");
    assert_eq!(sat.mismatches, 0, "saturation failures (see stderr)");
    assert!(
        sat.peak_in_flight >= cfg.clients as u64,
        "never reached {} concurrent in-flight requests (peak {})",
        cfg.clients,
        sat.peak_in_flight
    );
    assert!(hits > 0, "module cache never shared across requests");

    let entries = [warm, sat];
    if cfg.quick {
        // No wall-clock assertions and no bench write in CI — but a
        // corrupted checked-in bench file must still fail fast.
        let old = std::fs::read_to_string(&cfg.out).unwrap_or_default();
        if !old.is_empty() {
            assert!(
                !prior_best(&old).is_empty(),
                "{} exists but holds no parseable entries",
                cfg.out
            );
            println!("{}: prior snapshots parse OK", cfg.out);
        }
        println!(
            "quick smoke OK: zero mismatches, peak {} in flight",
            entries[1].peak_in_flight
        );
    } else {
        assert!(
            entries[0].p50_ms < 10.0,
            "warm-cache p50 for matmul E.1 n=24 must stay under 10 ms \
             end-to-end (got {:.3} ms)",
            entries[0].p50_ms
        );
        write_bench(&cfg, &entries);
    }

    if let Some(artifact) = &cfg.artifact {
        let doc = format!(
            "{{\n  \"suite\": \"service\",\n  \"snapshots\": [\n{}\n  ]\n}}\n",
            snapshot_json(&cfg.label, &entries)
        );
        std::fs::write(artifact, doc).expect("write artifact");
        println!("wrote {artifact}");
    }

    server.shutdown();
}
