//! `service_open`: the simulation service behind its real HTTP transport
//! on loopback, driven by an open loop. Requests arrive on a seeded
//! Poisson schedule whether or not earlier ones have been answered —
//! independent users on a clock, the service's stated audience — and each
//! is timed from the moment it was due, so a stall is charged to every
//! request that queued behind it.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use systolic_ir::HostStore;
use systolic_service::http::{self, ServerHandle};
use systolic_service::{Service, ServiceConfig};
use systolic_sim::json;

use crate::designs::{read_program, Design};
use crate::measure::{percentile, with_setup, Budget, Op, Outcome, SplitMix64};

/// Arrival rate of the open loop, requests per second: a quarter to a
/// sixth of what two closed-loop clients reach on the seed commit
/// (`service.closed_req_per_s`, 1220–1740). Half of it is out of reach
/// of two sender connections: at 600 the senders are busy half the time
/// and the generator itself runs 5.8 ms late at its 99th percentile,
/// against 2.5 ms at 300. Changing the rate makes a different benchmark.
pub const RATE_PER_S: f64 = 300.0;

/// The latency limit, from due time to last response byte: twice the
/// 99th percentile over the quiet pool on the seed commit (4.9 ms). The
/// issue's 20 ms is five times that percentile; no request path slower
/// by less than that factor would have moved `slo_met_share`.
pub const LIMIT_MS: f64 = 10.0;

/// Sender threads, one connection each at a time: never more than the
/// two cores of the reference box.
pub const SENDERS: usize = 2;

/// Data seeds the repeating part of the mix draws from.
const SEED_POOL: u64 = 8;

/// About 400 ms of schedule: the mix is drawn per request, so a block
/// must be long enough for its median not to depend on the draw.
const BLOCK_OPS: usize = 120;

/// A program the mix can ask for.
struct Target {
    design: Design,
    /// The `"design":…` or `"source":…,"inputs":…` member of the body.
    program_json: String,
}

/// Indices into [`targets`]: four small gallery designs, the large one,
/// and one inline `.sys` source.
const SMALL: u64 = 4;
const LARGE: usize = 4;
const INLINE: usize = 5;

fn targets() -> Vec<Target> {
    let gallery = |label, key: &str, sizes: &[i64]| Target {
        design: Design::gallery(label, key, sizes),
        program_json: format!("\"design\":\"{key}\""),
    };
    let source = read_program("programs/polyprod.sys");
    vec![
        gallery("d1_n16", "D.1", &[16]),
        gallery("d2_n16", "D.2", &[16]),
        gallery("e1_n8", "E.1", &[8]),
        gallery("fir_8_4", "fir", &[8, 4]),
        gallery("e1_n24", "E.1", &[24]),
        Target {
            design: Design::inline("polyprod_src_n16", &source, &[16], &["a", "b"]),
            program_json: format!(
                "\"source\":\"{}\",\"inputs\":[\"a\",\"b\"]",
                json_escape(&source)
            ),
        },
    ]
}

pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 8);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One planned request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Planned {
    /// When the request is due, from the start of the schedule.
    pub due_ns: u64,
    pub target: usize,
    pub data_seed: u64,
    pub verify: bool,
}

/// Draw the schedule from the seed: exponential gaps at [`RATE_PER_S`]
/// and, per request, 50 % a small design on a pooled seed, 20 % E.1
/// n = 24 on a pooled seed, 20 % a small design on a seed used once
/// (a module miss that evicts from the 64-module store), 5 % inline
/// source, 5 % a small design with `verify`.
pub fn schedule(seed: u64, budget: Budget) -> Vec<Planned> {
    let mut rng = SplitMix64::new(seed);
    let pool_base = rng.next_u64() >> 16;
    let unique_base = pool_base + 1_000_000;
    let mut plan = Vec::new();
    let mut due_s = 0.0f64;
    loop {
        match budget {
            Budget::Ops(n) if plan.len() as u64 >= n => break,
            Budget::Seconds(s) if due_s >= s => break,
            _ => {}
        }
        let pooled = |rng: &mut SplitMix64| pool_base + 16 * rng.below(SEED_POOL);
        let small = |rng: &mut SplitMix64| rng.below(SMALL) as usize;
        let draw = rng.below(100);
        let (target, data_seed, verify) = match draw {
            0..=49 => (small(&mut rng), pooled(&mut rng), false),
            50..=69 => (LARGE, pooled(&mut rng), false),
            70..=89 => (small(&mut rng), unique_base + 16 * plan.len() as u64, false),
            90..=94 => (INLINE, pooled(&mut rng), false),
            _ => (small(&mut rng), pooled(&mut rng), true),
        };
        plan.push(Planned {
            due_ns: (due_s * 1e9) as u64,
            target,
            data_seed,
            verify,
        });
        due_s += -rng.unit().ln() / RATE_PER_S;
    }
    plan
}

/// When request `i` of `n` became due, was sent, and was answered, and
/// what came back.
struct Answer {
    sent_ns: u64,
    done_ns: u64,
    status: u16,
    body: String,
}

pub struct ServiceOpen {
    service: Arc<Service>,
    server: Option<ServerHandle>,
    addr: SocketAddr,
    targets: Vec<Target>,
    plan: Vec<Planned>,
    bodies: Vec<String>,
    /// The sequential oracle's store for every `(target, data seed)` the
    /// schedule holds.
    oracles: HashMap<(usize, u64), HostStore>,
}

impl Drop for ServiceOpen {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl ServiceOpen {
    /// Compile the targets, draw the schedule, precompute its oracles,
    /// boot the server, and send every repeating request once so the
    /// plan cache and the module store hold the hot set.
    pub fn setup(seed: u64, budget: Budget) -> ServiceOpen {
        let targets = targets();
        let plan = schedule(seed, budget);
        let bodies: Vec<String> = plan.iter().map(|p| body(&targets, p)).collect();
        let mut oracles = HashMap::new();
        for p in &plan {
            oracles.entry((p.target, p.data_seed)).or_insert_with(|| {
                let d = &targets[p.target].design;
                d.oracle(&d.store(p.data_seed))
            });
        }
        let service = Service::new(ServiceConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let server = http::serve(Arc::clone(&service), listener).expect("start the server");
        let open = ServiceOpen {
            addr: server.addr,
            service,
            server: Some(server),
            targets,
            plan,
            bodies,
            oracles,
        };
        // A request repeats when its (target, seed) occurs twice; each
        // such pair is warmed once, at its first occurrence.
        let key = |p: &Planned| (p.target, p.data_seed);
        let mut uses: HashMap<(usize, u64), usize> = HashMap::new();
        for p in &open.plan {
            *uses.entry(key(p)).or_default() += 1;
        }
        for (p, body) in open.plan.iter().zip(&open.bodies) {
            if uses.remove(&key(p)).is_some_and(|n| n > 1) {
                let (status, response) = post(open.addr, "/v1/run", body).expect("warm-up request");
                assert!(
                    response_ok(status, &response, &open.oracles[&key(p)]),
                    "warm-up of {} failed: HTTP {status}",
                    open.targets[p.target].design.label
                );
            }
        }
        open
    }

    /// Send the schedule open-loop. A sender that is behind sends at
    /// once; nothing waits for an earlier answer.
    fn send_open_loop(&self) -> Vec<Answer> {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let mut answers: Vec<(usize, Answer)> = std::thread::scope(|scope| {
            let senders: Vec<_> = (0..SENDERS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(p) = self.plan.get(i) else { break };
                            let due = Duration::from_nanos(p.due_ns);
                            if let Some(ahead) = due.checked_sub(start.elapsed()) {
                                std::thread::sleep(ahead);
                            }
                            let sent_ns = start.elapsed().as_nanos() as u64;
                            let (status, body) = post(self.addr, "/v1/run", &self.bodies[i])
                                .unwrap_or((0, String::new()));
                            let done_ns = start.elapsed().as_nanos() as u64;
                            mine.push((
                                i,
                                Answer {
                                    sent_ns,
                                    done_ns,
                                    status,
                                    body,
                                },
                            ));
                        }
                        mine
                    })
                })
                .collect();
            senders
                .into_iter()
                .flat_map(|s| s.join().expect("sender thread"))
                .collect()
        });
        answers.sort_by_key(|(i, _)| *i);
        answers.into_iter().map(|(_, a)| a).collect()
    }

    /// Requests per second two closed-loop clients reach on this
    /// schedule's mix over `seconds`: the capacity [`RATE_PER_S`] is set
    /// against.
    pub fn closed_loop_rate(&self, seconds: f64) -> f64 {
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let limit = Duration::from_secs_f64(seconds);
        std::thread::scope(|scope| {
            for _ in 0..SENDERS {
                scope.spawn(|| {
                    while start.elapsed() < limit {
                        let i = next.fetch_add(1, Ordering::Relaxed) % self.bodies.len();
                        let _ = post(self.addr, "/v1/run", &self.bodies[i]);
                    }
                });
            }
        });
        next.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
    }

    /// `GET /stats` as the server reports it.
    fn stats(&self) -> ServerStats {
        let (_, text) = request(self.addr, "/stats", None).unwrap_or((0, String::new()));
        let doc = json::parse(&text).unwrap_or(json::Json::Null);
        let num = |section: &str, key: &str| -> f64 {
            doc.get(section)
                .and_then(|s| s.get(key))
                .and_then(|v| v.as_i64())
                .unwrap_or(0) as f64
        };
        let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
        ServerStats {
            rejected: num("pool", "rejected"),
            timeouts: num("pool", "deadline_expired"),
            plan_hit_ratio: ratio(num("plan_cache", "hits"), num("plan_cache", "misses")),
            module_hit_ratio: ratio(
                num("elab_cache", "module_hits"),
                num("elab_cache", "module_misses"),
            ),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }
}

/// Counters of `GET /stats` after the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    pub rejected: f64,
    pub timeouts: f64,
    pub plan_hit_ratio: f64,
    pub module_hit_ratio: f64,
}

/// What the traced pass reads besides the [`Outcome`].
pub struct Detail {
    pub server: ServerStats,
    /// 99th percentile of how long after its due time a request was sent.
    pub gen_late_p99_ms: f64,
    /// `(due, done)` of every request in nanoseconds, in schedule order.
    pub spans_ns: Vec<(u64, u64)>,
}

fn body(targets: &[Target], p: &Planned) -> String {
    let d = &targets[p.target].design;
    let sizes: Vec<String> = d.sizes.iter().map(i64::to_string).collect();
    format!(
        "{{{},\"sizes\":[{}],\"seed\":{},\"verify\":{}}}",
        targets[p.target].program_json,
        sizes.join(","),
        p.data_seed,
        p.verify
    )
}

/// Whether a response is a 200 whose stores equal the oracle's.
pub fn response_ok(status: u16, body: &str, expected: &HostStore) -> bool {
    if status != 200 {
        return false;
    }
    let Ok(doc) = json::parse(body) else {
        return false;
    };
    let Some(stores) = doc.get("stores") else {
        return false;
    };
    expected.names().all(|name| {
        stores
            .get(name)
            .and_then(|s| s.get("values"))
            .and_then(|v| v.as_arr())
            .is_some_and(|values| {
                let want = expected.get(name).raw();
                values.len() == want.len()
                    && values.iter().zip(want).all(|(v, w)| v.as_i64() == Some(*w))
            })
    })
}

/// Latency is charged from the due time, not from when the sender got
/// round to the request.
pub fn latency_ns(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

impl ServiceOpen {
    /// Send the schedule and judge every answer. Returns the operations
    /// in schedule order, correct responses per second of schedule span,
    /// and what the traced pass reads besides.
    pub fn measure(&self) -> (Vec<Op>, f64, Detail) {
        let answers = self.send_open_loop();
        let server = self.stats();
        let ops: Vec<Op> = self
            .plan
            .iter()
            .zip(&answers)
            .map(|(p, a)| Op {
                ns: latency_ns(p.due_ns, a.done_ns),
                ok: response_ok(a.status, &a.body, &self.oracles[&(p.target, p.data_seed)]),
            })
            .collect();
        let span_s = answers.iter().map(|a| a.done_ns).max().unwrap_or(1) as f64 / 1e9;
        let correct = ops.iter().filter(|o| o.ok).count() as f64;
        let mut late_ms: Vec<f64> = self
            .plan
            .iter()
            .zip(&answers)
            .map(|(p, a)| latency_ns(p.due_ns, a.sent_ns) as f64 / 1e6)
            .collect();
        late_ms.sort_by(f64::total_cmp);
        let detail = Detail {
            server,
            gen_late_p99_ms: percentile(&late_ms, 99.0),
            spans_ns: self
                .plan
                .iter()
                .zip(&answers)
                .map(|(p, a)| (p.due_ns, a.done_ns))
                .collect(),
        };
        (ops, correct / span_s, detail)
    }
}

pub fn run(seed: u64, budget: Budget) -> Outcome {
    let ((ops, span_rate, detail), setup_s) = with_setup(
        budget,
        || ServiceOpen::setup(seed, budget),
        |open| open.measure(),
    );
    Outcome {
        setup_s,
        notes: vec![
            ("rate_offered".into(), RATE_PER_S, "1/s"),
            ("gen_late_p99_ms".into(), detail.gen_late_p99_ms, "ms"),
            ("pool_rejected".into(), detail.server.rejected, "count"),
            ("pool_timeouts".into(), detail.server.timeouts, "count"),
            (
                "module_hit_ratio".into(),
                detail.server.module_hit_ratio,
                "ratio",
            ),
        ],
        ops,
        block_ops: BLOCK_OPS,
        limit_ms: LIMIT_MS,
        span_rate: Some(span_rate),
    }
}

/// One request on its own connection (`Connection: close`); a `GET`
/// when there is no body.
fn request(addr: SocketAddr, path: &str, body: Option<&str>) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let head = match body {
        Some(body) => format!(
            "POST {path} HTTP/1.1\r\nHost: benchmark\r\nConnection: close\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
        None => format!("GET {path} HTTP/1.1\r\nHost: benchmark\r\nConnection: close\r\n\r\n"),
    };
    stream.write_all(head.as_bytes())?;
    read_response(&mut stream)
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    request(addr, path, Some(body))
}

fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, String)> {
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    let malformed = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(malformed)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(malformed)?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_interp::{simulate, ModuleStore, SimSpec};

    fn rendered(design: &Design, store: &HostStore) -> String {
        let run = simulate(
            &ModuleStore::new(),
            &design.plan,
            &design.env,
            store,
            SimSpec::default(),
        )
        .unwrap();
        systolic_service::api::render_stores(design.label, "coop", &run, false)
    }

    #[test]
    fn a_non_200_reply_and_a_corrupted_store_are_failures() {
        let d = Design::gallery("d1_n4", "D.1", &[4]);
        let store = d.store(11);
        let expected = d.oracle(&store);
        let good = rendered(&d, &store);
        assert!(response_ok(200, &good, &expected));
        // The same body under any other status is a failure.
        for status in [0, 400, 429, 500, 504] {
            assert!(!response_ok(status, &good, &expected), "{status}");
        }
        // The answer to other data is not this request's answer.
        assert!(!response_ok(200, &rendered(&d, &d.store(12)), &expected));
        assert!(!response_ok(200, "{\"stores\":{}}", &expected));
        assert!(!response_ok(200, "not json", &expected));
        assert!(!response_ok(
            200,
            "{\"error\":{\"kind\":\"overloaded\"}}",
            &expected
        ));
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        // Due at 10 ms, sent late at 14 ms, answered at 15 ms: the
        // request waited 5 ms, not 1.
        assert_eq!(latency_ns(10_000_000, 15_000_000), 5_000_000);
        // A clock reading before the due time cannot go negative.
        assert_eq!(latency_ns(10, 5), 0);
    }

    #[test]
    fn the_schedule_is_a_function_of_the_seed_and_keeps_its_rate_and_mix() {
        let a = schedule(3, Budget::Ops(4000));
        assert_eq!(a, schedule(3, Budget::Ops(4000)));
        assert_ne!(a, schedule(4, Budget::Ops(4000)));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let rate = a.len() as f64 / (a.last().unwrap().due_ns as f64 / 1e9);
        assert!((rate - RATE_PER_S).abs() < 0.1 * RATE_PER_S, "{rate}");
        let share =
            |f: &dyn Fn(&Planned) -> bool| a.iter().filter(|p| f(p)).count() as f64 / 4000.0;
        assert!((share(&|p| p.target == LARGE) - 0.20).abs() < 0.03);
        assert!((share(&|p| p.target == INLINE) - 0.05).abs() < 0.02);
        assert!((share(&|p| p.verify) - 0.05).abs() < 0.02);
        // Unique seeds occur once; pooled seeds come from a pool of 8.
        let mut seeds: Vec<u64> = a.iter().map(|p| p.data_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        let unique = a.len() as f64 * 0.20;
        assert!((seeds.len() as f64 - SEED_POOL as f64 - unique).abs() < 0.03 * a.len() as f64);
        // A time budget ends the schedule at the budget.
        let timed = schedule(3, Budget::Seconds(2.0));
        assert!(timed.last().unwrap().due_ns < 2_000_000_000);
        assert!((timed.len() as f64 - 2.0 * RATE_PER_S).abs() < 60.0);
    }

    #[test]
    fn inline_source_survives_json_escaping() {
        let src = "program p;\n# \"quoted\"\tand\\slashed\n";
        let doc = json::parse(&format!("{{\"source\":\"{}\"}}", json_escape(src))).unwrap();
        assert_eq!(doc.get("source").and_then(|s| s.as_str()), Some(src));
    }
}
