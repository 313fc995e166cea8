//! `serve_warm` and `serve_churn`: an in-process `ljqo-server` driven over
//! its binary protocol on loopback.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ljqo::bound::bound_report;
use ljqo::{optimize_cached, OptimizerConfig};
use ljqo_cache::{FingerprintConfig, PlanCache, PlanCacheConfig};
use ljqo_catalog::{Query, RelId};
use ljqo_cli::QueryFile;
use ljqo_cost::MemoryCostModel;
use ljqo_json::Value;
use ljqo_server::protocol::{read_frame, write_frame, write_handshake};
use ljqo_server::{FrameType, Server, ServerConfig, ServerHandle, DEFAULT_MAX_FRAME_BYTES};
use ljqo_workload::{generate_job_query, JobShape, JobSpec};

use crate::trace::Tracer;
use crate::util::{derive, geomean, median, mix, percentile};
use crate::{E2e, Metric};

/// Fresh servers set up (and timed) per run; the median is reported.
/// A churn set-up (bind until one cold answer) takes milliseconds, so it
/// repeats more often.
const SETUP_REPS: usize = 15;
const CHURN_SETUP_REPS: usize = 45;
/// serve_warm: query classes, joins per class, client connections.
const WARM_CLASSES: usize = 16;
const WARM_JOINS: usize = 12;
const WARM_CONNS: usize = 2;
/// serve_churn: pool size, plan-cache entries, offered rate, Zipf
/// exponent, and one duplicate pair every `CHURN_DUP_EVERY` send slots.
const CHURN_POOL: usize = 384;
const CHURN_CACHE: usize = 64;
const CHURN_RATE: f64 = 150.0;
const CHURN_ZIPF_S: f64 = 1.0;
const CHURN_DUP_EVERY: usize = 8;

/// A running in-process server.
struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<Value>,
}

impl Running {
    fn start(config: ServerConfig) -> io::Result<Running> {
        let server = Server::bind(config)?;
        let addr = server.local_addr()?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Running {
            addr,
            handle,
            thread,
        })
    }

    /// Drain and wait for the server thread; returns the final stats.
    fn stop(self) -> Value {
        self.handle.shutdown();
        self.thread.join().expect("server thread panicked")
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    // A stalled server fails the run instead of hanging it.
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    write_handshake(&mut s)?;
    Ok(s)
}

/// One pre-encoded `Optimize` payload.
fn payload(id: u64, query_json: &str) -> Vec<u8> {
    format!("{{\"id\":{id},\"query\":{query_json}}}").into_bytes()
}

/// Read one `Response` frame's payload, unparsed: measured loops parse
/// after their window so the client spends no CPU on it meanwhile.
fn recv_raw(s: &mut TcpStream) -> io::Result<Vec<u8>> {
    let frame = read_frame(s, DEFAULT_MAX_FRAME_BYTES)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
    if frame.kind != FrameType::Response {
        return Err(io::Error::other(format!(
            "unexpected {:?} frame",
            frame.kind
        )));
    }
    Ok(frame.payload)
}

/// Parse a response payload; a malformed one becomes a failed reply.
fn parse(payload: &[u8]) -> Value {
    ljqo_json::parse(&String::from_utf8_lossy(payload)).unwrap_or_else(|e| {
        Value::Object(vec![("error".to_string(), Value::from(format!("{e:?}")))])
    })
}

fn call(s: &mut TcpStream, id: u64, query_json: &str) -> io::Result<Value> {
    write_frame(s, FrameType::Optimize, &payload(id, query_json))?;
    recv_raw(s).map(|p| parse(&p))
}

/// Serving figures come from the best of equal time windows of about
/// `WINDOW_S` seconds (by send time), as solves are timed by their
/// minimum over passes: a host stall or slow phase shorter than the run
/// leaves them alone. Two seconds hold about 340 churn requests, so even
/// a window's p95 has more than ten samples beyond it.
const WINDOW_S: f64 = 2.0;

/// Best window's p50, p95 and p99 latency (each the lowest over windows)
/// and request rate (the highest), from (send time since start in s,
/// latency) samples spanning `span` seconds.
fn best_window(samples: &[(f64, f64)], span: f64) -> [f64; 4] {
    let count = ((span / WINDOW_S).round() as usize).max(1);
    let width = span / count as f64;
    let mut windows = vec![Vec::new(); count];
    for &(t, latency) in samples {
        windows[((t / width) as usize).min(count - 1)].push(latency);
    }
    windows.retain(|w| !w.is_empty());
    let lowest = |p: f64| {
        windows
            .iter()
            .map(|w| percentile(w, p))
            .fold(f64::INFINITY, f64::min)
    };
    let rate = windows
        .iter()
        .map(|w| w.len() as f64 / width)
        .fold(0.0, f64::max);
    [lowest(50.0), lowest(95.0), lowest(99.0), rate]
}

fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

fn stat(v: &Value, path: &[&str]) -> f64 {
    field(v, path).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// Generated queries with their wire text and relation-name index.
struct Pool {
    queries: Vec<Query>,
    texts: Vec<String>,
    names: Vec<HashMap<String, RelId>>,
}

impl Pool {
    fn new(queries: Vec<Query>) -> Pool {
        let texts = queries
            .iter()
            .map(|q| QueryFile::from_query(q).to_json().to_string_compact())
            .collect();
        let names = queries.iter().map(crate::check::name_index).collect();
        Pool {
            queries,
            texts,
            names,
        }
    }

    fn check(&self, k: usize, reply: &Value) -> Result<f64, String> {
        let model = MemoryCostModel::default();
        crate::check::served(&self.queries[k], &self.names[k], &model, reply)
    }
}

/// Per-request serving observations, for the per-layer metrics.
#[derive(Default)]
pub struct Served {
    /// (pool index, outcome, server `latency_us`, client latency in µs).
    pub requests: Vec<(usize, String, f64, f64)>,
    pub stats: Option<Value>,
}

fn warm_pool(seed: u64) -> Pool {
    let spec = JobSpec::new(JobShape::Star);
    Pool::new(
        (0..WARM_CLASSES)
            .map(|k| generate_job_query(&spec, WARM_JOINS, derive(seed, 3 << 40 | k as u64)))
            .collect(),
    )
}

fn churn_pool(seed: u64) -> Pool {
    let shapes = [JobShape::Star, JobShape::Snowflake, JobShape::Cyclic];
    Pool::new(
        (0..CHURN_POOL)
            .map(|k| {
                let h = derive(seed, 4 << 40 | k as u64);
                let joins = 8 + (h % 9) as usize;
                generate_job_query(&JobSpec::new(shapes[k % 3]), joins, mix(h))
            })
            .collect(),
    )
}

/// The queries each serve workload's traced run drills into.
pub fn drill_queries(churn: bool, seed: u64) -> Vec<Query> {
    if churn {
        churn_pool(seed)
            .queries
            .into_iter()
            .step_by(CHURN_POOL / 16)
            .collect()
    } else {
        warm_pool(seed).queries
    }
}

/// The optimizer configuration the default server solves under.
pub fn server_opt_config() -> OptimizerConfig {
    let c = ServerConfig::default();
    OptimizerConfig::new(c.method)
        .with_time_limit(c.tau)
        .with_kappa(c.kappa)
        .with_seed(c.seed)
}

fn local_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServerConfig::default()
    }
}

/// Bind a fresh server and answer every class once, in order. Returns
/// the server, one connection, and the warm-up replies.
fn warm_setup(pool: &Pool) -> io::Result<(Running, TcpStream, Vec<Value>)> {
    let server = Running::start(local_config())?;
    let answered = connect(server.addr).and_then(|mut conn| {
        let mut replies = Vec::with_capacity(pool.texts.len());
        for (k, text) in pool.texts.iter().enumerate() {
            replies.push(call(&mut conn, k as u64, text)?);
        }
        Ok((conn, replies))
    });
    match answered {
        Ok((conn, replies)) => Ok((server, conn, replies)),
        Err(e) => {
            server.stop();
            Err(e)
        }
    }
}

pub fn run_warm(seed: u64, seconds: f64, tracer: &mut Tracer, served: &mut Served) -> E2e {
    let mut out = E2e::default();
    let pool = warm_pool(seed);
    let model = MemoryCostModel::default();

    // Set-up: bind until every class is answered, several times.
    let mut setup_s = Vec::new();
    let mut warm_costs: Vec<f64> = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let (server, conn, replies) = match warm_setup(&pool) {
            Ok(x) => x,
            Err(e) => {
                out.fail(format!("warm-up: {e}"));
                return out;
            }
        };
        setup_s.push(t.elapsed().as_secs_f64());
        out.attempted += replies.len() as u64;
        for (k, reply) in replies.iter().enumerate() {
            match pool.check(k, reply) {
                Ok(c) if rep == 0 => warm_costs.push(c),
                Ok(c) if c.to_bits() == warm_costs[k].to_bits() => {}
                Ok(c) => out.fail(format!(
                    "class {k}: warm-up cost {c:e} differs between servers"
                )),
                Err(e) => out.fail(format!("class {k} warm-up: {e}")),
            }
        }
        if rep + 1 < SETUP_REPS {
            drop(conn);
            server.stop();
        } else {
            kept = Some((server, conn));
        }
    }
    let (server, warm_conn) = kept.expect("at least one set-up");
    drop(warm_conn);
    if out.failed > 0 {
        server.stop();
        return out;
    }

    // Closed loop: each connection sends its next request when the last
    // is answered, cycling through the classes.
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let results: Vec<io::Result<Vec<Logged>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WARM_CONNS)
            .map(|c| {
                let pool = &pool;
                let addr = server.addr;
                scope.spawn(move || -> io::Result<Vec<Logged>> {
                    let mut conn = connect(addr)?;
                    let mut log = Vec::new();
                    let mut i = 0usize;
                    while Instant::now() < end {
                        let k = (i * WARM_CONNS + c) % WARM_CLASSES;
                        let id = (c as u64) << 32 | i as u64;
                        let msg = payload(id, &pool.texts[k]);
                        let t = Instant::now();
                        write_frame(&mut conn, FrameType::Optimize, &msg)?;
                        let raw = recv_raw(&mut conn)?;
                        let done = Instant::now();
                        let reply = parse(&raw);
                        log.push(Logged {
                            k,
                            id,
                            sent: t,
                            done,
                            ok: reply.get("ok").and_then(Value::as_bool) == Some(true),
                            outcome: reply
                                .get("outcome")
                                .and_then(Value::as_str)
                                .unwrap_or("")
                                .to_string(),
                            cost: reply.get("cost").and_then(Value::as_f64),
                            latency_us: stat(&reply, &["latency_us"]),
                        });
                        i += 1;
                    }
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    served.stats = Some(server.handle.stats_json());
    server.stop();

    let mut timed = Vec::new();
    let mut last_done = start;
    let mut hits = 0usize;
    for log in results {
        let log = match log {
            Ok(l) => l,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("connection: {e}"));
                continue;
            }
        };
        for r in log {
            out.attempted += 1;
            last_done = last_done.max(r.done);
            let client_us = (r.done - r.sent).as_secs_f64() * 1e6;
            timed.push(((r.sent - start).as_secs_f64(), client_us / 1e3));
            if !r.ok
                || r.outcome != "hit"
                || r.cost.map(f64::to_bits) != Some(warm_costs[r.k].to_bits())
            {
                out.fail(format!(
                    "class {}: expected a hit at the warm-up cost, got ok={} outcome={} cost={:?}",
                    r.k, r.ok, r.outcome, r.cost
                ));
            } else {
                hits += 1;
            }
            served
                .requests
                .push((r.k, r.outcome, r.latency_us, client_us));
            tracer.leaf("server.request", r.id, r.sent, r.done);
        }
    }
    if timed.is_empty() {
        out.fail("no request completed".to_string());
        return out;
    }
    let lat_ms: Vec<f64> = timed.iter().map(|&(_, l)| l).collect();
    let window = (last_done - start).as_secs_f64();
    let ratios: Vec<f64> = pool
        .queries
        .iter()
        .zip(&warm_costs)
        .map(|(q, c)| c / bound_report(q, &model).linear)
        .collect();
    let n = lat_ms.len();
    let [p50, p95, p99, rate] = best_window(&timed, seconds);
    out.metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s", SETUP_REPS),
        Metric::new("qps", rate, "1/s", n),
        Metric::new("lat_p50_ms", p50, "ms", n),
    ];
    out.info = vec![
        Metric::new("cost_ratio", geomean(&ratios), "ratio", ratios.len()),
        Metric::new("lat_p95_ms", p95, "ms", n),
        Metric::new("lat_p99_ms", p99, "ms", n),
        Metric::new("qps.pooled", n as f64 / window, "1/s", n),
        Metric::new("lat_p50_ms.pooled", median(&lat_ms), "ms", n),
        Metric::new("lat_p95_ms.pooled", percentile(&lat_ms, 95.0), "ms", n),
        Metric::new("lat_p99_ms.pooled", percentile(&lat_ms, 99.0), "ms", n),
    ];
    out.primary = median(&lat_ms);
    out.notes.push(format!(
        "{n} requests on {WARM_CONNS} closed-loop connections over {WARM_CLASSES} classes; {hits} hits"
    ));
    out
}

/// One client request's record.
/// One warm request's record: the reply is parsed as it arrives and
/// only these fields are kept, so client memory stays small.
struct Logged {
    k: usize,
    id: u64,
    sent: Instant,
    done: Instant,
    ok: bool,
    outcome: String,
    cost: Option<f64>,
    latency_us: f64,
}

/// The churn schedule: send slot `i` is due `i / CHURN_RATE` seconds in;
/// every `CHURN_DUP_EVERY`-th slot sends its query twice at once.
fn churn_schedule(seed: u64, seconds: f64) -> Vec<(usize, usize)> {
    let n = CHURN_POOL;
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for r in 1..=n {
        acc += 1.0 / (r as f64).powf(CHURN_ZIPF_S);
        cdf.push(acc);
    }
    // Popularity rank → pool index through a seeded permutation, so the
    // hot queries are not always the same shapes.
    let mut perm: Vec<usize> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(derive(seed, 5 << 40));
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let slots = (seconds * CHURN_RATE).round().max(1.0) as usize;
    let mut sends = Vec::new();
    for slot in 0..slots {
        let x = rng.gen::<f64>() * acc;
        let rank = cdf.partition_point(|&c| c < x).min(n - 1);
        sends.push((slot, perm[rank]));
        if slot % CHURN_DUP_EVERY == CHURN_DUP_EVERY - 1 {
            sends.push((slot, perm[rank]));
        }
    }
    sends
}

fn churn_config() -> ServerConfig {
    ServerConfig {
        cache_entries: CHURN_CACHE,
        ..local_config()
    }
}

pub fn run_churn(seed: u64, seconds: f64, tracer: &mut Tracer, served: &mut Served) -> E2e {
    let mut out = E2e::default();
    let pool = churn_pool(seed);
    let sends = churn_schedule(seed, seconds);
    let model = MemoryCostModel::default();

    // Set-up: bind until the first request is answered, several times.
    // Each fresh server answers the next request of the schedule, so the
    // median spans many query sizes and not one seed-chosen query.
    let mut setup_s = Vec::new();
    for rep in 0..CHURN_SETUP_REPS {
        let k = sends[rep % sends.len()].1;
        let t = Instant::now();
        let first = (|| -> io::Result<(Value, Running)> {
            let server = Running::start(churn_config())?;
            let reply = connect(server.addr).and_then(|mut c| call(&mut c, 0, &pool.texts[k]));
            match reply {
                Ok(r) => Ok((r, server)),
                Err(e) => {
                    server.stop();
                    Err(e)
                }
            }
        })();
        match first {
            Ok((reply, server)) => {
                setup_s.push(t.elapsed().as_secs_f64());
                server.stop();
                out.attempted += 1;
                if let Err(e) = pool.check(k, &reply) {
                    out.fail(format!("set-up request: {e}"));
                }
            }
            Err(e) => {
                out.fail(format!("set-up: {e}"));
                return out;
            }
        }
    }

    // Open loop on one pipelined connection: this thread sends on the
    // schedule, a receiver thread collects replies.
    let server = match Running::start(churn_config()) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("bind: {e}"));
            return out;
        }
    };
    let mut send_conn = match connect(server.addr) {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("connect: {e}"));
            server.stop();
            return out;
        }
    };
    let mut recv_conn = send_conn.try_clone().expect("clone socket");
    let total = sends.len();
    let period = Duration::from_secs_f64(1.0 / CHURN_RATE);
    let start = Instant::now() + Duration::from_millis(20);
    let (late, replies) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut got = Vec::with_capacity(total);
            while got.len() < total {
                match recv_raw(&mut recv_conn) {
                    Ok(v) => got.push((Instant::now(), v)),
                    Err(e) => return Err(e),
                }
            }
            Ok(got)
        });
        let mut late_max = Duration::ZERO;
        for (id, &(slot, k)) in sends.iter().enumerate() {
            let msg = payload(id as u64, &pool.texts[k]);
            let due = start + period * slot as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late_max = late_max.max(Instant::now().saturating_duration_since(due));
            if write_frame(&mut send_conn, FrameType::Optimize, &msg).is_err() {
                break;
            }
        }
        (late_max, receiver.join().expect("receiver thread panicked"))
    });
    served.stats = Some(server.handle.stats_json());
    drop(send_conn);
    server.stop();

    let replies = match replies {
        Ok(r) => r,
        Err(e) => {
            out.attempted += total as u64;
            out.failed += total as u64;
            out.fail_msg(format!("receiver: {e}"));
            return out;
        }
    };
    // Match replies to sends by id; check each; pair duplicates.
    let mut by_id: Vec<Option<(Instant, Value)>> = vec![None; total];
    for (at, raw) in replies {
        let v = parse(&raw);
        match v.get("id").and_then(Value::as_u64).map(|i| i as usize) {
            Some(i) if i < total && by_id[i].is_none() => by_id[i] = Some((at, v)),
            _ => out.fail_msg(format!("unexpected reply {v}")),
        }
    }
    let mut timed = Vec::with_capacity(total);
    let mut ratios = Vec::with_capacity(total);
    let mut costs: Vec<Option<f64>> = vec![None; total];
    let bounds: Vec<f64> = pool
        .queries
        .iter()
        .map(|q| bound_report(q, &model).linear)
        .collect();
    let mut last = start;
    for (id, &(slot, k)) in sends.iter().enumerate() {
        out.attempted += 1;
        let Some((at, reply)) = &by_id[id] else {
            out.fail(format!("request {id} got no reply"));
            continue;
        };
        let due = start + period * slot as u32;
        let client_us = at.saturating_duration_since(due).as_secs_f64() * 1e6;
        last = last.max(*at);
        timed.push(((due - start).as_secs_f64(), client_us / 1e3));
        let outcome = reply.get("outcome").and_then(Value::as_str).unwrap_or("");
        served.requests.push((
            k,
            outcome.to_string(),
            stat(reply, &["latency_us"]),
            client_us,
        ));
        tracer.leaf("server.request", id as u64, due, *at);
        match pool.check(k, reply) {
            Ok(c) => {
                costs[id] = Some(c);
                ratios.push(c / bounds[k]);
            }
            Err(e) => out.fail(format!("request {id}: {e}")),
        }
        // The second half of a duplicate pair shares its slot with the
        // request before it.
        if id > 0
            && sends[id - 1].0 == slot
            && costs[id - 1].map(f64::to_bits) != costs[id].map(f64::to_bits)
        {
            out.fail(format!(
                "duplicate pair {} and {id} got different costs",
                id - 1
            ));
        }
    }
    if timed.is_empty() || ratios.is_empty() {
        out.fail("no request completed".to_string());
        return out;
    }
    let lat_ms: Vec<f64> = timed.iter().map(|&(_, l)| l).collect();
    let stats = served.stats.as_ref().expect("stats taken");
    out.notes.push(format!(
        "{total} requests ({} send slots at {CHURN_RATE}/s, duplicate pair every {CHURN_DUP_EVERY}); \
         cold_solves {} cache_hits {} dedup_reuses {} inserts {} evictions {}; gen.late_ms_max {:.3}",
        sends.last().map_or(0, |s| s.0 + 1),
        stat(stats, &["serving", "cold_solves"]),
        stat(stats, &["serving", "cache_hits"]),
        stat(stats, &["serving", "dedup_reuses"]),
        stat(stats, &["cache", "inserts"]),
        stat(stats, &["cache", "evictions"]),
        late.as_secs_f64() * 1e3,
    ));
    out.late_ms_max = Some(late.as_secs_f64() * 1e3);
    let window = (last - start).as_secs_f64();
    let n = lat_ms.len();
    // Each window holds the same number of scheduled sends, so the
    // rate is taken over the whole run: first due send to last reply.
    let [p50, p95, p99, _] = best_window(&timed, seconds);
    out.metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s", CHURN_SETUP_REPS),
        Metric::new("qps", n as f64 / window, "1/s", n),
        Metric::new("lat_p50_ms", p50, "ms", n),
    ];
    out.info = vec![
        Metric::new("cost_ratio", geomean(&ratios), "ratio", ratios.len()),
        Metric::new("lat_p95_ms", p95, "ms", n),
        Metric::new("lat_p99_ms", p99, "ms", n),
        Metric::new("lat_p50_ms.pooled", median(&lat_ms), "ms", n),
        Metric::new("lat_p95_ms.pooled", percentile(&lat_ms, 95.0), "ms", n),
        Metric::new("lat_p99_ms.pooled", percentile(&lat_ms, 99.0), "ms", n),
    ];
    out.primary = median(&lat_ms);
    out
}

/// In-process replay of what the server does per request outside its
/// queue: fingerprint, lookup and recost on a hit, or a cold solve. The
/// median of three replays, in µs, keyed by `(query, hit)`.
fn replay_us(
    queries: &[Query],
    keys: impl Iterator<Item = (usize, bool)>,
    config: &OptimizerConfig,
) -> HashMap<(usize, bool), f64> {
    let model = MemoryCostModel::default();
    let fp = FingerprintConfig::default();
    let mut out = HashMap::new();
    for (k, hit) in keys {
        if out.contains_key(&(k, hit)) {
            continue;
        }
        let mut samples = Vec::new();
        for _ in 0..3 {
            let cache = PlanCache::new(PlanCacheConfig::with_entries(16));
            if hit {
                let _ = optimize_cached(&queries[k], &model, config, &cache, &fp);
            }
            let t = Instant::now();
            let _ = optimize_cached(&queries[k], &model, config, &cache, &fp);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        out.insert((k, hit), median(&samples));
    }
    out
}

/// The serving layer seen from a solve workload: a default server (at
/// `tau`) answers each query twice on one connection, cold then warm.
pub fn drill(queries: &[Query], tau: f64, tracer: &mut Tracer) -> Result<Served, String> {
    let pool = Pool::new(queries.to_vec());
    let server = Running::start(ServerConfig {
        tau,
        ..local_config()
    })
    .map_err(|e| e.to_string())?;
    let mut served = Served::default();
    let result = (|| -> Result<(), String> {
        let mut conn = connect(server.addr).map_err(|e| e.to_string())?;
        for round in 0..2 {
            for (k, text) in pool.texts.iter().enumerate() {
                let id = (round * pool.texts.len() + k) as u64;
                let t = Instant::now();
                let reply = call(&mut conn, id, text).map_err(|e| e.to_string())?;
                let done = Instant::now();
                tracer.leaf("server.request", id, t, done);
                pool.check(k, &reply)?;
                let outcome = reply.get("outcome").and_then(Value::as_str).unwrap_or("");
                served.requests.push((
                    k,
                    outcome.to_string(),
                    stat(&reply, &["latency_us"]),
                    (done - t).as_secs_f64() * 1e6,
                ));
            }
        }
        Ok(())
    })();
    served.stats = Some(server.handle.stats_json());
    server.stop();
    result.map(|()| served)
}

/// Serving-layer metrics from one workload's requests.
pub fn serving_metrics(served: &Served, queries: &[Query], tau: f64) -> Vec<Metric> {
    let stats = served
        .stats
        .as_ref()
        .expect("stats are taken after every serve");
    let config = server_opt_config().with_time_limit(tau);
    let is_hit = |o: &str| o.starts_with("hit");
    let replay = replay_us(
        queries,
        served.requests.iter().map(|(k, o, _, _)| (*k, is_hit(o))),
        &config,
    );
    let n = served.requests.len();
    let server_us: Vec<f64> = served.requests.iter().map(|r| r.2).collect();
    let outside: Vec<f64> = served.requests.iter().map(|r| r.3 - r.2).collect();
    let wait: Vec<f64> = served
        .requests
        .iter()
        .map(|(k, o, s, _)| s - replay[&(*k, is_hit(o))])
        .collect();
    let hits = served.requests.iter().filter(|r| is_hit(&r.1)).count();
    vec![
        Metric::new("server.latency_p50_us", median(&server_us), "us", n),
        Metric::new("server.outside_p50_us", median(&outside), "us", n),
        Metric::new("server.wait_p50_us", median(&wait), "us", n),
        Metric::new(
            "server.batch_mean",
            stat(stats, &["batches", "mean_size"]),
            "count",
            n,
        ),
        Metric::new(
            "core.cold_solves",
            stat(stats, &["serving", "cold_solves"]),
            "count",
            n,
        ),
        Metric::new(
            "core.dedup_reuses",
            stat(stats, &["serving", "dedup_reuses"]),
            "count",
            n,
        ),
        Metric::new("cache.hit_frac", hits as f64 / n.max(1) as f64, "ratio", n),
        Metric::new(
            "cache.inserts",
            stat(stats, &["cache", "inserts"]),
            "count",
            n,
        ),
        Metric::new(
            "cache.evictions",
            stat(stats, &["cache", "evictions"]),
            "count",
            n,
        ),
    ]
}

/// The queries of a serve workload, by pool index.
pub fn pool_queries(churn: bool, seed: u64) -> Vec<Query> {
    if churn {
        churn_pool(seed).queries
    } else {
        warm_pool(seed).queries
    }
}
