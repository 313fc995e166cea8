//! End-to-end integration tests: a real server on an ephemeral port,
//! driven over real sockets.
//!
//! The centerpiece pins the serving layer's core claim: a pipelined
//! batch of *relabeled duplicates* (the same query with its relation
//! listing rotated) dedups to **exactly one** cold solve — asserted on
//! the `/stats` counters, not inferred from timing — and every copy
//! receives a bit-identical cost.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use ljqo_cli::QueryFile;
use ljqo_json::Value;
use ljqo_server::protocol::{read_frame, DEFAULT_MAX_FRAME_BYTES};
use ljqo_server::{fetch_stats_http, Client, FrameType, Server, ServerConfig};
use ljqo_workload::{generate_job_query, JobShape, JobSpec};

fn start(
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    ljqo_server::ServerHandle,
    std::thread::JoinHandle<Value>,
) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("bind on an ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

/// The same query with its relation *listing* rotated by `k`: different
/// relation ids, identical structure and statistics. The fingerprint is
/// relabel-invariant, so the server must treat all rotations as one
/// equivalence class.
fn rotated(base: &QueryFile, k: usize) -> QueryFile {
    let mut q = base.clone();
    let n = q.relations.len();
    q.relations.rotate_left(k % n);
    q
}

fn get<'v>(value: &'v Value, path: &[&str]) -> &'v Value {
    let mut v = value;
    for p in path {
        v = v.get(p).unwrap_or_else(|| panic!("missing key {path:?}"));
    }
    v
}

#[test]
fn relabeled_duplicates_cost_one_cold_solve_and_answer_bit_identically() {
    const COPIES: usize = 6;
    let (addr, handle, join) = start(ServerConfig {
        // A generous linger so the whole pipelined burst lands in one
        // batch (the dedup assertions below hold even if it splits —
        // later copies become cache hits — but one batch is the
        // interesting path).
        batch_linger: Duration::from_millis(300),
        batch_max: COPIES * 2,
        workers: 1,
        ..ServerConfig::default()
    });

    let base = QueryFile::from_query(&generate_job_query(&JobSpec::new(JobShape::Star), 14, 42));
    let mut client = Client::connect(addr).expect("client connects");
    for i in 0..COPIES {
        client
            .send_optimize(i as u64, &rotated(&base, i))
            .expect("pipelined send");
    }
    let mut replies: Vec<Value> = (0..COPIES)
        .map(|_| {
            let (kind, v) = client.recv().expect("response arrives");
            assert_eq!(kind, FrameType::Response);
            v
        })
        .collect();
    replies.sort_by_key(|r| get(r, &["id"]).as_u64().unwrap());

    // Every copy answered OK, bit-identical cost, identical join order
    // (segments are name lists, so relabeling must not leak through).
    let reference_cost = get(&replies[0], &["cost"]).as_f64().unwrap();
    let reference_segments = get(&replies[0], &["segments"]).clone();
    assert!(reference_cost.is_finite() && reference_cost > 0.0);
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(
            get(reply, &["ok"]).as_bool(),
            Some(true),
            "copy {i}: {reply}"
        );
        assert_eq!(get(reply, &["id"]).as_u64(), Some(i as u64));
        let cost = get(reply, &["cost"]).as_f64().unwrap();
        assert_eq!(
            cost.to_bits(),
            reference_cost.to_bits(),
            "copy {i} cost {cost} != reference {reference_cost}"
        );
        assert_eq!(
            get(reply, &["segments"]),
            &reference_segments,
            "copy {i} join order differs"
        );
        assert_eq!(get(reply, &["degradation"]).as_str(), Some("none"));
        assert_eq!(get(reply, &["producer"]).as_str(), Some("IAI"));
    }
    // Exactly one representative paid the cold search.
    let miss_count = replies
        .iter()
        .filter(|r| get(r, &["outcome"]).as_str() == Some("miss"))
        .count();
    let hit_count = replies
        .iter()
        .filter(|r| get(r, &["outcome"]).as_str() == Some("hit"))
        .count();
    assert_eq!(miss_count, 1, "exactly one cold representative");
    assert_eq!(hit_count, COPIES - 1, "all other copies reuse its plan");

    // Counter-assert against /stats: the server-side view must agree.
    let stats = client.stats().expect("stats frame");
    assert_eq!(
        get(&stats, &["serving", "cold_solves"]).as_u64(),
        Some(1),
        "one cold solve across {COPIES} relabeled copies: {stats}"
    );
    assert_eq!(
        get(&stats, &["serving", "queries"]).as_u64(),
        Some(COPIES as u64)
    );
    let dedup = get(&stats, &["serving", "dedup_reuses"]).as_u64().unwrap();
    let cache_hits = get(&stats, &["serving", "cache_hits"]).as_u64().unwrap();
    assert_eq!(dedup + cache_hits, (COPIES - 1) as u64);
    assert_eq!(
        get(&stats, &["requests", "completed"]).as_u64(),
        Some(COPIES as u64)
    );
    assert_eq!(
        get(&stats, &["method_wins", "IAI"]).as_u64(),
        Some(COPIES as u64)
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn warm_cache_serves_across_connections() {
    let (addr, handle, join) = start(ServerConfig::default());
    let query = QueryFile::from_query(&generate_job_query(
        &JobSpec::new(JobShape::Snowflake),
        10,
        7,
    ));

    let first = Client::connect(addr).unwrap().optimize(1, &query).unwrap();
    assert_eq!(get(&first, &["outcome"]).as_str(), Some("miss"));

    // A different connection must see the shared cache.
    let second = Client::connect(addr).unwrap().optimize(2, &query).unwrap();
    assert_eq!(get(&second, &["outcome"]).as_str(), Some("hit"));
    assert_eq!(
        get(&second, &["cost"]).as_f64().unwrap().to_bits(),
        get(&first, &["cost"]).as_f64().unwrap().to_bits(),
        "warm hit is bit-identical to the cold solve"
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn malformed_and_invalid_requests_get_typed_errors() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();

    // Not JSON at all.
    client.send_raw_optimize(b"this is not json").unwrap();
    let (_, reply) = client.recv().unwrap();
    assert_eq!(get(&reply, &["ok"]).as_bool(), Some(false));
    assert_eq!(get(&reply, &["code"]).as_str(), Some("bad_request"));

    // Valid JSON, no query field.
    client.send_raw_optimize(br#"{"id": 3}"#).unwrap();
    let (_, reply) = client.recv().unwrap();
    assert_eq!(get(&reply, &["id"]).as_u64(), Some(3));
    assert_eq!(get(&reply, &["code"]).as_str(), Some("bad_request"));

    // Structurally valid, semantically broken catalog (join references
    // an unknown relation).
    client
        .send_raw_optimize(
            br#"{"id": 4, "query": {
                "relations": [{"name": "a", "cardinality": 10}],
                "joins": [{"left": "a", "right": "ghost", "selectivity": 0.1}]
            }}"#,
        )
        .unwrap();
    let (_, reply) = client.recv().unwrap();
    assert_eq!(get(&reply, &["id"]).as_u64(), Some(4));
    assert_eq!(get(&reply, &["code"]).as_str(), Some("invalid_query"));

    // The connection survived all three rejections.
    let stats = client.stats().unwrap();
    assert_eq!(
        get(&stats, &["requests", "rejected_invalid"]).as_u64(),
        Some(3)
    );
    assert_eq!(get(&stats, &["requests", "admitted"]).as_u64(), Some(0));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn hostile_frames_get_typed_errors_and_leave_the_daemon_up() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();

    // 20 000 open brackets: past the JSON nesting cap, so a parse error
    // (`bad_request`), not a stack overflow that aborts the process.
    let deep = format!(r#"{{"id": 1, "query": {}}}"#, "[".repeat(20_000));
    client.send_raw_optimize(deep.as_bytes()).unwrap();
    let (_, reply) = client.recv().unwrap();
    assert_eq!(get(&reply, &["ok"]).as_bool(), Some(false));
    assert_eq!(get(&reply, &["code"]).as_str(), Some("bad_request"));

    // A 1 MiB string: decoded in linear time, then rejected because a
    // string is not a query.
    let long = "é東x".repeat((1 << 20) / 6);
    let frame = format!(r#"{{"id": 2, "query": "{long}"}}"#);
    let started = std::time::Instant::now();
    client.send_raw_optimize(frame.as_bytes()).unwrap();
    let (_, reply) = client.recv().unwrap();
    let elapsed = started.elapsed();
    assert_eq!(get(&reply, &["id"]).as_u64(), Some(2));
    assert_eq!(get(&reply, &["code"]).as_str(), Some("invalid_query"));
    assert!(
        elapsed < Duration::from_secs(5),
        "1 MiB string took {elapsed:?}"
    );

    // Both counted as invalid; the daemon still reports healthy.
    let stats = client.stats().unwrap();
    assert_eq!(
        get(&stats, &["requests", "rejected_invalid"]).as_u64(),
        Some(2)
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    std::io::Read::read_to_string(&mut stream, &mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("\"ok\": true"), "{response}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn unsupported_version_gets_an_error_frame() {
    let (addr, handle, join) = start(ServerConfig::default());
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"LJQO\x63").unwrap(); // version 99
    let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)
        .unwrap()
        .expect("server answers before closing");
    assert_eq!(frame.kind, FrameType::Error);
    let body = ljqo_json::parse(std::str::from_utf8(&frame.payload).unwrap()).unwrap();
    assert_eq!(get(&body, &["code"]).as_str(), Some("unsupported_version"));
    // And then the server closes.
    assert!(read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)
        .unwrap()
        .is_none());
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn oversized_frames_are_rejected_without_allocation() {
    let (addr, handle, join) = start(ServerConfig {
        max_frame_bytes: 1024,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"LJQO\x01").unwrap();
    // Header declaring a 256 MiB payload; no payload follows.
    let mut header = vec![0x01u8];
    header.extend_from_slice(&(256u32 << 20).to_be_bytes());
    stream.write_all(&header).unwrap();
    let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES)
        .unwrap()
        .expect("error frame before close");
    assert_eq!(frame.kind, FrameType::Error);
    let body = ljqo_json::parse(std::str::from_utf8(&frame.payload).unwrap()).unwrap();
    assert_eq!(get(&body, &["code"]).as_str(), Some("frame_too_large"));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn http_routes_serve_stats_health_and_404() {
    let (addr, handle, join) = start(ServerConfig::default());

    let stats = fetch_stats_http(addr).expect("GET /stats");
    assert!(stats.get("server").is_some());
    assert_eq!(
        get(&stats, &["server", "name"]).as_str(),
        Some("ljqo-server")
    );

    // /healthz
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    use std::io::Read;
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("\"ok\": true"));

    // Unknown path.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn drain_answers_every_admitted_request_and_rejects_new_ones() {
    const BURST: usize = 8;
    let (addr, handle, join) = start(ServerConfig {
        // Slow the batch assembly down so requests are still queued or
        // in flight when the drain starts.
        batch_linger: Duration::from_millis(150),
        batch_max: 2,
        workers: 1,
        ..ServerConfig::default()
    });

    let mut client = Client::connect(addr).unwrap();
    let queries: Vec<QueryFile> = (0..BURST)
        .map(|i| {
            QueryFile::from_query(&generate_job_query(
                &JobSpec::new(JobShape::Cyclic),
                12,
                1000 + i as u64,
            ))
        })
        .collect();
    for (i, q) in queries.iter().enumerate() {
        client.send_optimize(i as u64, q).unwrap();
    }
    // A Stats frame is processed by the same reader *after* all the
    // Optimize frames, so once its reply arrives every request above
    // has been admitted. Responses may interleave before it.
    client
        .send_frame(FrameType::Stats, b"")
        .expect("stats frame");
    let mut answered = Vec::new();
    loop {
        let (kind, value) = client.recv().unwrap();
        match kind {
            FrameType::StatsResponse => {
                assert_eq!(
                    get(&value, &["requests", "admitted"]).as_u64(),
                    Some(BURST as u64),
                    "all requests admitted before the drain begins"
                );
                break;
            }
            FrameType::Response => answered.push(value),
            other => panic!("unexpected frame {other:?}"),
        }
    }

    // Drain with work still queued.
    handle.shutdown();

    // Every admitted request is still answered, with a real plan.
    while answered.len() < BURST {
        let (kind, value) = client.recv().unwrap();
        assert_eq!(kind, FrameType::Response);
        answered.push(value);
    }
    for reply in &answered {
        assert_eq!(get(reply, &["ok"]).as_bool(), Some(true), "{reply}");
    }

    // A request sent during the drain is rejected with code "draining"
    // (if the reader answers before sockets close) or the connection is
    // simply gone — never silently dropped with the connection alive.
    let late = client.send_optimize(999, &queries[0]);
    if late.is_ok() {
        match client.recv() {
            Ok((FrameType::Response, reply)) => {
                assert_eq!(get(&reply, &["ok"]).as_bool(), Some(false));
                assert_eq!(get(&reply, &["code"]).as_str(), Some("draining"));
            }
            Ok((other, _)) => panic!("unexpected frame {other:?}"),
            Err(_) => {} // server already closed the socket
        }
    }

    let final_stats = join.join().unwrap();
    assert_eq!(
        get(&final_stats, &["requests", "completed"]).as_u64(),
        Some(BURST as u64)
    );
    assert_eq!(
        get(&final_stats, &["requests", "in_flight"]).as_u64(),
        Some(0)
    );
    assert_eq!(get(&final_stats, &["requests", "queued"]).as_u64(), Some(0));
    assert_eq!(
        get(&final_stats, &["server", "draining"]).as_bool(),
        Some(true)
    );
}

#[test]
fn router_shares_leave_uniform_under_a_skewed_workload_and_persist() {
    // A UCB-routed server fed a workload skewed to one query class must
    // (a) report learned statistics in the /stats `router` block, (b)
    // move that class's budget shares away from the uniform 1/4 split
    // while honoring the ε floor, and (c) persist the learned state on
    // drain so the next process starts warm.
    let state_path = std::env::temp_dir().join(format!(
        "ljqo_router_e2e_{}_{:x}.state",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let config = ServerConfig {
        router: "ucb".to_string(),
        router_state: Some(state_path.to_string_lossy().into_owned()),
        tau: 3.0,
        ..ServerConfig::default()
    };
    let (addr, handle, join) = start(config.clone());

    // 16 star queries with distinct statistics: every one is a cold
    // solve (distinct fingerprints), all in the same router class.
    let mut client = Client::connect(addr).unwrap();
    for i in 0..16u64 {
        let q = QueryFile::from_query(&generate_job_query(
            &JobSpec::new(JobShape::Star),
            12,
            500 + i,
        ));
        let reply = client.optimize(i, &q).unwrap();
        assert_eq!(get(&reply, &["ok"]).as_bool(), Some(true), "{reply}");
    }

    let stats = client.stats().unwrap();
    assert_eq!(get(&stats, &["router", "enabled"]).as_bool(), Some(true));
    assert_eq!(get(&stats, &["router", "mode"]).as_str(), Some("ucb"));
    let epsilon = get(&stats, &["router", "epsilon"]).as_f64().unwrap();
    assert!(epsilon > 0.0 && epsilon <= 0.25);
    let arms = get(&stats, &["router", "arms"]).as_array().unwrap();
    assert_eq!(arms.len(), 4, "one arm per portfolio method");
    let classes = get(&stats, &["router", "classes"]).as_array().unwrap();
    let learned = classes
        .iter()
        .find(|c| get(c, &["events"]).as_u64().unwrap() >= 8)
        .expect("the skewed class accumulated enough events to learn");
    assert!(get(learned, &["class"])
        .as_str()
        .unwrap()
        .starts_with("star/"));
    let shares: Vec<f64> = get(learned, &["shares"])
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s.as_f64().unwrap())
        .collect();
    assert_eq!(shares.len(), 4);
    assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    let max = shares.iter().cloned().fold(f64::MIN, f64::max);
    let min = shares.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max > 0.25 + 1e-9,
        "shares stayed uniform after warm-up: {shares:?}"
    );
    assert!(
        min >= epsilon - 1e-9,
        "ε floor violated: {shares:?} vs ε = {epsilon}"
    );
    // The per-class win table covers the same class.
    let by_class = get(&stats, &["method_wins_by_class"]).as_array().unwrap();
    assert!(by_class
        .iter()
        .any(|c| get(c, &["class"]).as_str().unwrap().starts_with("star/")));

    handle.shutdown();
    join.join().unwrap();

    // Drain persisted the state; a fresh server loads it warm with no
    // reset counted.
    let text = std::fs::read_to_string(&state_path).expect("router state saved on drain");
    assert!(text.starts_with("ljqo-router v1"), "{text}");
    let (addr2, handle2, join2) = start(config);
    let stats2 = fetch_stats_http(addr2).unwrap();
    assert_eq!(get(&stats2, &["router", "resets"]).as_u64(), Some(0));
    let classes2 = get(&stats2, &["router", "classes"]).as_array().unwrap();
    assert!(
        classes2
            .iter()
            .any(|c| get(c, &["events"]).as_u64().unwrap() >= 8),
        "learned class survives the restart: {stats2}"
    );
    handle2.shutdown();
    join2.join().unwrap();
    std::fs::remove_file(&state_path).ok();
}

/// Shorthand for injecting raw (possibly malformed) `Optimize` payloads.
trait RawClient {
    fn send_raw_optimize(&mut self, payload: &[u8]) -> std::io::Result<()>;
}

impl RawClient for Client {
    fn send_raw_optimize(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.send_frame(FrameType::Optimize, payload)
    }
}
