//! Serving-layer load driver: old single-mutex design vs the pipelined
//! epoch-publishing server, measured over real TCP.
//!
//! Two servers answer the same corpus on ephemeral ports:
//!
//! * **mutex** — the pre-pipeline architecture, rebuilt here as the
//!   baseline: every `/topk` locks a `Mutex<OnlineAdaLsh>` and re-runs
//!   the query; every `/ingest` applies its batch under the same lock.
//! * **pipeline** — the real [`adalsh_serve::Server`]: reads clone the
//!   epoch-published snapshot, writes enqueue and a resolver thread
//!   drains adaptively.
//!
//! For each server the driver measures read QPS and latency percentiles
//! at 1/4/16 concurrent clients, plus applied ingest throughput at one
//! client (post a fixed batch series, then wait until every record is
//! visible). Results land in `BENCH_serve.json` with the standard
//! `_meta` git_rev provenance.
//!
//! ```sh
//! cargo run --release -p adalsh-bench --bin bench_serve
//! cargo run --release -p adalsh-bench --bin bench_serve -- --smoke
//! ```
//!
//! `--smoke` runs shorter bursts, skips writing the baseline, and exits
//! nonzero if the pipelined server's 16-client read QPS drops below its
//! 1-client QPS (the scaling property CI gates on).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adalsh_bench::recorder::provenance_fields;
use adalsh_core::{AdaLshConfig, OnlineAdaLsh};
use adalsh_data::{FieldDistance, MatchRule, Record};
use adalsh_datagen::spotsigs::{self, SpotSigsConfig};
use adalsh_serve::http::{read_request, write_response, Request, Response};
use adalsh_serve::{PipelineConfig, Server, ServerConfig, Service};
use serde::{Deserialize, Serialize, Value};

const K: usize = 10;
const WORKERS: usize = 16;

fn rule() -> MatchRule {
    MatchRule::threshold(0, FieldDistance::Jaccard, 0.6)
}

fn resolver(records: usize, entities: usize) -> OnlineAdaLsh {
    let dataset = spotsigs::generate(&SpotSigsConfig {
        num_records: records,
        num_entities: entities,
        seed: 42,
        ..SpotSigsConfig::default()
    });
    OnlineAdaLsh::new(&dataset, AdaLshConfig::new(rule())).expect("design")
}

/// The old architecture, kept alive as the measurement baseline: one
/// mutex in front of the engine, every request takes it. Workers share
/// the listener directly (`accept` is thread-safe); the server lives
/// until process exit — a bench run needs no graceful shutdown.
fn start_mutex_baseline(resolver: OnlineAdaLsh) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind baseline");
    let addr = listener.local_addr().expect("local addr");
    let shared = Arc::new(Mutex::new(resolver));
    let listener = Arc::new(listener);
    for _ in 0..WORKERS {
        let listener = Arc::clone(&listener);
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || loop {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let response = match read_request(&mut stream, 8 * 1024 * 1024) {
                Ok(request) => handle_mutex(&shared, &request),
                Err(_) => Response::error(400, "bad request"),
            };
            let _ = write_response(&mut stream, &response);
        });
    }
    addr
}

fn handle_mutex(shared: &Mutex<OnlineAdaLsh>, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/topk") => {
            let k: usize = request
                .query_param("k")
                .and_then(|raw| raw.parse().ok())
                .unwrap_or(K);
            let output = {
                let mut resolver = shared.lock().expect("baseline lock");
                resolver.query(k)
            };
            let clusters = Value::Map(vec![("clusters".to_string(), output.clusters.to_value())]);
            Response::json(200, serde_json::to_string(&clusters).expect("serialize"))
        }
        ("POST", "/ingest") => {
            let parsed: Value = match request
                .body_utf8()
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
            {
                Ok(v) => v,
                Err(e) => return Response::error(400, &e),
            };
            let records = match parsed
                .get("records")
                .ok_or_else(|| "missing records".to_string())
                .and_then(|v| Vec::<Record>::from_value(v).map_err(|e| e.to_string()))
            {
                Ok(r) => r,
                Err(e) => return Response::error(400, &e),
            };
            let applied = {
                let mut resolver = shared.lock().expect("baseline lock");
                resolver.extend(records)
            };
            match applied {
                Ok(ids) => Response::json(200, format!("{{\"count\":{}}}", ids.len())),
                Err(e) => Response::error(400, &e),
            }
        }
        _ => Response::error(404, "no route"),
    }
}

/// One raw HTTP exchange; panics on a non-200 so an overloaded or
/// misrouted bench run fails loudly instead of recording garbage.
fn exchange(addr: SocketAddr, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("recv");
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "expected 200, got: {}",
        response.lines().next().unwrap_or("<empty>")
    );
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default()
}

fn get_topk(addr: SocketAddr) -> String {
    exchange(
        addr,
        &format!("GET /topk?k={K} HTTP/1.1\r\nHost: b\r\n\r\n"),
    )
}

/// Read load at `clients` concurrent connections for `duration`.
/// Returns `(qps, p50_seconds, p99_seconds)`.
fn read_load(addr: SocketAddr, clients: usize, duration: Duration) -> (f64, f64, f64) {
    let stop_at = Instant::now() + duration;
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut latencies = Vec::new();
                while Instant::now() < stop_at {
                    let t = Instant::now();
                    let _ = get_topk(addr);
                    latencies.push(t.elapsed().as_secs_f64());
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client panicked"))
        .collect();
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    assert!(!latencies.is_empty(), "no requests completed");
    let qps = latencies.len() as f64 / wall;
    let p50 = latencies[latencies.len() / 2];
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    (qps, p50, p99)
}

/// Posts `batches` ingest batches of `per_batch` fresh records from one
/// client, then waits until all of them are *visible* on `/topk`.
/// Visibility costs both architectures their deferred work — the mutex
/// engine hashes lazily, so its final query pays all the resolution the
/// POSTs skipped; the pipelined server acknowledges before applying, so
/// it waits on the `min_records` barrier. Returns
/// `(accepted_records_per_sec, visible_records_per_sec)`.
fn ingest_load(
    addr: SocketAddr,
    batches: usize,
    per_batch: usize,
    base_records: usize,
    entities: usize,
    pipelined: bool,
) -> (f64, f64) {
    let started = Instant::now();
    for b in 0..batches {
        let records: Vec<Record> = (0..per_batch)
            .map(|r| {
                let i = base_records + b * per_batch + r;
                spotsigs_like_record(i, entities)
            })
            .collect();
        let value = Value::Map(vec![("records".to_string(), records.to_value())]);
        let body = serde_json::to_string(&value).expect("serialize batch");
        let _ = exchange(
            addr,
            &format!(
                "POST /ingest HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
    }
    let total = (batches * per_batch) as f64;
    let accepted = total / started.elapsed().as_secs_f64();
    if pipelined {
        let all = base_records + batches * per_batch;
        let _ = exchange(
            addr,
            &format!("GET /topk?k={K}&min_records={all} HTTP/1.1\r\nHost: b\r\n\r\n"),
        );
    } else {
        let _ = get_topk(addr);
    }
    let visible = total / started.elapsed().as_secs_f64();
    (accepted, visible)
}

/// A fresh shingle record loosely matching the spotsigs shape: a core
/// of entity shingles plus a couple of noise shingles, so ingested
/// records cluster with existing entities instead of exploding one
/// pairwise cluster.
fn spotsigs_like_record(i: usize, entities: usize) -> Record {
    let entity = (i % entities) as u64;
    let mut shingles: Vec<u64> = (0..12).map(|s| entity * 10_000 + s).collect();
    shingles.push(entity * 10_000 + 100 + (i as u64 % 7));
    shingles.push(entity * 10_000 + 200 + (i as u64 % 5));
    Record::single(adalsh_data::FieldValue::Shingles(
        adalsh_data::ShingleSet::new(shingles),
    ))
}

fn fmt_tier(label: &str, qps: f64, p50: f64, p99: f64) {
    println!(
        "  {label:<4} {qps:>9.0} req/s   p50 {:>8.1}us   p99 {:>8.1}us",
        p50 * 1e6,
        p99 * 1e6
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (records, entities) = if smoke { (200, 30) } else { (500, 60) };
    let duration = if smoke {
        Duration::from_millis(250)
    } else {
        Duration::from_secs(2)
    };
    let (batches, per_batch) = if smoke { (20, 5) } else { (100, 5) };
    let tiers = [1usize, 4, 16];

    // ---- mutex baseline -------------------------------------------------
    let mutex_addr = start_mutex_baseline(resolver(records, entities));
    let _ = get_topk(mutex_addr); // warm: first query pays the hashing
    let mut mutex_read = Vec::new();
    println!("mutex baseline ({records} records):");
    for &clients in &tiers {
        let (qps, p50, p99) = read_load(mutex_addr, clients, duration);
        fmt_tier(&format!("c{clients}"), qps, p50, p99);
        mutex_read.push((clients, qps, p50, p99));
    }
    let (mutex_accept, mutex_visible) =
        ingest_load(mutex_addr, batches, per_batch, records, entities, false);
    println!("  ingest(1 client) accepted {mutex_accept:>9.0} rec/s   visible {mutex_visible:>9.0} rec/s");

    // ---- pipelined server ----------------------------------------------
    let service = Arc::new(Service::with_config(
        resolver(records, entities),
        rule(),
        None,
        PipelineConfig {
            queue_cap: 256,
            ..PipelineConfig::default()
        },
    ));
    let server = Server::start(
        service,
        "127.0.0.1:0",
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    )
    .expect("start pipelined server");
    let pipeline_addr = server.local_addr();
    let _ = get_topk(pipeline_addr);
    let mut pipeline_read = Vec::new();
    println!("pipelined ({records} records):");
    for &clients in &tiers {
        let (qps, p50, p99) = read_load(pipeline_addr, clients, duration);
        fmt_tier(&format!("c{clients}"), qps, p50, p99);
        pipeline_read.push((clients, qps, p50, p99));
    }
    let (pipeline_accept, pipeline_visible) =
        ingest_load(pipeline_addr, batches, per_batch, records, entities, true);
    println!("  ingest(1 client) accepted {pipeline_accept:>9.0} rec/s   visible {pipeline_visible:>9.0} rec/s");

    let speedup_c16 = pipeline_read[2].1 / mutex_read[2].1;
    println!("read speedup at 16 clients: {speedup_c16:.1}x");

    if smoke {
        // Gate: concurrency must not collapse the read path.
        // On a single-core box QPS saturates at one client already, so
        // c16 == c1 up to scheduler noise; a lock convoy would tank it
        // far below. 0.8x separates noise from collapse.
        let (c1, c16) = (pipeline_read[0].1, pipeline_read[2].1);
        if c16 < 0.8 * c1 {
            eprintln!(
                "FAIL: pipelined 16-client QPS {c16:.0} < 0.8x 1-client QPS {c1:.0} — \
                 the read path must not collapse under concurrency"
            );
            std::process::exit(1);
        }
        println!(
            "smoke mode: baseline not written (16c/1c = {:.2}x)",
            c16 / c1
        );
        server.shutdown();
        return;
    }

    let tier_json = |read: &[(usize, f64, f64, f64)]| {
        read.iter()
            .map(|(c, qps, p50, p99)| {
                format!(
                    "\"c{c}\": {{ \"qps\": {qps:.1}, \"p50_seconds\": {p50:.6}, \
                     \"p99_seconds\": {p99:.6} }}"
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let json = format!(
        "{{\n  \"_meta\": {{ \"records\": {records}, \"entities\": {entities}, \"k\": {K}, \
         \"workers\": {WORKERS}, \"duration_secs\": {:.2}, \
         \"unit\": \"read QPS + latency seconds per client tier; applied ingest records/s\", {} }},\n  \
         \"mutex\": {{ \"read\": {{ {} }}, \"ingest_c1\": {{ \"accepted_records_per_sec\": \
         {mutex_accept:.1}, \"visible_records_per_sec\": {mutex_visible:.1} }} }},\n  \
         \"pipeline\": {{ \"read\": {{ {} }}, \"ingest_c1\": {{ \"accepted_records_per_sec\": \
         {pipeline_accept:.1}, \"visible_records_per_sec\": {pipeline_visible:.1} }} }},\n  \
         \"read_speedup_c16\": {speedup_c16:.2}\n}}\n",
        duration.as_secs_f64(),
        provenance_fields(),
        tier_json(&mutex_read),
        tier_json(&pipeline_read),
    );
    let path = "BENCH_serve.json";
    std::fs::write(path, &json).expect("write baseline");
    println!("wrote {path}");
    server.shutdown();
}
