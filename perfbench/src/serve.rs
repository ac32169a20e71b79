//! The `serve_mixed` workload: a `Server` bootstrapped with 1,000
//! SpotSigs-like records takes open-loop ingest of 2-record batches at
//! 4 batches/s beside open-loop `GET /topk?k=10` reads at 500/s, over
//! real TCP; a closed-loop read-only phase with two clients follows.
//!
//! Every epoch re-resolves the whole corpus. At a 2,000-record
//! bootstrap a pass took 120–180 ms of each 250 ms batch interval on a
//! 2-vCPU machine, and queueing near that load turned a few percent of
//! hypervisor steal into ±30% on `ingest_visible_*` between runs. At
//! 1,000 records a pass takes ~50 ms.
//!
//! The corpus is one fixed generation; `--seed` shuffles it, and the
//! first 1,000 records of the shuffle bootstrap the server while the
//! rest are ingested in order, so the batches join existing clusters.
//! The generator's own seed stays fixed because the resolve work of its
//! corpora differs by up to 1.8x between seeds (hash evaluations and
//! pair comparisons), which would swamp a run-to-run comparison; the
//! shuffle changes the bootstrap, the ids and the ingest order but not
//! the final corpus.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adalsh_core::metrics::set_metrics;
use adalsh_core::{AdaLsh, AdaLshConfig, FilterOutput, OnlineAdaLsh, Stats, TraceSink};
use adalsh_data::{Dataset, MatchRule};
use adalsh_datagen::spotsigs::{self, SpotSigsConfig};
use adalsh_obs::{MemorySubscriber, OwnedEvent};
use adalsh_serve::{PipelineConfig, Server, ServerConfig, Service};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};

use crate::layers::{self, EngineTrace, StoreLayer};
use crate::load::{closed_loop, open_loop, Timing};
use crate::report::{mean, median, peak_rss_mib, quantile, Report};
use crate::{output_digest, Args, CLIENTS, K, MAX_GEN_LAG_S};

const BOOT_RECORDS: usize = 1_000;
const ENTITIES: usize = 200;
/// Jaccard similarity threshold of the rule (distance 0.6).
const SIMILARITY: f64 = 0.4;
const BATCH_RECORDS: usize = 2;
const INGEST_HZ: f64 = 4.0;
const READ_HZ: f64 = 500.0;
const CLOSED_S: f64 = 3.0;
/// Boots per run; `setup_s` is their median.
const BOOTS: usize = 5;
/// Check resolves per run; `filter_s` is their median.
const CHECK_RESOLVES: usize = 15;
/// Longest the reads keep going after the last batch for it to show.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Lowest `f1_gold` accepted: the served answer's F1 on every seed
/// tried at `--seconds 30` (0.87526; the final corpus, and so the
/// F1, does not depend on the seed). Secondary story versions, which
/// the rule does not match, cap it below 1. Another run length ingests
/// another number of batches and may land on either side of it.
const F1_FLOOR: f64 = 0.8752;

fn rule() -> MatchRule {
    spotsigs::match_rule(SIMILARITY)
}

/// A status code and body.
struct HttpResponse {
    status: u16,
    body: String,
}

/// One request over a fresh connection (the server closes after each
/// response).
fn http(addr: SocketAddr, request: &str) -> Result<HttpResponse, String> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("response without a header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response without a status code")?;
    Ok(HttpResponse {
        status,
        body: body.to_string(),
    })
}

fn get(addr: SocketAddr, path: &str) -> Result<HttpResponse, String> {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Result<HttpResponse, String> {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// The `epoch` of a `/topk` body, found without a full parse (the key
/// precedes the clusters, so the first match is the top-level one).
fn epoch_of(body: &str) -> Option<u64> {
    let rest = &body[body.find("\"epoch\":")? + "\"epoch\":".len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The generated records and a running server over the bootstrap.
struct Booted {
    full: Dataset,
    server: Server,
    memory: Option<Arc<MemorySubscriber>>,
}

/// The generated corpus in the order `seed` shuffles it into.
fn shuffled_corpus(seed: u64, total_records: usize) -> Dataset {
    let generated = spotsigs::generate(&SpotSigsConfig {
        num_records: total_records,
        num_entities: ENTITIES,
        ..SpotSigsConfig::default()
    });
    let mut order: Vec<u32> = (0..total_records as u32).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    generated.subset(&order)
}

/// Generates the records and boots a server over the bootstrap prefix.
fn boot(seed: u64, total_records: usize, traced: bool) -> Result<Booted, String> {
    let full = shuffled_corpus(seed, total_records);
    let bootstrap = full.subset(&(0..BOOT_RECORDS as u32).collect::<Vec<_>>());
    let mut resolver = OnlineAdaLsh::new(&bootstrap, AdaLshConfig::new(rule()))?;
    let memory = traced.then(|| Arc::new(MemorySubscriber::new()));
    if let Some(memory) = &memory {
        resolver.set_trace(TraceSink::new(memory.clone()));
    }
    let service = Arc::new(Service::with_config(
        resolver,
        rule(),
        None,
        PipelineConfig::default(),
    ));
    let server = Server::start(service, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    let health = get(server.local_addr(), "/healthz")?;
    if health.status != 200 {
        return Err(format!("/healthz answered {}", health.status));
    }
    Ok(Booted {
        full,
        server,
        memory,
    })
}

/// What one open-loop read saw.
struct ReadSeen {
    /// HTTP status, 0 when the exchange itself failed.
    status: u16,
    epoch: Option<u64>,
    /// The body equals the first answer seen at the same epoch.
    consistent: bool,
}

/// An accepted ingest batch.
struct Acked {
    ids: Vec<u32>,
    visible_epoch: u64,
}

/// The ids and visible epoch of an `/ingest` answer.
fn parse_ack(body: &str) -> Option<Acked> {
    let parsed: Value = serde_json::from_str(body).ok()?;
    Some(Acked {
        ids: Vec::<u32>::from_value(parsed.get("ids")?).ok()?,
        visible_epoch: u64::from_value(parsed.get("visible_epoch")?).ok()?,
    })
}

/// A from-scratch resolve of `corpus` with the server's engine design
/// (bootstrap prefix first, the rest ingested in id order).
fn resolve_from_scratch(corpus: &Dataset, trace: TraceSink) -> Result<(f64, FilterOutput), String> {
    let start = Instant::now();
    let bootstrap = corpus.subset(&(0..BOOT_RECORDS as u32).collect::<Vec<_>>());
    let mut config = AdaLshConfig::new(rule());
    config.trace = trace;
    let mut resolver = OnlineAdaLsh::new(&bootstrap, config)?;
    resolver.extend(corpus.records()[BOOT_RECORDS..].iter().cloned())?;
    let output = resolver.query(K);
    Ok((start.elapsed().as_secs_f64(), output))
}

/// Runs the serving workload.
pub fn run(args: &Args, work_dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mixed_s = (args.seconds - CLOSED_S).max(2.0);
    let batches = (mixed_s * INGEST_HZ).floor() as usize;
    let total_records = BOOT_RECORDS + batches * BATCH_RECORDS;

    let config = AdaLshConfig::new(rule());
    report.meta("records", total_records.to_string());
    report.meta("bootstrap_records", BOOT_RECORDS.to_string());
    report.meta("k", K.to_string());
    report.meta("minhash_scheme", crate::json_debug(&config.minhash_scheme));
    report.meta("engine_threads", config.threads.to_string());
    report.meta("ingest_batches", batches.to_string());
    report.meta("ingest_batch_records", BATCH_RECORDS.to_string());
    report.meta("ingest_rate_hz", INGEST_HZ.to_string());
    report.meta("read_rate_hz", READ_HZ.to_string());
    report.meta("closed_loop_clients", CLIENTS.to_string());

    // Set-up: boot several servers from the seed, keep the last.
    let mut setup_times = Vec::new();
    let mut booted = None;
    for i in 0..BOOTS {
        if let Some(old) = booted.take() {
            let Booted { server, .. } = old;
            server.shutdown();
        }
        let start = Instant::now();
        booted = Some(boot(
            args.seed,
            total_records,
            args.trace && i + 1 == BOOTS,
        )?);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let Booted {
        full,
        server,
        memory,
    } = booted.expect("BOOTS >= 1");
    let addr = server.local_addr();

    let batch_bodies: Vec<String> = full.records()[BOOT_RECORDS..]
        .chunks(BATCH_RECORDS)
        .map(|batch| {
            let body = Value::Map(vec![("records".to_string(), batch.to_value())]);
            serde_json::to_string(&body).expect("records serialize")
        })
        .collect();

    // Mixed phase: open-loop ingest beside open-loop reads.
    let start = Instant::now() + Duration::from_millis(20);
    let mixed_end = start + Duration::from_secs_f64(mixed_s);
    let target_epoch = AtomicU64::new(u64::MAX);
    let seen_epoch = AtomicU64::new(0);
    let (ingests, reads, bodies) = std::thread::scope(|scope| {
        let ingest = scope.spawn(|| {
            let out = open_loop(
                start,
                Duration::from_secs_f64(1.0 / INGEST_HZ),
                Duration::ZERO,
                |i, _| i < batches,
                |i| match post(addr, "/ingest", &batch_bodies[i]) {
                    Ok(r) if r.status == 200 => (r.status, parse_ack(&r.body)),
                    Ok(r) => (r.status, None),
                    Err(_) => (0, None),
                },
            );
            let last = out
                .iter()
                .filter_map(|(_, (_, ack))| ack.as_ref().map(|a| a.visible_epoch))
                .max()
                .unwrap_or(0);
            target_epoch.store(last, Ordering::SeqCst);
            out
        });
        let mut bodies: BTreeMap<u64, String> = BTreeMap::new();
        let drain_end = mixed_end + DRAIN_LIMIT;
        let reads = open_loop(
            start,
            Duration::from_secs_f64(1.0 / READ_HZ),
            Duration::ZERO,
            |_, due| {
                due < mixed_end
                    || (seen_epoch.load(Ordering::SeqCst) < target_epoch.load(Ordering::SeqCst)
                        && due < drain_end)
            },
            |_| match get(addr, &format!("/topk?k={K}")) {
                Ok(response) => {
                    let epoch = epoch_of(&response.body).filter(|_| response.status == 200);
                    let consistent = epoch.is_some_and(|e| {
                        seen_epoch.fetch_max(e, Ordering::SeqCst);
                        bodies.entry(e).or_insert_with(|| response.body.clone()) == &response.body
                    });
                    ReadSeen {
                        status: response.status,
                        epoch,
                        consistent,
                    }
                }
                Err(_) => ReadSeen {
                    status: 0,
                    epoch: None,
                    consistent: false,
                },
            },
        );
        (
            ingest.join().expect("ingest thread panicked"),
            reads,
            bodies,
        )
    });

    // Every open-loop read must succeed, match its epoch's published
    // answer, and never see the epoch go backwards.
    let mut last_epoch = 0u64;
    let mut read_failed = 0u64;
    for (_, seen) in &reads {
        let monotone = seen.epoch.is_some_and(|e| e >= last_epoch);
        last_epoch = last_epoch.max(seen.epoch.unwrap_or(0));
        read_failed += u64::from(!(seen.consistent && monotone));
    }
    let is_rejected = |status: u16| status != 0 && !(200..300).contains(&status);
    let mut rejected = reads.iter().filter(|(_, r)| is_rejected(r.status)).count() as u64;
    rejected += ingests
        .iter()
        .filter(|(_, (status, _))| is_rejected(*status))
        .count() as u64;
    report.ops("open-loop reads", reads.len() as u64, read_failed);
    let ingest_failed = ingests.iter().filter(|(_, (_, ack))| ack.is_none()).count() as u64;
    report.ops("ingest batches", ingests.len() as u64, ingest_failed);

    // Ids are contiguous in acceptance order; the corpus is the
    // bootstrap plus every accepted batch, in id order.
    let mut corpus_ids: Vec<u32> = (0..BOOT_RECORDS as u32).collect();
    let mut next_id = BOOT_RECORDS as u32;
    for (i, (_, (_, acked))) in ingests.iter().enumerate() {
        if let Some(acked) = acked {
            let expect: Vec<u32> = (next_id..next_id + BATCH_RECORDS as u32).collect();
            report.check(acked.ids == expect, || {
                format!("batch {i} got ids {:?}, expected {expect:?}", acked.ids)
            });
            next_id += BATCH_RECORDS as u32;
            let lo = (BOOT_RECORDS + i * BATCH_RECORDS) as u32;
            corpus_ids.extend(lo..lo + BATCH_RECORDS as u32);
        }
    }

    // Ingest-to-visible: from a batch's due time to the first read
    // that showed an epoch at or past its visible epoch.
    let ok_reads: Vec<(Instant, u64)> = reads
        .iter()
        .filter_map(|(t, seen)| seen.epoch.map(|e| (t.done, e)))
        .collect();
    let mut visible = Vec::new();
    for (i, (timing, (_, acked))) in ingests.iter().enumerate() {
        let Some(acked) = acked else { continue };
        let first = ok_reads
            .iter()
            .find(|(done, e)| *e >= acked.visible_epoch && *done >= timing.due);
        match first {
            Some((done, _)) => visible.push(done.duration_since(timing.due).as_secs_f64()),
            None => report.check(false, || format!("batch {i} never became visible")),
        }
    }

    let timings: Vec<&Timing> = ingests
        .iter()
        .map(|(t, _)| t)
        .chain(reads.iter().map(|(t, _)| t))
        .collect();
    let lag_p99 = quantile(&timings.iter().map(|t| t.lag_s()).collect::<Vec<_>>(), 0.99);
    if lag_p99 > MAX_GEN_LAG_S {
        server.shutdown();
        return Err(format!(
            "invalid run: the open-loop generator ran {lag_p99:.4} s late at p99 \
             (limit {MAX_GEN_LAG_S} s)"
        ));
    }
    let read_latencies: Vec<f64> = reads.iter().map(|(t, _)| t.latency_s()).collect();

    // Closed-loop read-only phase: every answer must be the final one.
    let final_epoch = target_epoch.load(Ordering::SeqCst);
    let final_body = bodies.get(&final_epoch).cloned().unwrap_or_default();
    let closed_rejected = AtomicU64::new(0);
    let (closed_ok, closed_failed, read_qps) = closed_loop(
        CLIENTS,
        Duration::from_secs_f64(CLOSED_S),
        |_, _| match get(addr, &format!("/topk?k={K}")) {
            Ok(r) => {
                if is_rejected(r.status) {
                    closed_rejected.fetch_add(1, Ordering::Relaxed);
                }
                r.status == 200 && r.body == final_body
            }
            Err(_) => false,
        },
    );
    rejected += closed_rejected.into_inner();
    report.ops(
        "closed-loop reads",
        closed_ok + closed_failed,
        closed_failed,
    );

    // The served answer must equal a from-scratch resolve.
    let corpus = full.subset(&corpus_ids);
    let served: Vec<Vec<u32>> = serde_json::from_str::<Value>(&final_body)
        .ok()
        .and_then(|v| {
            v.get("clusters")
                .and_then(|c| Vec::<Vec<u32>>::from_value(c).ok())
        })
        .unwrap_or_default();
    let mut check_times = Vec::new();
    let mut reference: Option<FilterOutput> = None;
    for _ in 0..CHECK_RESOLVES {
        let (secs, output) = resolve_from_scratch(&corpus, TraceSink::disabled())?;
        check_times.push(secs);
        match &reference {
            None => {
                report.check(output.clusters == served, || {
                    format!(
                        "served top-{K} at epoch {final_epoch} differs from a from-scratch resolve"
                    )
                });
                reference = Some(output);
            }
            Some(first) => report.check(output_digest(&output) == output_digest(first), || {
                "from-scratch resolves disagree between repetitions".to_string()
            }),
        }
    }
    let reference = reference.expect("CHECK_RESOLVES >= 1");
    let served_records: Vec<u32> = served.iter().flatten().copied().collect();
    let f1 = set_metrics(&served_records, &corpus.gold_records(K)).f1;
    report.check(f1 >= F1_FLOOR, || {
        format!("f1_gold {f1} below the floor {F1_FLOOR}")
    });

    let spans_body = if args.trace {
        get(addr, "/debug/spans").ok().map(|r| r.body)
    } else {
        None
    };
    server.shutdown();

    let nb = visible.len();
    let nr = read_latencies.len();
    report.e2e(
        "setup_s",
        "s",
        median(&setup_times),
        format!("median of {BOOTS} boots"),
    );
    report.e2e(
        "filter_s",
        "s",
        median(&check_times),
        format!(
            "median of {CHECK_RESOLVES} from-scratch resolves of {} records",
            corpus.len()
        ),
    );
    report.e2e("f1_gold", "ratio", f1, format!("served top-{K}"));
    report.e2e(
        "ingest_visible_p50_s",
        "s",
        quantile(&visible, 0.5),
        format!("{nb} batches"),
    );
    report.e2e(
        "ingest_visible_p90_s",
        "s",
        quantile(&visible, 0.9),
        format!("{nb} batches"),
    );
    report.e2e_unbounded(
        "read_p50_s",
        "s",
        quantile(&read_latencies, 0.5),
        format!("{nr} open-loop reads"),
    );
    report.e2e_unbounded(
        "read_p99_s",
        "s",
        quantile(&read_latencies, 0.99),
        format!("{nr} open-loop reads"),
    );
    report.e2e_unbounded(
        "read_qps",
        "1/s",
        read_qps,
        format!("{CLIENTS} closed-loop clients, median of 100 ms windows over {CLOSED_S} s"),
    );
    report.e2e("peak_rss_mib", "MiB", peak_rss_mib(), "VmHWM".to_string());

    if let Some(memory) = memory {
        let server_events = memory.events();
        layers::check_schema("server", &server_events, &mut report);
        check_debug_spans(spans_body, &server_events, &mut report);
        push_online(&bodies, &mut report);
        push_pipeline(&server_events, &mut report);
        let acks: Vec<f64> = ingests
            .iter()
            .filter(|(_, (_, ack))| ack.is_some())
            .map(|(t, _)| t.latency_s())
            .collect();
        report.layer("http.ingest_ack_p50_s", "s", median(&acks));
        report.layer("http.rejected", "count", rejected as f64);

        let check_memory = Arc::new(MemorySubscriber::new());
        let (traced_s, traced) =
            resolve_from_scratch(&corpus, TraceSink::new(check_memory.clone()))?;
        report.check(output_digest(&traced) == output_digest(&reference), || {
            "traced from-scratch resolve differs from the untraced ones".to_string()
        });
        let events = check_memory.events();
        layers::check_schema("resolve", &events, &mut report);
        let engine = EngineTrace::fold(&events);
        engine.reconcile(&reference.stats, &mut report);
        let (design_s, levels, width) = design_shape(&corpus)?;
        engine.push(&mut report, design_s, levels, reference.num_records());
        layers::push_kernels(&mut report, &corpus, width, args.seed);
        StoreLayer::measure_copy(&corpus, &work_dir.join("copy.store"))?.push(&mut report);
        report.layer("gen.lag_p99_s", "s", lag_p99);
        report.layer(
            "trace.overhead_ratio",
            "ratio",
            traced_s / median(&check_times),
        );
    }
    Ok(report)
}

/// Design time, levels and level-1 budget of the engine designed from
/// the bootstrap prefix of `corpus`, as the server designs it.
fn design_shape(corpus: &Dataset) -> Result<(f64, usize, usize), String> {
    let bootstrap = corpus.subset(&(0..BOOT_RECORDS as u32).collect::<Vec<_>>());
    let start = Instant::now();
    let engine = AdaLsh::for_dataset(&bootstrap, AdaLshConfig::new(rule()))?;
    let design_s = start.elapsed().as_secs_f64();
    let width = engine.levels().first().map_or(0, |l| l.budget() as usize);
    Ok((design_s, engine.num_levels(), width))
}

/// `core.online`: the resolve pass behind each published epoch, read
/// from the first `/topk` answer that showed it (the boot pass, epoch
/// 0, is excluded).
fn push_online(bodies: &BTreeMap<u64, String>, report: &mut Report) {
    let mut walls = Vec::new();
    let mut records = Vec::new();
    let mut stats: Vec<Stats> = Vec::new();
    for (_, body) in bodies.range(1..) {
        let Ok(v) = serde_json::from_str::<Value>(body) else {
            continue;
        };
        let field = |name: &str| v.get(name).and_then(|x| u64::from_value(x).ok());
        let (Some(wall), Some(n), Some(s)) = (
            field("wall_micros"),
            field("records"),
            v.get("stats").and_then(|s| Stats::from_value(s).ok()),
        ) else {
            continue;
        };
        walls.push(wall as f64 / 1e6);
        records.push(n as f64);
        stats.push(s);
    }
    let per_pass =
        |f: fn(&Stats) -> u64| mean(&stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>());
    report.layer("online.resolve_p50_s", "s", median(&walls));
    report.layer("online.records_per_pass", "count", mean(&records));
    report.layer(
        "online.hash_evals_per_pass",
        "count",
        per_pass(|s| s.hash_evals),
    );
    report.layer(
        "online.pairs_per_pass",
        "count",
        per_pass(|s| s.pair_comparisons),
    );
    report.layer(
        "online.bucket_inserts_per_pass",
        "count",
        per_pass(|s| s.bucket_inserts),
    );
}

/// `serve.pipeline`: the ingest passes' span trees, as the resolver's
/// trace sink delivered them.
fn push_pipeline(events: &[OwnedEvent], report: &mut Report) {
    let spans = |op: &'static str| {
        events
            .iter()
            .filter(move |e| e.name == "span" && e.str("op") == Some(op))
    };
    let secs = |op: &'static str| -> Vec<f64> {
        spans(op)
            .filter_map(|e| e.u64("duration_micros"))
            .map(|us| us as f64 / 1e6)
            .collect()
    };
    let passes: Vec<f64> = spans("ingest_batch")
        .filter_map(|e| e.f64("batches"))
        .collect();
    report.layer(
        "pipeline.queue_wait_p50_s",
        "s",
        median(&secs("queue_wait")),
    );
    report.layer("pipeline.passes", "count", passes.len() as f64);
    report.layer("pipeline.batches_per_pass", "count", mean(&passes));
    report.layer("pipeline.publish_p50_s", "s", median(&secs("publish")));
}

/// Every span `/debug/spans` lists must be in the trace stream with the
/// same op and duration.
fn check_debug_spans(body: Option<String>, events: &[OwnedEvent], report: &mut Report) {
    let listed: Option<Vec<Value>> = body
        .and_then(|b| serde_json::from_str::<Value>(&b).ok())
        .and_then(|v| {
            v.get("spans")
                .and_then(|s| Vec::<Value>::from_value(s).ok())
        });
    let Some(listed) = listed else {
        report.check(false, || "/debug/spans gave no span list".to_string());
        return;
    };
    let traced: BTreeMap<u64, (&str, u64)> = events
        .iter()
        .filter(|e| e.name == "span")
        .filter_map(|e| Some((e.u64("span_id")?, (e.str("op")?, e.u64("duration_micros")?))))
        .collect();
    for span in &listed {
        let id = span.get("id").and_then(|v| u64::from_value(v).ok());
        let op = span.get("op").and_then(|v| String::from_value(v).ok());
        let duration = span
            .get("duration_micros")
            .and_then(|v| u64::from_value(v).ok());
        let found = id.and_then(|id| traced.get(&id));
        report.check(
            matches!((found, &op, duration), (Some((o, d)), Some(op), Some(dur)) if *o == op && *d == dur),
            || format!("/debug/spans entry {id:?} ({op:?}) is not in the trace stream"),
        );
    }
}

/// `core.online`, `serve.pipeline` and `serve.http` do no work on the
/// batch workloads; they report zero there.
pub fn push_absent_layers(report: &mut Report) {
    for (name, unit) in [
        ("online.resolve_p50_s", "s"),
        ("online.records_per_pass", "count"),
        ("online.hash_evals_per_pass", "count"),
        ("online.pairs_per_pass", "count"),
        ("online.bucket_inserts_per_pass", "count"),
        ("pipeline.queue_wait_p50_s", "s"),
        ("pipeline.passes", "count"),
        ("pipeline.batches_per_pass", "count"),
        ("pipeline.publish_p50_s", "s"),
        ("http.ingest_ack_p50_s", "s"),
        ("http.rejected", "count"),
    ] {
        report.layer(name, unit, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::epoch_of;

    #[test]
    fn epoch_is_read_from_the_top_level_key() {
        assert_eq!(epoch_of("{\"k\":10,\"epoch\":42,\"records\":3}"), Some(42));
        assert_eq!(epoch_of("{\"k\":10}"), None);
    }
}
