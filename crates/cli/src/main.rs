//! `adalsh` — command-line top-k entity resolution.
//!
//! ```text
//! adalsh generate <cora|spotsigs|popimages> --out data.jsonl [--records N] [--seed S]
//! adalsh datagen --out data.store [--records N] [--seed S]
//! adalsh info <data.jsonl>
//! adalsh filter <data.jsonl | --store data.store> --k K [--method adalsh|pairs|lshX] [--rule …] [--out clusters.json]
//! adalsh evaluate <data.jsonl | --store data.store> --k K [--method …] [--khat K2] [--rule …]
//! adalsh serve <bootstrap.jsonl> [--addr 127.0.0.1:8080] [--rule …] [--snapshot-out s.json]
//! adalsh serve --resume s.json [--addr …]
//! adalsh trace <validate|summarize> <trace.jsonl>
//! ```
//!
//! Rule selection (`--rule`): `jaccard:<dthr>` or `angular:<degrees>`
//! applied to field 0, or the preset `cora` (the three-field AND rule).
//! Default: inferred from the first field's kind (`jaccard:0.6` /
//! `angular:3`).

mod args;
mod bench_diff;
mod commands;
mod rules;

use args::Args;

const USAGE: &str = "\
adalsh — top-k entity resolution with adaptive LSH

USAGE:
  adalsh generate <cora|spotsigs|popimages> --out <file> [--records N] [--entities N] [--seed S] [--exponent E]
  adalsh datagen --out <file.store> [--records N] [--seed S] [--exponent E] [--max-entity-size N]
  adalsh info <data.jsonl>
  adalsh filter <data.jsonl | --store <file.store>> --k <K> [--method adalsh|pairs|lsh<X>] [--rule <spec>]
                [--threads <N>] [--out <file>]
                [--minhash-scheme classic|doph] [--trace-out <file.jsonl>] [--oracle exact|noisy …]
  adalsh evaluate <data.jsonl | --store <file.store>> --k <K> [--khat <K2>] [--method <m>] [--rule <spec>]
                [--threads <N>]
                [--minhash-scheme classic|doph] [--trace-out <file.jsonl>] [--oracle exact|noisy …]
  adalsh serve <bootstrap.jsonl> [--addr <host:port>] [--rule <spec>] [--snapshot-out <file>]
               [--workers <N>] [--threads <N>] [--queue-cap <N>] [--max-batch <N>] [--resolve-k <K>]
               [--slow-ms <T>] [--minhash-scheme classic|doph] [--trace-out <file.jsonl>]
               [--oracle exact|noisy …]
  adalsh serve --resume <snapshot.json> [--addr <host:port>] [--workers <N>] [--threads <N>]
               [--queue-cap <N>] [--max-batch <N>] [--resolve-k <K>] [--slow-ms <T>]
  adalsh trace <validate|summarize|attribute> <trace.jsonl>
  adalsh bench diff <current.json> <baseline.json> [--smoke]

OUT-OF-CORE STORE:
  adalsh datagen streams the seeded million-record scale generator
  (Zipf-sized entities, constant memory) straight into a columnar
  .store file. filter/evaluate accept --store <file.store> in place of
  the dataset file and resolve directly off the memory mapping — no
  record is materialized in RAM, and output is bit-identical to the
  in-RAM path. Scale-tier stores match the rule preset jaccard:0.4
  (distance threshold; entities are planted at similarity well above 0.6).

SERVE:
  Boots the online top-k resolution HTTP service (POST /ingest,
  GET /topk?k=N, GET /healthz, GET /metrics, POST /snapshot). A fresh
  start designs the engine from the bootstrap dataset; --resume restores
  a POST /snapshot file without re-hashing any record. --addr with port
  0 picks an ephemeral port (printed on stdout once bound).

  Ingest is pipelined: batches land in a bounded queue (--queue-cap,
  default 64 batches; 503 + Retry-After when full), a resolver thread
  drains up to --max-batch records per pass (default 2048), resolves top
  --resolve-k clusters (default 10), and publishes an immutable epoch
  snapshot. GET /topk?k=N serves N <= resolve-k from that snapshot
  without waiting on a resolve pass; add
  &wait_epoch=<visible_epoch from /ingest> for read-your-writes.

TRACING:
  --trace-out <file>  write one JSON object per engine event (hash
                      rounds, gate decisions, pairwise blocks, finals)
                      to <file>; adaLSH method only. filter/evaluate
                      runs additionally emit a filter_run span tree
                      (design + resolve phases, engine-derived
                      hash_rounds/pairwise children, RSS/page-fault
                      deltas) into the same file. Inspect with
                      `adalsh trace summarize <file>` (per-level table),
                      `adalsh trace validate <file>` (checks every
                      event against the taxonomy, reconciles trace
                      sums against the run's Stats totals, and checks
                      the span-tree invariants), or
                      `adalsh trace attribute <file>` (per-phase
                      latency attribution from the span trees). The
                      serve command additionally folds these events
                      into adalsh_engine_* histograms on GET /metrics.

SPANS (serve):
  Every ingest batch gets a root ingest_batch span decomposed into
  queue_wait / coalesce / resolve (with hash_rounds + pairwise engine
  children) / publish; every /topk query gets a topk_query span. The
  live ring is served on GET /debug/spans, span-backed families
  (adalsh_ingest_to_visible_seconds, adalsh_queue_age_seconds, resolve
  page-fault counters) land on GET /metrics, and --slow-ms <T> logs
  root spans at or above T milliseconds to stderr.

BENCH GATE:
  adalsh bench diff compares a fresh recorder JSON against a committed
  BENCH_*.json baseline: numeric metrics are classified by key name
  (latency-like: lower is better; qps/recall-like: higher is better),
  warn past 1.3x, and fail the gate past 1.3x (or 3x with --smoke,
  which tolerates warn-level noise on shared machines).

ORACLE (adaLSH method; also serve):
  --oracle exact|noisy
                     exact (default): pairwise verdicts come straight
                     from the match rule — byte-for-byte today's path.
                     noisy: a seeded fault-injected oracle wraps the
                     rule with an error model, retries with backoff,
                     majority voting, and a spend budget. Deterministic:
                     the same --oracle-seed gives bit-identical verdicts
                     at any thread count. Exhausted budgets or retry
                     deadlines degrade gracefully to the rule verdict
                     (counted as degraded, never an abort).
  --oracle-fp <r>    false-match rate in [0, 1] (default 0)
  --oracle-fn <r>    false-non-match rate in [0, 1] (default 0)
  --oracle-fault <r> per-attempt timeout/transient-error rate (default 0)
  --oracle-seed <S>  noise/fault RNG seed (default 42)
  --oracle-budget <N> total adjudication spend before degradation
                     (default unlimited)
  --oracle-votes <N> majority-vote panel size for low-confidence
                     verdicts, rounded up to odd (default 3)
  --oracle-timeout-ms <T> per-attempt modeled timeout (default 50)
  Noisy runs print an oracle ledger line (calls, retries, timeouts,
  degraded, spend) and stamp the same totals on run_end trace events,
  where `adalsh trace validate` reconciles them against the per-call
  oracle_call events. Under serve, POST /adjudicate accepts external
  verdicts that override the oracle pair-by-pair.

RULE SPECS:
  jaccard:<dthr>     Jaccard distance threshold on field 0 (e.g. jaccard:0.6)
  angular:<degrees>  angular threshold in degrees on field 0 (e.g. angular:3)
  cora               the three-field publication AND rule

THREADS:
  --threads <N>      worker threads for adaLSH transitive hashing
                     (default: auto = available parallelism; --threads 1
                     runs the sequential reference path; output and
                     statistics are identical at any thread count)

MINHASH SCHEME (adaLSH method, Jaccard fields):
  --minhash-scheme classic|doph
                     classic (default): one keyed permutation per hash
                     slot — bit-compatible with existing snapshots.
                     doph: densified one-permutation hashing — all K*L
                     slots in one pass per record (O(|set| + K*L) instead
                     of O(|set| * K*L)); hash values and collision
                     statistics differ slightly from classic, so serve
                     snapshots record the scheme and refuse a mismatched
                     resume.
";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        print!("{USAGE}");
        return;
    }
    let args = match Args::parse(raw, &["verbose", "smoke"]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.command.as_str() {
        "generate" => commands::generate(&args),
        "datagen" => commands::datagen(&args),
        "info" => commands::info(&args),
        "filter" => commands::filter(&args),
        "evaluate" => commands::evaluate(&args),
        "serve" => commands::serve(&args),
        "trace" => commands::trace(&args),
        "bench" => commands::bench(&args),
        other => Err(format!("unknown command '{other}'")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
