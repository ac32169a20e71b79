#!/usr/bin/env bash
# Local CI gate: format, lint (warnings are errors), release build, tests.
# Run from the workspace root before pushing.
#
#   ./ci.sh                # the default gate
#   ./ci.sh --bench-smoke  # gate + compile the Criterion benches + tiny
#                          # end-to-end runs of the baseline recorders
#                          # (bench_pairwise; bench_kernels, which fails
#                          # unless DOPH beats the classic batched
#                          # MinHash kernel at width 128; bench_serve,
#                          # which fails if 16 concurrent readers tank
#                          # the pipelined server's QPS; bench_scale,
#                          # which fails unless the mapped-store filter
#                          # is bit-identical to the in-RAM run and
#                          # streaming ingest stays out-of-core;
#                          # bench_spans, which fails if the span layer
#                          # slows ingest-to-visible past 1.15x, then
#                          # gates the fresh numbers against the
#                          # committed baseline with `adalsh bench diff`);
#                          # committed baselines are never touched
set -euo pipefail
cd "$(dirname "$0")"

bench_smoke=0
for arg in "$@"; do
    case "$arg" in
    --bench-smoke) bench_smoke=1 ;;
    *)
        echo "unknown flag: $arg" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo build --release (perfbench)"
# The end-to-end benchmark is a workspace of its own; building it here
# makes a core API change that breaks it fail CI, not the next bench run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> serve smoke"
# Prints the address a `serve` run announces in its log, waiting up to
# 10 s for the announcement.
serve_addr() {
    local log=$1 addr
    for _ in $(seq 1 100); do
        addr=$(sed -n 's#^listening on http://##p' "$log")
        [ -n "$addr" ] && { echo "$addr"; return 0; }
        sleep 0.1
    done
    echo "serve never announced its address" >&2
    cat "$log" >&2
    return 1
}

# Sends one HTTP/1.1 request over raw TCP and prints the response.
http_request() {
    local host=$1 port=$2 method=$3 path=$4 body=${5-}
    exec 3<>"/dev/tcp/$host/$port"
    printf '%s %s HTTP/1.1\r\nHost: smoke\r\nContent-Length: %s\r\n\r\n%s' \
        "$method" "$path" "${#body}" "$body" >&3
    cat <&3
    exec 3<&- 3>&-
}

# Boot the service on an ephemeral port, hit /healthz and /topk over raw
# TCP (bash /dev/tcp: no curl dependency), and shut it down.
serve_smoke() {
    local data log addr pid
    data=$(mktemp /tmp/adalsh-serve-smoke-XXXXXX.jsonl)
    log=$(mktemp /tmp/adalsh-serve-smoke-XXXXXX.log)
    ./target/release/adalsh generate spotsigs --out "$data" \
        --records 200 --entities 30 >/dev/null
    ./target/release/adalsh serve "$data" --addr 127.0.0.1:0 >"$log" &
    pid=$!
    trap 'kill "$pid" 2>/dev/null || true' RETURN
    addr=$(serve_addr "$log") || return 1
    local host=${addr%:*} port=${addr##*:}

    exec 3<>"/dev/tcp/$host/$port"
    printf 'GET /healthz HTTP/1.1\r\nHost: smoke\r\n\r\n' >&3
    grep -q '"status":"ok"' <&3 || { echo "/healthz failed" >&2; return 1; }
    exec 3<&- 3>&-

    exec 3<>"/dev/tcp/$host/$port"
    printf 'GET /topk?k=2 HTTP/1.1\r\nHost: smoke\r\n\r\n' >&3
    grep -q '"clusters":' <&3 || { echo "/topk failed" >&2; return 1; }
    exec 3<&- 3>&-

    # Write path: ingest a batch, then a read-your-writes barrier read —
    # the returned visible_epoch plugs straight into ?wait_epoch=.
    local body='{"records":[{"fields":[{"Shingles":[1,2,3,4]}]},{"fields":[{"Shingles":[1,2,3,5]}]}]}'
    exec 3<>"/dev/tcp/$host/$port"
    printf 'POST /ingest HTTP/1.1\r\nHost: smoke\r\nContent-Length: %s\r\n\r\n%s' \
        "${#body}" "$body" >&3
    grep -q '"visible_epoch":1' <&3 || { echo "/ingest missing visible_epoch" >&2; return 1; }
    exec 3<&- 3>&-

    exec 3<>"/dev/tcp/$host/$port"
    printf 'GET /topk?k=2&wait_epoch=1 HTTP/1.1\r\nHost: smoke\r\n\r\n' >&3
    grep -q '"epoch":1' <&3 || { echo "read-your-writes barrier failed" >&2; return 1; }
    exec 3<&- 3>&-

    # Short 4-client load burst against the lock-free read path: every
    # response must be a 200 even while clients overlap.
    local c bpid bpids=()
    for c in 1 2 3 4; do
        (
            for _ in $(seq 1 25); do
                exec 4<>"/dev/tcp/$host/$port"
                printf 'GET /topk?k=2 HTTP/1.1\r\nHost: burst\r\n\r\n' >&4
                head -n1 <&4 | grep -q ' 200 ' || exit 1
                exec 4<&- 4>&-
            done
        ) &
        bpids+=("$!")
    done
    for bpid in "${bpids[@]}"; do
        wait "$bpid" || { echo "load burst client failed" >&2; return 1; }
    done

    # The engine's trace events must surface as adalsh_engine_* families
    # on the scrape (the query above emitted at least one hash round).
    local scrape
    scrape=$(mktemp /tmp/adalsh-serve-smoke-XXXXXX.metrics)
    exec 3<>"/dev/tcp/$host/$port"
    printf 'GET /metrics HTTP/1.1\r\nHost: smoke\r\n\r\n' >&3
    cat <&3 >"$scrape"
    exec 3<&- 3>&-
    grep -q 'adalsh_engine_hash_round_seconds_bucket' "$scrape" ||
        { echo "/metrics missing engine hash-round histogram" >&2; return 1; }
    grep -q 'adalsh_engine_pairwise_block_seconds_bucket' "$scrape" ||
        { echo "/metrics missing engine pairwise-block histogram" >&2; return 1; }
    grep -q 'adalsh_engine_gate_decisions_total' "$scrape" ||
        { echo "/metrics missing engine gate-decision counter" >&2; return 1; }
    if grep -q 'adalsh_engine_hash_round_seconds_count 0' "$scrape"; then
        echo "engine hash-round histogram never observed a round" >&2
        return 1
    fi
    # The ingest pipeline's queue/epoch families must be on the scrape:
    # the ingest above was applied, so the epoch gauge reads 1, a batch
    # was counted, and the queue has drained back to 0.
    grep -q 'adalsh_ingest_queue_depth 0' "$scrape" ||
        { echo "/metrics missing drained ingest queue gauge" >&2; return 1; }
    grep -q 'adalsh_published_epoch 1' "$scrape" ||
        { echo "/metrics missing published epoch gauge" >&2; return 1; }
    grep -q 'adalsh_applied_batches_total 1' "$scrape" ||
        { echo "/metrics missing applied-batches counter" >&2; return 1; }
    grep -q 'adalsh_resolve_batch_records_bucket' "$scrape" ||
        { echo "/metrics missing batch-size histogram" >&2; return 1; }
    grep -q 'adalsh_publish_seconds_bucket' "$scrape" ||
        { echo "/metrics missing publish-latency histogram" >&2; return 1; }
    rm -f "$scrape"

    # Cross-epoch reuse: a second batch that touches none of the top
    # clusters must publish an epoch whose resolve replayed the
    # untouched clusters' ops from the resolver's memo.
    body='{"records":[{"fields":[{"Shingles":[7,8,9,10]}]},{"fields":[{"Shingles":[7,8,9,11]}]}]}'
    exec 3<>"/dev/tcp/$host/$port"
    printf 'POST /ingest HTTP/1.1\r\nHost: smoke\r\nContent-Length: %s\r\n\r\n%s' \
        "${#body}" "$body" >&3
    grep -q '"visible_epoch":2' <&3 || { echo "second /ingest missing visible_epoch" >&2; return 1; }
    exec 3<&- 3>&-
    exec 3<>"/dev/tcp/$host/$port"
    printf 'GET /topk?k=2&wait_epoch=2 HTTP/1.1\r\nHost: smoke\r\n\r\n' >&3
    grep -Eq '"pairs_reused":[1-9]|"bucket_inserts_reused":[1-9]' <&3 ||
        { echo "epoch-2 resolve replayed nothing from the memo" >&2; return 1; }
    exec 3<&- 3>&-

    # Clean shutdown.
    kill "$pid"
    wait "$pid" 2>/dev/null || true
    rm -f "$data" "$log"
}
serve_smoke

# Noisy-oracle leg: POST /adjudicate lands a verdict in the overlay and
# re-resolves through the pipeline's re-resolve command, which must
# re-publish at the current epoch (1, after one ingest) rather than
# start a new one.
serve_noisy_smoke() {
    local data log addr pid reply
    data=$(mktemp /tmp/adalsh-serve-smoke-XXXXXX.jsonl)
    log=$(mktemp /tmp/adalsh-serve-smoke-XXXXXX.log)
    ./target/release/adalsh generate spotsigs --out "$data" \
        --records 200 --entities 30 >/dev/null
    ./target/release/adalsh serve "$data" --addr 127.0.0.1:0 --oracle noisy >"$log" &
    pid=$!
    trap 'kill "$pid" 2>/dev/null || true' RETURN
    addr=$(serve_addr "$log") || return 1
    local host=${addr%:*} port=${addr##*:}

    # Replies are captured whole before grepping: `grep -q` in a pipe
    # could exit early and fail the pipeline on a SIGPIPE.
    reply=$(http_request "$host" "$port" POST /ingest \
        '{"records":[{"fields":[{"Shingles":[1,2,3,4]}]}]}')
    grep -q '"visible_epoch":1' <<<"$reply" ||
        { echo "noisy /ingest missing visible_epoch: $reply" >&2; return 1; }
    reply=$(http_request "$host" "$port" GET '/topk?k=2&wait_epoch=1')
    grep -q '"epoch":1' <<<"$reply" ||
        { echo "noisy read-your-writes barrier failed: $reply" >&2; return 1; }
    reply=$(http_request "$host" "$port" POST /adjudicate \
        '{"verdicts":[{"a":0,"b":1,"matched":false}]}')
    grep -q '"overlay_version":1' <<<"$reply" && grep -q '"epoch":1' <<<"$reply" ||
        { echo "/adjudicate did not re-publish at the current epoch: $reply" >&2; return 1; }
    reply=$(http_request "$host" "$port" GET /adjudicate)
    grep -q '"overlay_verdicts":1' <<<"$reply" ||
        { echo "GET /adjudicate missing the posted verdict" >&2; return 1; }

    kill "$pid"
    wait "$pid" 2>/dev/null || true
    rm -f "$data" "$log"
}
serve_noisy_smoke

echo "==> trace smoke"
# Run the adaptive filter with --trace-out and check the emitted JSONL
# validates (taxonomy + trace↔Stats reconciliation) and summarizes.
trace_smoke() {
    local data trace
    data=$(mktemp /tmp/adalsh-trace-smoke-XXXXXX.jsonl)
    trace=$(mktemp /tmp/adalsh-trace-smoke-XXXXXX.trace.jsonl)
    ./target/release/adalsh generate spotsigs --out "$data" \
        --records 200 --entities 30 >/dev/null
    ./target/release/adalsh filter "$data" --k 3 --rule jaccard:0.6 \
        --trace-out "$trace" >/dev/null
    ./target/release/adalsh trace validate "$trace" | grep -q 'OK' ||
        { echo "trace validate failed" >&2; return 1; }
    ./target/release/adalsh trace summarize "$trace" | grep -q 'H1' ||
        { echo "trace summarize missing level table" >&2; return 1; }
    rm -f "$data" "$trace"
}
trace_smoke

echo "==> weighted-rule smoke"
# The cora rule (a weighted average AND a threshold) is the one shipped
# preset whose hashing routes functions through Definition-7 weighted
# parts. Run it under both MinHash schemes: each trace must validate,
# and the clusters must not depend on the thread count. Both thread
# counts take the same batched path, so this checks end-to-end plumbing
# and determinism only; batched-vs-scalar equality of the weighted and
# DOPH leaves is pinned by crates/core/tests/proptest_hashing.rs.
weighted_smoke() {
    local data trace scheme one two
    data=$(mktemp /tmp/adalsh-weighted-smoke-XXXXXX.jsonl)
    trace=$(mktemp /tmp/adalsh-weighted-smoke-XXXXXX.trace.jsonl)
    ./target/release/adalsh generate cora --out "$data" --records 400 --seed 3 >/dev/null
    for scheme in classic doph; do
        one=$(./target/release/adalsh filter "$data" --rule cora --k 3 \
            --minhash-scheme "$scheme" --threads 1 --trace-out "$trace")
        grep -q '^#1 ' <<<"$one" ||
            { echo "weighted-rule $scheme filter printed no clusters" >&2; return 1; }
        grep -q 'OK' <<<"$(./target/release/adalsh trace validate "$trace")" ||
            { echo "weighted-rule $scheme trace validate failed" >&2; return 1; }
        two=$(./target/release/adalsh filter "$data" --rule cora --k 3 \
            --minhash-scheme "$scheme" --threads 2)
        [ "$(grep '^#' <<<"$one")" = "$(grep '^#' <<<"$two")" ] ||
            { echo "weighted-rule $scheme clusters differ across threads" >&2; return 1; }
    done
    rm -f "$data" "$trace"
}
weighted_smoke

echo "==> oracle chaos smoke"
# Run the filter through the fault-injected noisy oracle at a fixed seed
# with a budget tight enough to force graceful degradation. The run must
# exit 0 (degradation, never abort), report its spend, and the emitted
# trace must validate — the schema validator reconciles Σ per-call
# oracle spend against the run_end ledger mirror bit-for-bit.
oracle_smoke() {
    local data trace out
    data=$(mktemp /tmp/adalsh-oracle-smoke-XXXXXX.jsonl)
    trace=$(mktemp /tmp/adalsh-oracle-smoke-XXXXXX.trace.jsonl)
    ./target/release/adalsh generate spotsigs --out "$data" \
        --records 200 --entities 30 >/dev/null
    out=$(./target/release/adalsh filter "$data" --k 3 --rule jaccard:0.6 \
        --oracle noisy --oracle-fp 0.05 --oracle-fn 0.05 --oracle-fault 0.2 \
        --oracle-seed 7 --oracle-budget 500 --trace-out "$trace") ||
        { echo "noisy-oracle filter did not degrade gracefully" >&2; return 1; }
    echo "$out" | grep -q 'oracle:' ||
        { echo "filter output missing the oracle spend summary" >&2; return 1; }
    echo "$out" | grep -q 'degraded' ||
        { echo "filter output missing degradation counts" >&2; return 1; }
    ./target/release/adalsh trace validate "$trace" | grep -q 'OK' ||
        { echo "oracle trace validate failed" >&2; return 1; }
    rm -f "$data" "$trace"
}
oracle_smoke

echo "==> scale store smoke"
# Stream the scale generator into a store file, resolve directly off the
# memory mapping (no positional dataset), and validate the emitted trace
# — which also checks the run_start event reports source=store.
scale_smoke() {
    # grep on captured output, not on a live pipe: `grep -q` would close
    # the pipe at first match and SIGPIPE the tool under pipefail.
    local store trace out
    store=$(mktemp /tmp/adalsh-scale-smoke-XXXXXX.store)
    trace=$(mktemp /tmp/adalsh-scale-smoke-XXXXXX.trace.jsonl)
    ./target/release/adalsh datagen --out "$store" --records 10000 --seed 7 >/dev/null
    ./target/release/adalsh filter --store "$store" --k 5 --rule jaccard:0.4 \
        --trace-out "$trace" >/dev/null
    grep -q '"source":"store"' "$trace" ||
        { echo "trace run_start does not report source=store" >&2; return 1; }
    # The store-backed run must carry its filter_run span tree (design +
    # resolve phases with the engine-derived children) in the same file,
    # and the validator must accept the tree's containment invariants.
    grep -q '"ev":"span"' "$trace" ||
        { echo "store-path trace carries no span events" >&2; return 1; }
    grep -q '"op":"filter_run"' "$trace" ||
        { echo "store-path trace missing the filter_run root span" >&2; return 1; }
    out=$(./target/release/adalsh trace validate "$trace")
    grep -q 'OK' <<<"$out" ||
        { echo "store-path trace validate failed" >&2; return 1; }
    out=$(./target/release/adalsh trace attribute "$trace")
    grep -q 'filter_run' <<<"$out" ||
        { echo "trace attribute lost the filter_run phase breakdown" >&2; return 1; }
    out=$(./target/release/adalsh evaluate --store "$store" --k 5 --rule jaccard:0.4)
    grep -q 'recall gold:       1.0000' <<<"$out" ||
        { echo "store-path evaluate lost gold recall" >&2; return 1; }
    rm -f "$store" "$trace"
}
scale_smoke

if [ "$bench_smoke" = 1 ]; then
    echo "==> cargo bench --no-run (compile gate)"
    cargo bench --workspace --no-run --quiet

    echo "==> bench_pairwise --smoke"
    cargo run --release -p adalsh-bench --bin bench_pairwise -- --smoke

    echo "==> bench_kernels --smoke (doph-beats-classic gate)"
    cargo run --release -p adalsh-bench --bin bench_kernels -- --smoke

    echo "==> bench_oracle --smoke (noisy-oracle robustness sweep)"
    cargo run --release -p adalsh-bench --bin bench_oracle -- --smoke

    echo "==> bench_serve --smoke (read-scaling gate)"
    # Compiles the serve load driver and fails unless the pipelined
    # server's 16-client read QPS holds up against its 1-client QPS.
    cargo run --release -p adalsh-bench --bin bench_serve -- --smoke

    echo "==> bench_scale --smoke (out-of-core gates)"
    # Fails unless the mapped-store filter is bit-identical to the
    # in-RAM run and streaming ingest peaks below the materialized
    # footprint.
    cargo run --release -p adalsh-bench --bin bench_scale -- --smoke

    echo "==> bench_spans --smoke (span-overhead + regression gate)"
    # Fails if the span layer slows ingest-to-visible past 1.15x, then
    # diffs the fresh numbers against the committed baseline — smoke
    # mode tolerates warn-level (1.3x) noise but fails past 3x.
    spans_fresh=$(mktemp /tmp/adalsh-bench-spans-XXXXXX.json)
    cargo run --release -p adalsh-bench --bin bench_spans -- --smoke --out "$spans_fresh"
    ./target/release/adalsh bench diff "$spans_fresh" BENCH_spans.json --smoke
    rm -f "$spans_fresh"
fi

echo "CI OK"
