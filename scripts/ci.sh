#!/usr/bin/env sh
# Offline CI gate: the workspace must build, test and lint with no
# network or registry access (the tree has zero external dependencies).
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc --offline (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> bench_sim determinism smoke"
# The simulator's fast path (event-driven wakeup, idle fast-forward)
# must stay bit-deterministic: two smoke-scale runs have to produce
# byte-identical simulated numbers and byte-identical per-entry
# reports. --deterministic omits host-timing fields; the --baseline
# re-read doubles as the "report parses" check (it exits non-zero on
# malformed JSON).
bench_dir="$(mktemp -d)"
target/release/bench_sim --scale smoke --deterministic \
    --out "$bench_dir/a.json" --reports "$bench_dir/reports_a" >/dev/null
target/release/bench_sim --scale smoke --deterministic \
    --out "$bench_dir/b.json" --reports "$bench_dir/reports_b" \
    --baseline "$bench_dir/a.json" >/dev/null
cmp "$bench_dir/a.json" "$bench_dir/b.json"
diff -r "$bench_dir/reports_a" "$bench_dir/reports_b"

echo "==> bench_sim --compare gate smoke"
# The throughput-regression gate must be deterministic in both
# directions: against a synthetic near-zero baseline every entry is a
# speedup (exit 0); against an unreachably fast baseline every entry is
# a regression (exit nonzero). Real thresholds live in docs/PERF.md;
# this only pins the gate's mechanics, not the host's speed.
printf '%s' '{"schema":"capsule-bench-sim/1","entries":[{"entry":"toolchain_overhead","sim_cycles_per_sec":0.001}]}' \
    >"$bench_dir/base_slow.json"
printf '%s' '{"schema":"capsule-bench-sim/1","entries":[{"entry":"toolchain_overhead","sim_cycles_per_sec":1e15}]}' \
    >"$bench_dir/base_fast.json"
target/release/bench_sim --scale smoke --entries toolchain_overhead \
    --out "$bench_dir/cmp.json" --compare "$bench_dir/base_slow.json" >/dev/null
if target/release/bench_sim --scale smoke --entries toolchain_overhead \
    --out "$bench_dir/cmp.json" --compare "$bench_dir/base_fast.json" >/dev/null; then
    echo "bench_sim --compare failed to flag a regression" >&2
    exit 1
fi
# A baseline measured with another worker count is refused outright
# (exit 2): its throughput says nothing about this run's.
printf '%s' '{"schema":"capsule-bench-sim/1","workers":4096,"entries":[]}' \
    >"$bench_dir/base_workers.json"
status=0
CAPSULE_BENCH_WORKERS=1 target/release/bench_sim --scale smoke --entries toolchain_overhead \
    --out "$bench_dir/cmp.json" --compare "$bench_dir/base_workers.json" >/dev/null 2>&1 || status=$?
if [ "$status" != 2 ]; then
    echo "bench_sim --compare accepted a baseline from another worker count (exit $status)" >&2
    exit 1
fi
rm -rf "$bench_dir"

echo "==> capsule-fuzz differential smoke"
# Fixed-seed, fixed-count sweep over the reduced config matrix: every
# generated program must produce identical architectural results across
# machine shapes, division policies, checkpoint/resume and the decode
# cache (docs/FUZZ.md). On divergence the fuzzer exits non-zero after
# writing a replayable artifact — surface its path loudly. Then replay
# the checked-in minimized corpus, which must stay clean.
fuzz_dir="$(mktemp -d)"
if ! target/release/capsule-fuzz --seed 1 --count 200 --matrix reduced --out "$fuzz_dir"; then
    echo "capsule-fuzz sweep diverged; replayable artifacts in $fuzz_dir:" >&2
    ls "$fuzz_dir" >&2
    exit 1
fi
target/release/capsule-fuzz --replay crates/capsule-fuzz/corpus
rm -rf "$fuzz_dir"

echo "==> capsule-serve smoke test"
# Start the job server on an ephemeral port, drive it with the load
# generator, then shut it down cleanly over the wire. The server
# checkpoints (docs/CHECKPOINT.md) and the load generator
# preempts-and-resumes a seeded subset of jobs (--preempt-rate), so the
# swap path runs under mixed traffic too. Replay determinism over both
# protocols, fuzz-generated jobs against in-process runs and the flight
# recorder's per-job cost are pinned by the capsule-serve e2e tests.
serve_log="$(mktemp)"
CAPSULE_SERVE_CHECKPOINT_CYCLES=50000 \
    target/release/capsule-serve --addr 127.0.0.1:0 --workers 2 --queue 8 >"$serve_log" 2>&1 &
serve_pid=$!
addr=""
i=0
while [ $i -lt 100 ]; do
    addr="$(sed -n 's/^listening on //p' "$serve_log")"
    [ -n "$addr" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "capsule-serve did not come up:" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
target/release/capsule-loadgen "$addr" --jobs 8 --threads 3 --preempt-rate 3
# Protocol parity over one-shot clients: the same (warmed) job asked
# over v1 and v2 must answer with byte-identical responses.
target/release/capsule-client "$addr" run table3_divisions smoke --compact >/dev/null
pv1="$(target/release/capsule-client "$addr" --proto v1 run table3_divisions smoke --compact)"
pv2="$(target/release/capsule-client "$addr" --proto v2 run table3_divisions smoke --compact)"
if [ "$pv1" != "$pv2" ]; then
    echo "v1 and v2 client answers diverged:" >&2
    printf '%s\n%s\n' "$pv1" "$pv2" >&2
    exit 1
fi
echo "v1/v2 client parity: ok"
target/release/capsule-client "$addr" shutdown --compact
wait "$serve_pid"
rm -f "$serve_log"

echo "==> capsule-fleet smoke test"
# Two backends behind one coordinator, all on ephemeral loopback ports.
# The load generator's --fleet mode sweeps the full catalog (one
# smoke-scale job per entry) through the coordinator. That the fleet's
# reports match a direct server's, byte for byte, is pinned by
# fleet_e2e::fleet_reports_are_byte_identical_to_a_direct_server.
wait_addr() {
    _log="$1"
    _addr=""
    _i=0
    while [ $_i -lt 100 ]; do
        _addr="$(sed -n 's/^listening on //p' "$_log")"
        [ -n "$_addr" ] && break
        sleep 0.1
        _i=$((_i + 1))
    done
    if [ -z "$_addr" ]; then
        echo "server did not come up:" >&2
        cat "$_log" >&2
        exit 1
    fi
    printf '%s' "$_addr"
}
b1_log="$(mktemp)"
b2_log="$(mktemp)"
fleet_log="$(mktemp)"
target/release/capsule-serve --addr 127.0.0.1:0 --workers 2 --queue 8 >"$b1_log" 2>&1 &
b1_pid=$!
target/release/capsule-serve --addr 127.0.0.1:0 --workers 2 --queue 8 >"$b2_log" 2>&1 &
b2_pid=$!
b1_addr="$(wait_addr "$b1_log")"
b2_addr="$(wait_addr "$b2_log")"
target/release/capsule-fleet --addr 127.0.0.1:0 \
    --backend "$b1_addr" --backend "$b2_addr" --probe-ms 100 >"$fleet_log" 2>&1 &
fleet_pid=$!
fleet_addr="$(wait_addr "$fleet_log")"
target/release/capsule-loadgen "$fleet_addr" --fleet --threads 3
# Fleet stats must show both backends reporting into the aggregate.
reporting="$(target/release/capsule-client "$fleet_addr" stats --compact \
    | sed -n 's/.*"backends_reporting":\([0-9]*\).*/\1/p')"
if [ "$reporting" != "2" ]; then
    echo "expected 2 backends reporting, got '$reporting'" >&2
    exit 1
fi
echo "==> observability smoke test"
# A traced job through the fleet must be reconstructable end to end:
# the trace op's tree has to contain both the coordinator's dispatch
# span and the backend's execution span (grafted at query time). The
# budget is non-default so the job's canonical form misses the caches
# the sweep above populated and the backend really executes. Then the
# metrics exposition must be scrape-stable: two back-to-back scrapes
# byte-identical (docs/OBSERVABILITY.md).
target/release/capsule-client "$fleet_addr" --compact \
    '{"op":"run","scenario":"table1_config","scale":"smoke","budget":190000000000,"trace_id":"ci-t1"}' \
    >/dev/null
trace_out="$(target/release/capsule-client "$fleet_addr" trace ci-t1 --compact)"
for span in '"name":"fleet.dispatch"' '"name":"serve.execute"'; do
    case "$trace_out" in
        *"$span"*) ;;
        *)
            echo "trace ci-t1 is missing $span:" >&2
            echo "$trace_out" >&2
            exit 1
            ;;
    esac
done
m1="$(target/release/capsule-client "$fleet_addr" metrics --compact)"
m2="$(target/release/capsule-client "$fleet_addr" metrics --compact)"
if [ "$m1" != "$m2" ]; then
    echo "metrics exposition is not scrape-stable:" >&2
    printf '%s\n%s\n' "$m1" "$m2" >&2
    exit 1
fi
target/release/capsule-client "$fleet_addr" shutdown --compact
target/release/capsule-client "$b1_addr" shutdown --compact
target/release/capsule-client "$b2_addr" shutdown --compact
wait "$fleet_pid" "$b1_pid" "$b2_pid"
rm -f "$b1_log" "$b2_log" "$fleet_log"

echo "==> fleet observability soak"
# The three observability tiers, end to end, with no timing races
# (docs/OBSERVABILITY.md): a huge --probe-ms means the prober runs its
# immediate startup round and then never again, so a killed backend is
# discovered by a live dispatch fault — a guaranteed retry event in the
# flight ring. The soak pins: (1) tail sampling drops the first fast
# anonymous job's trace and keeps the forced-slow one, (2) killing a
# backend and replaying the exact request it served produces a retry
# onto the survivor, (3) capsule-top --once ranks the survivor first
# and shows the victim down, (4) the dump op carries the retry and
# backend-death events.
o1_log="$(mktemp)"
o2_log="$(mktemp)"
ofleet_log="$(mktemp)"
target/release/capsule-serve --addr 127.0.0.1:0 --workers 2 --queue 8 >"$o1_log" 2>&1 &
o1_pid=$!
target/release/capsule-serve --addr 127.0.0.1:0 --workers 2 --queue 8 >"$o2_log" 2>&1 &
o2_pid=$!
o1_addr="$(wait_addr "$o1_log")"
o2_addr="$(wait_addr "$o2_log")"
target/release/capsule-fleet --addr 127.0.0.1:0 \
    --backend "$o1_addr" --backend "$o2_addr" \
    --probe-ms 600000 --backoff-ms 10 >"$ofleet_log" 2>&1 &
ofleet_pid=$!
ofleet_addr="$(wait_addr "$ofleet_log")"
alive=""
i=0
while [ $i -lt 100 ]; do
    alive="$(target/release/capsule-client "$ofleet_addr" stats --compact \
        | sed -n 's/.*"backends_alive":\([0-9]*\).*/\1/p')"
    [ "$alive" = "2" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ "$alive" != "2" ]; then
    echo "startup probe round never marked both backends alive (alive='$alive')" >&2
    exit 1
fi
# Fast job 1 is the fleet's first tail sample: anonymous and quick,
# with no rolling p99 yet to beat, its trace must be dropped.
f1_out="$(target/release/capsule-client "$ofleet_addr" --compact \
    '{"op":"run","scenario":"toolchain_overhead","scale":"smoke","budget":191000000000}')"
f1_key="$(printf '%s' "$f1_out" | sed -n 's/.*"cache_key":"\([0-9a-f]*\)".*/\1/p')"
if [ -z "$f1_key" ]; then
    echo "fast job 1 returned no cache_key: $f1_out" >&2
    exit 1
fi
# Fast job 2's response names the backend rendezvous picked for it.
# Kill that backend and replay the byte-identical request: the same
# canonical form prefers the same (now dead, still unprobed) backend,
# so the dispatch must fault, record a retry, and land on the survivor.
f2_line='{"op":"run","scenario":"toolchain_overhead","scale":"smoke","budget":192000000000}'
f2_out="$(target/release/capsule-client "$ofleet_addr" --compact "$f2_line")"
ovictim="$(printf '%s' "$f2_out" | sed -n 's/.*"backend":"\(b[01]\)".*/\1/p')"
if [ "$ovictim" = "b0" ]; then
    ovictim_pid=$o1_pid
    osurv_name="b1"
    osurv_addr="$o2_addr"
    osurv_pid=$o2_pid
elif [ "$ovictim" = "b1" ]; then
    ovictim_pid=$o2_pid
    osurv_name="b0"
    osurv_addr="$o1_addr"
    osurv_pid=$o1_pid
else
    echo "fast job 2 names no backend: $f2_out" >&2
    exit 1
fi
kill -9 "$ovictim_pid" 2>/dev/null || true
retry_out="$(target/release/capsule-client "$ofleet_addr" --compact "$f2_line")"
oattempts="$(printf '%s' "$retry_out" | sed -n 's/.*"attempts":\([0-9]*\).*/\1/p')"
if [ "${oattempts:-0}" -lt 2 ]; then
    echo "replay onto the killed backend did not retry (attempts='$oattempts'): $retry_out" >&2
    exit 1
fi
if ! printf '%s' "$retry_out" | grep -qF "\"backend\":\"$osurv_name\""; then
    echo "replayed job did not land on survivor $osurv_name: $retry_out" >&2
    exit 1
fi
# Forced-slow job: a full-scale run dwarfs every smoke sample above, so
# it finishes far beyond the rolling p99 and its trace must be kept.
slow_out="$(target/release/capsule-client "$ofleet_addr" --compact \
    '{"op":"run","scenario":"fig6_division_tree","scale":"full"}')"
slow_key="$(printf '%s' "$slow_out" | sed -n 's/.*"cache_key":"\([0-9a-f]*\)".*/\1/p')"
if [ -z "$slow_key" ]; then
    echo "slow job returned no cache_key: $slow_out" >&2
    exit 1
fi
# capsule-top --once must rank the survivor first and show the victim
# down (table columns: RANK NAME ADDR STATE ...).
top_out="$(target/release/capsule-top --once "$ofleet_addr")"
rank0="$(printf '%s\n' "$top_out" | awk '$1 == "0" { print $2 }')"
victim_state="$(printf '%s\n' "$top_out" | awk '$1 == "1" { print $4 }')"
if [ "$rank0" != "$osurv_name" ] || [ "$victim_state" != "down" ]; then
    echo "capsule-top ranking is wrong (rank0='$rank0' expected '$osurv_name', victim state='$victim_state'):" >&2
    printf '%s\n' "$top_out" >&2
    exit 1
fi
# The dump artifact must carry the dispatch-fault story in its flight
# ring: the retry leg and the backend going down.
dump_out="$(target/release/capsule-client "$ofleet_addr" dump --compact)"
for ev in '"kind":"retry"' '"kind":"backend-down"' '"schema":"capsule-dump/1"'; do
    case "$dump_out" in
        *"$ev"*) ;;
        *)
            echo "dump is missing $ev" >&2
            exit 1
            ;;
    esac
done
# Tail retention: the slow job's distributed tree is queryable by its
# cache key; the first fast job's was dropped.
oslow_trace="$(target/release/capsule-client "$ofleet_addr" trace "$slow_key" --compact)"
for span in '"name":"fleet.dispatch"' '"name":"serve.execute"'; do
    case "$oslow_trace" in
        *"$span"*) ;;
        *)
            echo "slow job's trace is missing $span:" >&2
            echo "$oslow_trace" >&2
            exit 1
            ;;
    esac
done
if target/release/capsule-client "$ofleet_addr" trace "$f1_key" --compact >/dev/null 2>&1; then
    echo "fast job 1's anonymous trace should have been tail-dropped" >&2
    exit 1
fi
echo "observability soak: survivor ranked first, retry dumped, tail sampling kept slow/dropped fast"
target/release/capsule-client "$ofleet_addr" shutdown --compact
target/release/capsule-client "$osurv_addr" shutdown --compact
wait "$ofleet_pid" "$osurv_pid" 2>/dev/null || true
wait "$ovictim_pid" 2>/dev/null || true
rm -f "$o1_log" "$o2_log" "$ofleet_log"

echo "==> checkpoint migration smoke test"
# A preempted job must migrate, not restart (docs/CHECKPOINT.md): two
# checkpointing backends behind a coordinator, preempt a long job
# mid-run, kill the backend it was parked on, and the fleet must resume
# it on the survivor from the carried checkpoint — with the final
# report byte-identical to a direct uninterrupted run. The generous
# --backoff-ms keeps the migrated retry parked long enough to kill the
# victim between the checkpoint fetch and the resume.
ref_log="$(mktemp)"
c1_log="$(mktemp)"
c2_log="$(mktemp)"
cfleet_log="$(mktemp)"
run_out="$(mktemp)"
target/release/capsule-serve --addr 127.0.0.1:0 --workers 2 --queue 8 >"$ref_log" 2>&1 &
ref_pid=$!
CAPSULE_SERVE_CHECKPOINT_CYCLES=50000 CAPSULE_SERVE_CHECKPOINTS=8 \
    target/release/capsule-serve --addr 127.0.0.1:0 --workers 2 --queue 8 >"$c1_log" 2>&1 &
c1_pid=$!
CAPSULE_SERVE_CHECKPOINT_CYCLES=50000 CAPSULE_SERVE_CHECKPOINTS=8 \
    target/release/capsule-serve --addr 127.0.0.1:0 --workers 2 --queue 8 >"$c2_log" 2>&1 &
c2_pid=$!
ref_addr="$(wait_addr "$ref_log")"
c1_addr="$(wait_addr "$c1_log")"
c2_addr="$(wait_addr "$c2_log")"
target/release/capsule-fleet --addr 127.0.0.1:0 \
    --backend "$c1_addr" --backend "$c2_addr" \
    --probe-ms 100 --backoff-ms 1000 >"$cfleet_log" 2>&1 &
cfleet_pid=$!
cfleet_addr="$(wait_addr "$cfleet_log")"
# Baseline: the same job, uninterrupted, on a plain server. Its
# response also yields the job's cache_key — the preempt/resume token.
base_out="$(target/release/capsule-client "$ref_addr" run ablation_policies smoke --compact)"
job_key="$(printf '%s' "$base_out" | sed -n 's/.*"cache_key":"\([0-9a-f]*\)".*/\1/p')"
base_report="${base_out#*\"report\":}"
if [ -z "$job_key" ] || [ "$base_report" = "$base_out" ]; then
    echo "baseline run produced no cache_key/report:" >&2
    echo "$base_out" >&2
    exit 1
fi
base_report="${base_report%\}}"
target/release/capsule-client "$cfleet_addr" run ablation_policies smoke --compact >"$run_out" &
run_pid=$!
# Preempt the in-flight job through the fleet. The first polls race the
# backend admission and answer not-running; keep trying until one
# lands or the job finishes.
p_out=""
i=0
while [ $i -lt 300 ]; do
    if p_out="$(target/release/capsule-client "$cfleet_addr" preempt "$job_key" --compact 2>/dev/null)"; then
        break
    fi
    p_out=""
    kill -0 "$run_pid" 2>/dev/null || break
    sleep 0.02
    i=$((i + 1))
done
if [ -z "$p_out" ]; then
    echo "preempt never landed; the job finished first:" >&2
    cat "$run_out" >&2
    exit 1
fi
victim="$(printf '%s' "$p_out" | sed -n 's/.*"backend":"\(b[01]\)".*/\1/p')"
if [ "$victim" = "b0" ]; then
    victim_pid=$c1_pid
    surv_name="b1"
    surv_addr="$c2_addr"
    surv_pid=$c2_pid
elif [ "$victim" = "b1" ]; then
    victim_pid=$c2_pid
    surv_name="b0"
    surv_addr="$c1_addr"
    surv_pid=$c1_pid
else
    echo "preempt response names no backend: $p_out" >&2
    exit 1
fi
# Wait for the coordinator to fetch the checkpoint off the victim, then
# kill the victim — the resume must not need it.
migrated=""
i=0
while [ $i -lt 100 ]; do
    migrated="$(target/release/capsule-client "$cfleet_addr" stats --compact \
        | sed -n 's/.*"jobs_migrated":\([0-9]*\).*/\1/p')"
    [ "$migrated" = "1" ] && break
    sleep 0.05
    i=$((i + 1))
done
if [ "$migrated" != "1" ]; then
    echo "fleet never fetched the checkpoint (jobs_migrated=$migrated)" >&2
    exit 1
fi
kill -9 "$victim_pid" 2>/dev/null || true
if ! wait "$run_pid"; then
    echo "migrated run failed:" >&2
    cat "$run_out" >&2
    exit 1
fi
fleet_out="$(cat "$run_out")"
if ! printf '%s' "$fleet_out" | grep -qF "\"backend\":\"$surv_name\""; then
    echo "resumed job did not land on survivor $surv_name:" >&2
    echo "$fleet_out" >&2
    exit 1
fi
if ! printf '%s' "$fleet_out" | grep -qF "\"report\":$base_report"; then
    echo "migrated report differs from the uninterrupted baseline" >&2
    exit 1
fi
attempts="$(printf '%s' "$fleet_out" | sed -n 's/.*"attempts":\([0-9]*\).*/\1/p')"
if [ "${attempts:-0}" -lt 2 ]; then
    echo "expected a migration retry (attempts >= 2), got '$attempts'" >&2
    exit 1
fi
resumed="$(target/release/capsule-client "$surv_addr" stats --compact \
    | sed -n 's/.*"jobs_resumed":\([0-9]*\).*/\1/p')"
if [ "$resumed" != "1" ]; then
    echo "survivor reports jobs_resumed=$resumed, expected 1 (restart instead of resume?)" >&2
    exit 1
fi
target/release/capsule-client "$cfleet_addr" shutdown --compact
target/release/capsule-client "$ref_addr" shutdown --compact
target/release/capsule-client "$surv_addr" shutdown --compact
wait "$cfleet_pid" "$ref_pid" "$surv_pid" 2>/dev/null || true
wait "$victim_pid" 2>/dev/null || true
rm -f "$ref_log" "$c1_log" "$c2_log" "$cfleet_log" "$run_out"

echo "CI gate passed."
