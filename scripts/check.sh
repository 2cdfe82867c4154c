#!/usr/bin/env bash
# Tier-1 verification plus lints: the exact gate a change must pass.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo build --release"
cargo build --release

echo "=== cargo test -q"
cargo test -q

# Oversubscribed test threads surface shared-state races (temp paths,
# ports) whatever the host's core count.
echo "=== cargo test -q -- --test-threads=8"
cargo test -q -- --test-threads=8

echo "=== cargo test --doc -q"
cargo test --doc -q

echo "=== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "=== record-suite smoke: recording and export match the committed seed-0 digest"
mkdir -p target/tmp
record_err="target/tmp/check-record-suite.err"
record_last="$(cargo run --release --offline -q -p gencache-perf -- \
  run --workload record-suite --seconds 1 2> "$record_err" | tail -n 1)" \
  || { echo "record-suite run failed"; cat "$record_err"; exit 1; }
case "$record_last" in
  *'"correct":true'*) rm -f "$record_err" ;;
  *) echo "record-suite run was not correct: $record_last"; cat "$record_err"; exit 1 ;;
esac

echo "=== explain smoke: event export round-trips through serde"
mkdir -p target/tmp
events="target/tmp/check-events.jsonl"
live_metrics="target/tmp/check-metrics-live.json"
sim_metrics="target/tmp/check-metrics-sim.json"
baseline="target/tmp/check-baseline.json"
regret_metrics="target/tmp/check-metrics-regret.json"
win_metrics="target/tmp/check-metrics-windows.json"
serve_metrics="target/tmp/check-metrics-serve.json"
serve_log="target/tmp/check-serve.log"
serve_events_log="target/tmp/check-serve-events.jsonl"
bad_events="target/tmp/check-bad-events.jsonl"
huge_events="target/tmp/check-huge-events.jsonl"
bad_err="target/tmp/check-bad-upload.err"
serve_pid=""
adaptive_events="target/tmp/check-adaptive-events.jsonl"
jobs1_metrics="target/tmp/check-metrics-jobs1.json"
jobs3_metrics="target/tmp/check-metrics-jobs3.json"
export_events="target/tmp/check-export-events.jsonl"
export_metrics="target/tmp/check-export-metrics.json"
stream_events="target/tmp/check-stream-events.jsonl"
stream_metrics="target/tmp/check-stream-metrics.json"
fleet_events="target/tmp/check-fleet-events.jsonl"
fleet_second="target/tmp/check-fleet-second.jsonl"
fleet_sim="target/tmp/check-metrics-fleet-sim.json"
fleet_served="target/tmp/check-metrics-fleet-served.json"
shard1_log="target/tmp/check-shard1.log"
shard2_log="target/tmp/check-shard2.log"
router_log="target/tmp/check-router.log"
shard1_pid=""
shard2_pid=""
router_pid=""
cleanup() {
  for pid in "$serve_pid" "$shard1_pid" "$shard2_pid" "$router_pid"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null
  done
  rm -f "$events" "$live_metrics" "$sim_metrics" "$baseline" "$regret_metrics" \
    "$win_metrics" "$adaptive_events" "$jobs1_metrics" "$jobs3_metrics" \
    "$export_events" "$export_metrics" "$stream_events" "$stream_metrics" \
    "$serve_metrics" "$serve_log" "$serve_events_log" \
    "$bad_events" "$huge_events" "$bad_err" \
    "$fleet_events" "$fleet_second" "$fleet_sim" "$fleet_served" \
    "$shard1_log" "$shard2_log" "$router_log"
}
trap cleanup EXIT

# Waits for a daemon to print its listen line and echoes the address.
await_addr() { # $1=log $2=pid $3=sed-pattern
  local addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n "$3" "$1")"
    [ -n "$addr" ] && break
    kill -0 "$2" 2>/dev/null || { cat "$1" >&2; return 1; }
    sleep 0.1
  done
  [ -n "$addr" ] || return 1
  echo "$addr"
}
./target/release/explain --bench word --scale 64 \
  --events-out "$events" --metrics-out "$live_metrics" > /dev/null
./target/release/explain --parse-events "$events"

echo "=== export identity smoke: materialized and streamed exports are byte-identical"
./target/release/fig9_miss_rates --scale 64 --suite interactive \
  --events-out "$export_events" --metrics-out "$export_metrics" > /dev/null
./target/release/fig9_miss_rates --scale 64 --suite interactive --stream \
  --events-out "$stream_events" --metrics-out "$stream_metrics" > /dev/null
cmp "$export_events" "$stream_events" \
  || { echo "streamed event export differs from the materialized one"; exit 1; }
cmp "$export_metrics" "$stream_metrics" \
  || { echo "streamed metrics doc differs from the materialized one"; exit 1; }

echo "=== delta smoke: stream diff reports a non-empty phase table"
delta_out="$(./target/release/delta "$events" --phases 6)"
echo "$delta_out" | grep -q "Equation 3 overhead ratio" \
  || { echo "delta printed no suite overhead ratio"; exit 1; }
rows="$(echo "$delta_out" | grep -cE '^[0-9]+ ')"
[ "$rows" -ge 1 ] \
  || { echo "delta phase table is empty"; exit 1; }

echo "=== simulate smoke: stream replay reproduces the live metrics doc"
./target/release/simulate --events "$events" \
  --metrics-out "$sim_metrics" --baseline-out "$baseline" > /dev/null
cmp "$live_metrics" "$sim_metrics" \
  || { echo "simulated metrics doc differs from the live export"; exit 1; }
./target/release/simulate --events "$events" --watch "$baseline" > /dev/null \
  || { echo "simulate --watch failed against a fresh baseline"; exit 1; }

echo "=== windows smoke: drift-annotated window series rides the metrics doc"
./target/release/simulate --events "$events" --windows \
  --metrics-out "$win_metrics" > /dev/null
grep -q '"windows":{"window_accesses":' "$win_metrics" \
  || { echo "windowed metrics doc has no windows section"; exit 1; }
grep -q '"annotations":\[' "$win_metrics" \
  || { echo "windows section has no annotations field"; exit 1; }
# The plain doc must not grow a windows section (byte stability).
grep -q '"windows":' "$sim_metrics" \
  && { echo "plain simulate doc unexpectedly carries windows"; exit 1; }

echo "=== regret smoke: oracle regret attribution is populated end to end"
./target/release/simulate --events "$events" --grid --oracle \
  --metrics-out "$regret_metrics" > /dev/null
grep -q '"regret":{"accesses":' "$regret_metrics" \
  || { echo "grid+oracle metrics doc has no regret section"; exit 1; }
grep -q '"contributors":\[{' "$regret_metrics" \
  || { echo "regret section names no contributor traces"; exit 1; }
# The un-oracled doc must not grow a regret section (byte stability).
grep -q '"regret":' "$sim_metrics" \
  && { echo "plain simulate doc unexpectedly carries regret"; exit 1; }
regret_out="$(./target/release/explain --bench word --scale 64 --oracle)"
echo "$regret_out" | grep -q "Oracle regret:" \
  || { echo "explain --oracle printed no regret summary"; exit 1; }
echo "$regret_out" | grep -q "Worst decisions:" \
  || { echo "explain --oracle printed no worst-decision narratives"; exit 1; }

echo "=== adaptive smoke: controller beats the worst static grid row and narrates its switches"
./target/release/explain --bench phaseflip --scale 16 \
  --events-out "$adaptive_events" > /dev/null
adaptive_out="$(./target/release/simulate --events "$adaptive_events" \
  --grid --oracle --spec adaptive)"
echo "$adaptive_out" | grep -q '=== adaptive vs static regret: phaseflip ===' \
  || { echo "simulate printed no adaptive-vs-static regret table"; exit 1; }
echo "$adaptive_out" | grep -qE 'verdict\[adaptive\]: adaptive beats' \
  || { echo "adaptive regret is not strictly below the worst static grid row"; \
       echo "$adaptive_out" | tail -8; exit 1; }
switch_out="$(./target/release/explain --bench phaseflip --scale 16 \
  --oracle --spec adaptive)"
echo "$switch_out" | grep -q "Adaptive controller" \
  || { echo "explain --spec adaptive printed no controller summary"; exit 1; }
echo "$switch_out" | grep -qE '^  epoch +[0-9]+ @ +[0-9]+µs: (probe|commit) ' \
  || { echo "explain --spec adaptive narrated no probe/commit switches"; exit 1; }

echo "=== jobs smoke: one doc with regret, windows and switches is identical at any --jobs"
./target/release/simulate --events "$adaptive_events" --grid --oracle --windows \
  --spec adaptive --jobs 1 --metrics-out "$jobs1_metrics" > /dev/null
./target/release/simulate --events "$adaptive_events" --grid --oracle --windows \
  --spec adaptive --jobs 3 --metrics-out "$jobs3_metrics" > /dev/null
grep -q '"switches":{' "$jobs1_metrics" \
  || { echo "adaptive grid doc has no switches section"; exit 1; }
cmp "$jobs1_metrics" "$jobs3_metrics" \
  || { echo "simulate metrics doc differs between --jobs 1 and --jobs 3"; exit 1; }

echo "=== serve smoke: daemon reply is byte-identical to offline simulate"
./target/release/gencache-serve --addr 127.0.0.1:0 \
  --log "$serve_events_log" --log-level info > "$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^gencache-serve listening on //p' "$serve_log")"
  [ -n "$addr" ] && break
  kill -0 "$serve_pid" 2>/dev/null || { cat "$serve_log"; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { echo "daemon never reported its address"; exit 1; }
./target/release/gencache-client submit --addr "$addr" --events "$events" \
  --metrics-out "$serve_metrics" --no-table 2> /dev/null
cmp "$sim_metrics" "$serve_metrics" \
  || { echo "served metrics doc differs from offline simulate"; exit 1; }
./target/release/gencache-client stats --addr "$addr" \
  | grep -q '"jobs_completed":1' \
  || { echo "stats did not report the completed job"; exit 1; }
# Every upload byte after the job frame is counted: the export itself
# plus the end frame and its newline.
events_lines=$(( $(wc -l < "$events") ))
end_frame="{\"type\":\"end\",\"lines\":$events_lines}"
want_bytes=$(( $(wc -c < "$events") + ${#end_frame} + 1 ))
./target/release/gencache-client stats --addr "$addr" \
  | grep -qE "\"bytes_ingested\":$want_bytes[,}]" \
  || { echo "stats did not count the upload's $want_bytes bytes exactly"; \
       ./target/release/gencache-client stats --addr "$addr"; exit 1; }
./target/release/gencache-client metrics --addr "$addr" \
  | grep -qx 'gencache_jobs_completed_total 1' \
  || { echo "metrics did not report the completed job"; exit 1; }
grep -q '"event":"job_admitted"' "$serve_events_log" \
  || { echo "structured log has no job_admitted record"; cat "$serve_events_log"; exit 1; }
./target/release/gencache-client watch --addr "$addr" --count 1 --plain \
  | grep -q "snapshot #0: 1 node(s)" \
  || { echo "watch returned no snapshot frame"; exit 1; }

echo "=== bad upload smoke: broken and oversize lines get an error reply"
# The first event line cut off mid-JSON.
awk '!cut && /"event":/ { print substr($0, 1, int(length($0) / 2)); cut = 1; next } { print }' \
  "$events" > "$bad_events"
if ./target/release/gencache-client submit --addr "$addr" --events "$bad_events" \
  --no-table > /dev/null 2> "$bad_err"; then
  echo "a truncated event line was accepted"; exit 1
fi
grep -q "unrecognized stream line" "$bad_err" \
  || { echo "truncated line error not reported"; cat "$bad_err"; exit 1; }
# A 2 MiB line inside the export.
{ head -n 3 "$events"; head -c 2097152 /dev/zero | tr '\0' x; echo; tail -n +4 "$events"; } \
  > "$huge_events"
if ./target/release/gencache-client submit --addr "$addr" --events "$huge_events" \
  --no-table > /dev/null 2> "$bad_err"; then
  echo "a 2 MiB line was accepted"; exit 1
fi
grep -q "1048576-byte line cap" "$bad_err" \
  || { echo "oversize line error does not name the cap"; cat "$bad_err"; exit 1; }
./target/release/gencache-client stats --addr "$addr" \
  | grep -q '"lines_rejected":1' \
  || { echo "stats did not count the rejected line"; exit 1; }
./target/release/gencache-client metrics --addr "$addr" \
  | grep -qx 'gencache_lines_rejected_total 1' \
  || { echo "metrics did not count the rejected line"; exit 1; }
./target/release/gencache-client submit --addr "$addr" --events "$events" \
  --metrics-out "$serve_metrics" --no-table 2> /dev/null
cmp "$sim_metrics" "$serve_metrics" \
  || { echo "served metrics doc differs after bad uploads"; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" \
  || { echo "daemon exited nonzero after SIGTERM"; exit 1; }
serve_pid=""
grep -q "drained, exiting" "$serve_log" \
  || { echo "daemon did not drain cleanly"; cat "$serve_log"; exit 1; }

echo "=== fleet smoke: router merge is byte-identical to offline simulate"
# A two-benchmark export so the router has something to split: reuse the
# word export and append a solitaire recording minus its header line.
./target/release/explain --bench solitaire --scale 64 \
  --events-out "$fleet_second" > /dev/null
cat "$events" > "$fleet_events"
tail -n +2 "$fleet_second" >> "$fleet_events"
./target/release/simulate --events "$fleet_events" --spec unified --grid \
  --metrics-out "$fleet_sim" > /dev/null

./target/release/gencache-serve --addr 127.0.0.1:0 > "$shard1_log" 2>&1 &
shard1_pid=$!
./target/release/gencache-serve --addr 127.0.0.1:0 > "$shard2_log" 2>&1 &
shard2_pid=$!
serve_pat='s/^gencache-serve listening on //p'
shard1_addr="$(await_addr "$shard1_log" "$shard1_pid" "$serve_pat")" \
  || { echo "shard 1 never reported its address"; exit 1; }
shard2_addr="$(await_addr "$shard2_log" "$shard2_pid" "$serve_pat")" \
  || { echo "shard 2 never reported its address"; exit 1; }
./target/release/gencache-shard --addr 127.0.0.1:0 \
  --backend "$shard1_addr" --backend "$shard2_addr" > "$router_log" 2>&1 &
router_pid=$!
router_addr="$(await_addr "$router_log" "$router_pid" \
  's/^gencache-shard listening on \([^ ]*\).*/\1/p')" \
  || { echo "router never reported its address"; exit 1; }

./target/release/gencache-client submit --addr "$router_addr" \
  --events "$fleet_events" --spec unified --grid \
  --metrics-out "$fleet_served" --no-table 2> /dev/null
cmp "$fleet_sim" "$fleet_served" \
  || { echo "fleet metrics doc differs from offline simulate"; exit 1; }
fleet_stats="$(./target/release/gencache-client stats --addr "$router_addr")"
echo "$fleet_stats" | grep -q '"fleet_jobs":1' \
  || { echo "router stats did not report the fleet job: $fleet_stats"; exit 1; }
echo "$fleet_stats" | grep -q '"shards_up":2' \
  || { echo "router stats did not see both shards: $fleet_stats"; exit 1; }
./target/release/gencache-client shards --addr "$router_addr" \
  | grep -q '"up":true' \
  || { echo "shard table reports no healthy shard"; exit 1; }
router_metrics="$(./target/release/gencache-client metrics --addr "$router_addr")"
[ -n "$router_metrics" ] \
  || { echo "router metrics frame came back empty"; exit 1; }
echo "$router_metrics" | grep -q '^gencache_' \
  || { echo "router metrics expose no gencache_ series: $router_metrics"; exit 1; }

kill -TERM "$router_pid"
wait "$router_pid" \
  || { echo "router exited nonzero after SIGTERM"; exit 1; }
router_pid=""
grep -q "drained, exiting" "$router_log" \
  || { echo "router did not drain cleanly"; cat "$router_log"; exit 1; }
for pid in "$shard1_pid" "$shard2_pid"; do
  kill -TERM "$pid"
  wait "$pid" || { echo "shard exited nonzero after SIGTERM"; exit 1; }
done
shard1_pid=""
shard2_pid=""
grep -q "drained, exiting" "$shard1_log" && grep -q "drained, exiting" "$shard2_log" \
  || { echo "a shard did not drain cleanly"; exit 1; }

echo "all checks passed"
