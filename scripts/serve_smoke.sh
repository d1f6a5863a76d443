#!/usr/bin/env bash
# Serving-mode smoke: build leaserved + leaload, run a short mixed-workload
# load against a loopback daemon, and require zero failed requests, warm
# template-cache traffic (hits and incremental solves), a 429 under
# deliberate overload, a 4-shard configuration that keeps the warm-cache
# ratio, and a clean SIGTERM drain. CI runs this after the unit tests; it is also handy
# locally: scripts/serve_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
bin="$(mktemp -d)"
# Kill any daemon still running on exit: a gate failing mid-script must not
# leak servers that hold the ports and poison the next run. Daemons that
# already exited make kill fail, which must not turn a passing run's exit
# status into a failure under set -e.
trap 'kill ${srv:-} ${srv2:-} ${srv3:-} 2>/dev/null || true; rm -rf "$bin"' EXIT

go build -o "$bin/leaserved" ./cmd/leaserved
go build -o "$bin/leaload" ./cmd/leaload

addr=127.0.0.1:8311
"$bin/leaserved" -addr "$addr" -workers 4 -queue 64 >"$bin/serve.log" 2>&1 &
srv=$!
for i in $(seq 1 50); do
  curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "http://$addr/healthz" >/dev/null

# Mixed closed-loop load; -strict fails on any failed request and
# -require-warm fails unless the server reports cache hits AND incremental
# solves, so the warm template path is proven, not assumed.
"$bin/leaload" -url "http://$addr" -workers 4 -duration 2s \
  -mix random=1,hlsbench=1,figures=1 -seed 1 -strict -require-warm \
  -json | tee "$bin/load.json"

# Overload: a one-worker, one-slot daemon with its worker and queue pinned by
# slow big-program requests must answer the next request with HTTP 429.
prog='task big\nblock b\nin v0 v1\n'
for i in $(seq 2 120); do
  prog+="v$i = v$((i-1)) + v$((i-2))\n"
done
prog+="v121 = v120 * v119\nout v121\nend\n"
printf '{"program":"%s","options":{"registers":4}}' "$prog" >"$bin/big.json"

addr2=127.0.0.1:8312
"$bin/leaserved" -addr "$addr2" -workers 1 -queue 1 >"$bin/serve2.log" 2>&1 &
srv2=$!
for i in $(seq 1 50); do
  curl -fsS "http://$addr2/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

saw429=0
for attempt in $(seq 1 5); do
  : >"$bin/codes"
  pids=()
  for i in $(seq 1 24); do
    curl -s -o /dev/null -w '%{http_code}\n' -X POST \
      --data-binary "@$bin/big.json" "http://$addr2/v1/allocate" >>"$bin/codes" &
    pids+=("$!")
  done
  wait "${pids[@]}" || true
  if grep -q '^429$' "$bin/codes"; then
    saw429=1
    break
  fi
done
if [ "$saw429" -ne 1 ]; then
  echo "smoke: no HTTP 429 observed under overload" >&2
  exit 1
fi
echo "smoke: overload produced HTTP 429"
kill -TERM "$srv2"
wait "$srv2"

# Sharded serving: a 4-shard fleet with one worker per shard. The gates:
# zero failed requests (-strict), warm traffic on every shard
# (-require-warm over the merged stats), per-shard metric labels, four
# per-shard /statsz blocks, and a warm-hit ratio no worse than the
# single-shard run (affinity routing must keep each program's templates hot
# on its owning shard; 2% covers the extra per-shard cold misses).
addr3=127.0.0.1:8313
"$bin/leaserved" -addr "$addr3" -shards 4 -workers 1 -queue 256 \
  >"$bin/serve3.log" 2>&1 &
srv3=$!
for i in $(seq 1 50); do
  curl -fsS "http://$addr3/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "http://$addr3/healthz" >/dev/null

"$bin/leaload" -url "http://$addr3" -workers 32 -duration 2s \
  -mix random=1,hlsbench=1,figures=1 -instrs 40 -shapes 6 -seed 1 \
  -strict -require-warm -json >"$bin/load4.json"

curl -fsS "http://$addr3/metrics" >"$bin/metrics4.txt"
grep -q 'requests_total{shard="3"}' "$bin/metrics4.txt" || {
  echo "smoke: /metrics missing per-shard labels" >&2
  exit 1
}
curl -fsS "http://$addr3/statsz" >"$bin/stats4.json"

python3 - "$bin/load.json" "$bin/load4.json" "$bin/stats4.json" <<'PY'
import json, sys

one = json.load(open(sys.argv[1]))
four = json.load(open(sys.argv[2]))
s1, s4 = one["server"], four["server"]
statsz = json.load(open(sys.argv[3]))

def warm_ratio(s):
    total = s["cache_hits"] + s["cache_misses"]
    return s["cache_hits"] / total if total else 0.0

r1, r4 = warm_ratio(s1), warm_ratio(s4)
if len(statsz.get("shards", [])) != 4:
    sys.exit(f"smoke: expected 4 shard stat blocks in /statsz, got {len(statsz.get('shards', []))}")
if r4 + 0.02 < r1:
    sys.exit(f"smoke: sharded warm-hit ratio {r4:.4f} fell below single-shard {r1:.4f}")
print(f"smoke: 4-shard run ok — warm ratio {r4:.4f} vs single-shard {r1:.4f}")
print(f"smoke: throughput single-shard {one['throughput_rps']:.0f} req/s, "
      f"4-shard {four['throughput_rps']:.0f} req/s")
PY

kill -TERM "$srv3"
wait "$srv3"
grep -q 'shutdown clean' "$bin/serve3.log" || {
  echo "smoke: sharded daemon missing clean-shutdown log line" >&2
  cat "$bin/serve3.log" >&2
  exit 1
}

# Graceful drain: SIGTERM must exit 0 and log a clean shutdown.
kill -TERM "$srv"
wait "$srv"
grep -q 'shutdown clean' "$bin/serve.log" || {
  echo "smoke: missing clean-shutdown log line" >&2
  cat "$bin/serve.log" >&2
  exit 1
}
echo "smoke: clean drain confirmed"
