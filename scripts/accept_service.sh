#!/usr/bin/env bash
# Acceptance run for the networked verified-memory service: one memverifyd
# hosting four tenants (one per tree scheme) must absorb a 1M-op mixed
# workload from 100 concurrent client workers — four parallel loadgen
# -remote processes, 25 workers each — with zero mirror mismatches and a
# clean final verification per tenant, stay metricscheck-clean on a live
# scrape while under load, contain a tampered tenant to a 503 for that
# tenant only, and exit 0 on SIGTERM with a flight record that carries the
# signal event. Knobs: OPS (per worker), WORKERS (per tenant), PERSIST=1
# to run the tenants on a checkpointed store.
set -euo pipefail
cd "$(dirname "$0")/.."

OPS=${OPS:-10000}
WORKERS=${WORKERS:-25}

tmp=$(mktemp -d -t memverify-accept.XXXXXX)
cleanup() {
  [ -n "${mvdpid:-}" ] && kill "$mvdpid" 2>/dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/memverifyd" ./cmd/memverifyd
go build -o "$tmp/loadgen" ./cmd/loadgen
go build -o "$tmp/metricscheck" ./cmd/metricscheck

persist_args=()
if [ "${PERSIST:-0}" = "1" ]; then
  persist_args=(-persist "$tmp/store" -checkpoint-every 5s)
fi

"$tmp/memverifyd" -listen 127.0.0.1:0 \
  -tenants 'naive:scheme=naive,cached:scheme=c,multi:scheme=m,guard:scheme=c;policy=halt' \
  -protected $((8 << 20)) -allow-tamper -sample-every 250ms \
  -flight "$tmp/flight.json" "${persist_args[@]}" >"$tmp/mvd.log" 2>&1 &
mvdpid=$!
addr=""
for _ in $(seq 1 200); do
  addr=$(sed -n 's#^memverifyd: serving on http://\([^ ]*\).*#\1#p' "$tmp/mvd.log" | head -1)
  [ -n "$addr" ] && break
  sleep 0.05
done
[ -n "$addr" ] || { echo "FAIL: memverifyd never came up" >&2; exit 1; }
echo "memverifyd up at $addr ($WORKERS workers x $OPS ops x 4 tenants = $((4 * WORKERS * OPS)) ops)"

# The 100-connection barrage: four loadgens in parallel, one per tenant.
pids=()
for tenant in naive cached multi guard; do
  "$tmp/loadgen" -remote "$addr" -tenant "$tenant" -workload mixed \
    -workers "$WORKERS" -ops "$OPS" >"$tmp/$tenant.out" 2>&1 &
  pids+=($!)
done
# Live scrape mid-load: the exposition must already be structurally clean.
sleep 1
curl -fsS "http://$addr/metrics" >"$tmp/scrape1.prom"
"$tmp/metricscheck" "$tmp/scrape1.prom"
failed=0
for i in 0 1 2 3; do
  wait "${pids[$i]}" || failed=1
done
if [ "$failed" -ne 0 ]; then
  echo "FAIL: a tenant's mirror-checked leg failed:" >&2
  tail -5 "$tmp"/*.out >&2
  exit 1
fi
grep -h 'ops_per_sec' "$tmp"/*.out
# Second scrape: counters must be monotonic against the mid-load baseline.
"$tmp/metricscheck" -url "http://$addr/metrics" -prev "$tmp/scrape1.prom"

# Containment: tamper one tenant, its leg must fail while another still
# serves and overall health only degrades.
if "$tmp/loadgen" -remote "$addr" -tenant guard -workers 2 -ops 500 -tamper 0 >/dev/null 2>&1; then
  echo "FAIL: tampered tenant passed its loadgen leg" >&2
  exit 1
fi
"$tmp/loadgen" -remote "$addr" -tenant cached -workers 2 -ops 500 >/dev/null
"$tmp/metricscheck" -get "http://$addr/healthz" | grep -q '"status": "degraded"' || {
  echo "FAIL: tampered tenant did not degrade /healthz" >&2; exit 1; }

# SIGTERM mid-run: kill the daemon while a fresh leg is still sending.
# The daemon must drain what it admitted and exit 0; the orphaned client
# fails, which is its problem, not the daemon's.
"$tmp/loadgen" -remote "$addr" -tenant cached -workers 10 -ops 100000 \
  >/dev/null 2>&1 &
lastpid=$!
sleep 0.5
kill -TERM "$mvdpid"
set +e
wait "$mvdpid"
status=$?
wait "$lastpid" 2>/dev/null
set -e
mvdpid=""
[ "$status" -eq 0 ] || { echo "FAIL: memverifyd exited $status on SIGTERM" >&2; exit 1; }
grep -q '"kind": "signal"' "$tmp/flight.json" || {
  echo "FAIL: flight record missing the signal event" >&2; exit 1; }
echo "service acceptance OK"
