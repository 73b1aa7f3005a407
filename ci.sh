#!/usr/bin/env bash
# Repository gate: build everything, vet, and run the full test suite under
# the race detector (the parallel sweep engine makes -race load-bearing).
set -euo pipefail
cd "$(dirname "$0")"

go build ./...
go vet ./...
go test -race ./...
# The benchmark is a module of its own over internal/...: vet and test it
# where it lives (tier-1's TestBenchModule runs the same line).
(cd bench && go vet ./... && go test ./...)
# The gates below add what the -race run cannot show: the thousand-
# injection chaos campaign (skipped under -race), the command-line and
# multi-process legs, fuzzing and the wall-clock ratios.

# Timing-only smoke sweep: one figure functionally with digests switched
# off — the fast path every functional sweep is expected to use. The 1 GiB
# protected region only validates because timing mode skips the tree.
go run ./cmd/figures -fig5 -n 20000 -warmup 10000 \
  -functional -hashmode timing -protected $((1 << 30)) >/dev/null
echo "timing-only functional sweep OK"

# Adversary gate: every tree scheme must detect every attack class in the
# end-to-end tamper demo (the command exits nonzero on a miss).
go run ./cmd/tamper >/dev/null
echo "tamper gate OK"

# Seeded chaos mini-campaign: 100 fault injections (25 per tree scheme)
# must all be detected with zero false positives on the paired clean runs.
# Identical seeds produce byte-identical reports, so this doubles as a
# determinism regression. The same campaign machinery also runs under the
# race detector as part of `go test -race ./...` above (TestCampaignCI);
# the full thousand-injection acceptance campaign runs race-free here.
go run ./cmd/chaos -n 25 -seed 7 >/dev/null
go test -run 'TestCampaignAcceptance|TestCampaignDeterministic' ./internal/chaos/
echo "chaos campaign gate OK"

# Verification-cache gate: with tree nodes in a dedicated verification
# cache, a chaos mini-campaign must keep 100% detection with zero
# clean-run false positives. (Its equivalence against a shared-L2
# machine, TestVerifyCacheEquivalence, runs race-clean with the suite
# above.)
go run ./cmd/chaos -n 25 -seed 11 -verify-cache 32 -verify-assoc 4 >/dev/null
echo "verification cache gate OK"

# Sharded-store gate: the loadgen smoke must verify clean traffic (it
# exits nonzero on any violation or mirror mismatch) for all four tree
# schemes. The tamper leg asserts the opposite: a corrupted shard must be
# detected and fail the run. (The store's race-clean equivalence to a
# single machine runs with the suite above.)
for scheme in naive c m i; do
  go run ./cmd/loadgen -scheme "$scheme" -shards 4 -workers 2 -ops 2000 >/dev/null
done
if go run ./cmd/loadgen -shards 2 -workers 2 -ops 500 -tamper 1 >/dev/null 2>&1; then
  echo "FAIL: loadgen did not detect the tampered shard" >&2
  exit 1
fi
echo "sharded store gate OK"

# Persistence gate: a seeded 200-leg campaign (50 per tree scheme: kills
# at every commit-protocol stage plus on-disk tampering with bases, deltas
# and the chains between them) must recover every clean crash to the
# exact sealed root and detect every tamper — cmd/chaos -crash exits
# nonzero on any false positive, root mismatch, or miss. (The kill-point,
# chain-is-the-image and short-write properties run race-clean with the
# suite above.)
go run ./cmd/chaos -crash -n 50 -seed 17 >/dev/null
# End-to-end kill/restart walkthrough: loadgen dies mid-checkpoint (exit 3
# by contract), restart must classify the crash and keep serving; a replayed
# stale snapshot under the sealed WAL must classify as a violation, and a
# clean-recovery expectation on that replay must fail.
ptmp=$(mktemp -d -t memverify-persist.XXXXXX)
lg="$ptmp/loadgen"
go build -o "$lg" ./cmd/loadgen
set +e
"$lg" -scheme c -shards 2 -workers 2 -ops 1500 -checkpoint-every 500 \
  -protected 131072 -persist "$ptmp/store" -kill-after 2 -kill-stage manifest-write >/dev/null 2>&1
status=$?
set -e
if [ "$status" -ne 3 ]; then
  echo "FAIL: loadgen kill point exited $status, want 3" >&2
  exit 1
fi
"$lg" -scheme c -shards 2 -workers 2 -ops 500 -checkpoint-every 500 \
  -protected 131072 -persist "$ptmp/store" -restart >/dev/null
cp -r "$ptmp/store" "$ptmp/stash"
"$lg" -scheme c -shards 2 -workers 2 -ops 500 -checkpoint-every 500 \
  -protected 131072 -persist "$ptmp/store" -restart >/dev/null
rm -f "$ptmp/store"/seg-*
cp "$ptmp/stash"/seg-* "$ptmp/stash/MANIFEST" "$ptmp/store/"
if "$lg" -scheme c -shards 2 -workers 2 -ops 500 -protected 131072 \
  -persist "$ptmp/store" -restart -expect-outcome recovered-clean,recovered-torn >/dev/null 2>&1; then
  echo "FAIL: stale-snapshot replay was accepted as a clean recovery" >&2
  exit 1
fi
"$lg" -scheme c -shards 2 -workers 2 -ops 500 -protected 131072 \
  -persist "$ptmp/store" -restart -expect-outcome violation >/dev/null
rm -rf "$ptmp"
echo "persistence gate OK"

# Hygiene gate: no compiled or executable blob may be tracked. Shell
# scripts are the only files allowed to carry the executable bit, and
# nothing tracked may be an ELF/Mach-O binary.
while IFS= read -r f; do
  case "$f" in *.sh) continue ;; esac
  if [ -x "$f" ]; then
    echo "FAIL: tracked file $f is executable but not a script" >&2
    exit 1
  fi
  if head -c 4 "$f" | grep -q $'^\x7fELF\|^\xcf\xfa\xed\xfe'; then
    echo "FAIL: tracked file $f is a compiled binary" >&2
    exit 1
  fi
done < <(git ls-files)
echo "no tracked binaries OK"

# Telemetry gate: a traced smoke simulation and a traced Figure-5 point
# must produce Chrome trace JSON that parses with well-nested,
# timestamp-monotonic spans on every thread, plus a metrics snapshot
# matching the memverify-metrics-v1 schema (cmd/tracecheck validates both).
tmp=$(mktemp -d -t memverify-telemetry.XXXXXX)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/simulate -scheme c -bench swim -n 30000 \
  -trace "$tmp/sim.trace.json" -metrics "$tmp/sim.metrics.json" >/dev/null
go run ./cmd/tracecheck -min-spans 1000 \
  -trace "$tmp/sim.trace.json" -metrics "$tmp/sim.metrics.json" >/dev/null
go run ./cmd/figures -fig5 -n 10000 -warmup 5000 \
  -trace "$tmp/fig5.trace.json" -metrics "$tmp/fig5.metrics.json" >/dev/null
go run ./cmd/tracecheck -min-spans 1000 \
  -trace "$tmp/fig5.trace.json" -metrics "$tmp/fig5.metrics.json" >/dev/null
echo "telemetry trace/metrics gate OK"

# Telemetry overhead gate: with no recorder attached the emission sites
# must not allocate (pinned per-site and at whole-run scope; exact, so it
# fails the build). The disabled leg of BenchmarkTelemetryOverhead is then
# compared with the uninstrumented BenchmarkSimulatorThroughput/c on the
# same workload. The contract is 2%, but a wall-clock 2% verdict flaked
# repeatedly on a shared 2-vCPU host (once by +41%) in four consecutive
# change sets, so the ratio is printed against the 2% budget and fails
# only past 25%, the wall-clock bound of BENCHMARK.json. Min over three
# repetitions.
go test -run 'ZeroAllocs|TestDisabledTelemetryAllocsAreConstructionOnly' \
  ./internal/telemetry/ .
go test -run '^$' -bench '(BenchmarkSimulatorThroughput|BenchmarkTelemetryOverhead)/(c$|disabled)' \
  -benchtime 50x -count 3 . | awk '
  $1 ~ /^BenchmarkSimulatorThroughput\/c(-[0-9]+)?$/      { if (base == "" || $3 < base) base = $3 }
  $1 ~ /^BenchmarkTelemetryOverhead\/disabled(-[0-9]+)?$/ { if (dis == "" || $3 < dis) dis = $3 }
  END {
    if (base == "" || dis == "") { print "FAIL: benchmark output missing"; exit 1 }
    delta = (dis - base) / base
    printf "telemetry disabled overhead: base %d ns/op, disabled %d ns/op (%+.1f%%, budget 2%%)\n", base, dis, 100 * delta
    if (delta > 0.25) { print "FAIL: disabled telemetry exceeds the 25% wall-clock bound"; exit 1 }
  }'
echo "telemetry overhead gate OK"

# Live ops gate: a multi-shard loadgen must serve a metricscheck-clean
# Prometheus exposition while traffic runs — structurally legal text
# format, counters monotonic across two scrapes — with /healthz healthy
# and the sampler's progress line on stderr. -ops-listen :0 plus grepping
# the logged URL keeps the gate parallel-safe.
otmp=$(mktemp -d -t memverify-ops.XXXXXX)
go build -o "$otmp/loadgen" ./cmd/loadgen
go build -o "$otmp/metricscheck" ./cmd/metricscheck
ops_url() { # $1: stderr log; prints host:port once the server announced it
  sed -n 's#^ops: listening on http://##p' "$1" | head -1
}
"$otmp/loadgen" -scheme c -shards 4 -workers 2 -ops 300000 \
  -ops-listen 127.0.0.1:0 -sample-every 100ms -ops-linger 15s \
  >/dev/null 2>"$otmp/lg.log" &
lgpid=$!
addr=""
for _ in $(seq 1 200); do
  addr=$(ops_url "$otmp/lg.log")
  [ -n "$addr" ] && break
  sleep 0.05
done
if [ -z "$addr" ]; then
  echo "FAIL: loadgen never logged its ops URL" >&2
  exit 1
fi
"$otmp/metricscheck" -get "http://$addr/healthz" | grep -q '"status": "healthy"' || {
  echo "FAIL: /healthz not healthy on a clean run" >&2; exit 1; }
curl -fsS "http://$addr/metrics" >"$otmp/scrape1.prom"
sleep 0.3
curl -fsS "http://$addr/metrics" >"$otmp/scrape2.prom"
"$otmp/metricscheck" "$otmp/scrape1.prom" >/dev/null
"$otmp/metricscheck" -prev "$otmp/scrape1.prom" "$otmp/scrape2.prom"
curl -fsS "http://$addr/vars" | head -c 1 | grep -q '{' || {
  echo "FAIL: /vars is not JSON" >&2; exit 1; }
grep -q '^loadgen: status ops/sec=' "$otmp/lg.log" || {
  echo "FAIL: no sampler progress line on stderr" >&2; exit 1; }
kill "$lgpid" 2>/dev/null || true
wait "$lgpid" 2>/dev/null || true
# Tamper leg: one corrupted shard of four must flip /healthz to degraded
# (tamper containment — the surviving shards keep serving, so the status
# stays HTTP 200 with a degraded body) and the flight dump must attribute
# the violation to the tampered shard and record its halt.
"$otmp/loadgen" -shards 4 -workers 2 -ops 1500 -policy halt -tamper 1 \
  -ops-listen 127.0.0.1:0 -ops-linger 5s -flight "$otmp/flight.json" \
  >/dev/null 2>"$otmp/tamper.log" &
tpid=$!
for _ in $(seq 1 200); do
  grep -q 'ops server lingering' "$otmp/tamper.log" && break
  sleep 0.05
done
taddr=$(ops_url "$otmp/tamper.log")
if [ -z "$taddr" ]; then
  echo "FAIL: tamper loadgen never logged its ops URL" >&2
  exit 1
fi
"$otmp/metricscheck" -get "http://$taddr/healthz" >"$otmp/tamper-health.json" || true
grep -q '"status": "degraded"' "$otmp/tamper-health.json" || {
  echo "FAIL: tampered store /healthz did not report degraded" >&2; exit 1; }
grep -q '"halted_shards": 1' "$otmp/tamper-health.json" || {
  echo "FAIL: tampered store /healthz did not count the halted shard" >&2; exit 1; }
set +e
wait "$tpid"
tstatus=$?
set -e
if [ "$tstatus" -eq 0 ]; then
  echo "FAIL: tamper leg exited 0" >&2
  exit 1
fi
grep -q '"kind": "violation", "seq": [0-9]*, "shard": 1' "$otmp/flight.json" || {
  echo "FAIL: flight dump does not attribute the violation to shard 1" >&2; exit 1; }
grep -q '"kind": "shard-halt"' "$otmp/flight.json" || {
  echo "FAIL: flight dump missing the shard-halt event" >&2; exit 1; }
rm -rf "$otmp"
echo "live ops gate OK"

# Ops overhead gate: with -ops-listen up but nobody scraping, store
# traffic is compared with the no-ops baseline. As with the telemetry
# overhead gate, the ratio is printed against the 2% budget and fails only
# past the 25% wall-clock bound (its 2% verdict flaked just as often).
# Min over three repetitions; 30000 iterations span at least one full
# sampler tick at the default cadence.
go test -run '^$' -bench 'BenchmarkStoreOps(Baseline|EnabledUnscraped)' \
  -benchtime 30000x -count 3 ./internal/obs/ | awk '
  $1 ~ /^BenchmarkStoreOpsBaseline(-[0-9]+)?$/         { if (base == "" || $3 < base) base = $3 }
  $1 ~ /^BenchmarkStoreOpsEnabledUnscraped(-[0-9]+)?$/ { if (en == "" || $3 < en) en = $3 }
  END {
    if (base == "" || en == "") { print "FAIL: benchmark output missing"; exit 1 }
    delta = (en - base) / base
    printf "ops enabled-unscraped overhead: base %d ns/op, enabled %d ns/op (%+.1f%%, budget 2%%)\n", base, en, 100 * delta
    if (delta > 0.25) { print "FAIL: enabled-unscraped ops surface exceeds the 25% wall-clock bound"; exit 1 }
  }'
echo "ops overhead gate OK"

# Service gate: memverifyd on an ephemeral port must serve mirror-checked
# remote loadgen traffic for every tenant, contain a tampered tenant to
# that tenant (503s for it, clean service and a degraded-not-unhealthy
# /healthz for the rest), survive two metricscheck-clean live scrapes with
# monotonic counters, and dump a flight record with the signal event on
# SIGTERM. The daemon and loadgen are race-built: the batch path reuses
# per-request state on both ends (a client Batch its request, the service
# pooled decode state), so every leg below is also a race check of it, and
# a race in the daemon makes its SIGTERM exit nonzero.
stmp=$(mktemp -d -t memverify-service.XXXXXX)
go build -race -o "$stmp/memverifyd" ./cmd/memverifyd
go build -race -o "$stmp/loadgen" ./cmd/loadgen
go build -o "$stmp/metricscheck" ./cmd/metricscheck
"$stmp/memverifyd" -listen 127.0.0.1:0 \
  -tenants 't0,t1:scheme=naive,t2:scheme=m,t3:scheme=i;policy=halt' \
  -protected $((1 << 21)) -allow-tamper -sample-every 100ms \
  -flight "$stmp/flight.json" >"$stmp/mvd.log" 2>&1 &
mvdpid=$!
saddr=""
for _ in $(seq 1 200); do
  saddr=$(sed -n 's#^memverifyd: serving on http://\([^ ]*\).*#\1#p' "$stmp/mvd.log" | head -1)
  [ -n "$saddr" ] && break
  sleep 0.05
done
if [ -z "$saddr" ]; then
  echo "FAIL: memverifyd never logged its serving URL" >&2
  exit 1
fi
"$stmp/metricscheck" -get "http://$saddr/healthz" | grep -q '"status": "healthy"' || {
  echo "FAIL: fresh memverifyd /healthz not healthy" >&2; exit 1; }
for tenant in t0 t1 t2 t3; do
  "$stmp/loadgen" -remote "$saddr" -tenant "$tenant" -workers 4 -ops 2000 >/dev/null
done
# Two loadgen processes at once on one tenant: concurrent connections
# through the same pooled state. Both run read-only with mirror checks on
# — each zeroes the tenant first and owns the stripes from offset 0, so
# two writing runs would fail each other's mirrors; the write path ran
# race-built in the legs above.
"$stmp/loadgen" -remote "$saddr" -tenant t0 -workers 4 -ops 2000 -write-frac 0 >"$stmp/race1.log" 2>&1 &
r1=$!
"$stmp/loadgen" -remote "$saddr" -tenant t0 -workers 4 -ops 2000 -write-frac 0 -seed 2 >"$stmp/race2.log" 2>&1 &
r2=$!
set +e
wait "$r1"; s1=$?
wait "$r2"; s2=$?
set -e
if [ "$s1" -ne 0 ] || [ "$s2" -ne 0 ] || grep -q 'DATA RACE' "$stmp/race1.log" "$stmp/race2.log"; then
  cat "$stmp/race1.log" "$stmp/race2.log" >&2
  echo "FAIL: concurrent race-built loadgen legs on t0 exited $s1/$s2 or raced" >&2
  exit 1
fi
curl -fsS "http://$saddr/metrics" >"$stmp/scrape1.prom"
"$stmp/metricscheck" "$stmp/scrape1.prom" >/dev/null
sleep 0.3
"$stmp/metricscheck" -url "http://$saddr/metrics" -prev "$stmp/scrape1.prom" >/dev/null
# Tamper leg: corrupting halt-policy tenant t3 must fail its loadgen run...
if "$stmp/loadgen" -remote "$saddr" -tenant t3 -workers 2 -ops 500 -tamper 0 >/dev/null 2>&1; then
  echo "FAIL: remote loadgen did not detect the tampered tenant" >&2
  exit 1
fi
# ...503 its subsequent traffic, degrade (not kill) the service, and leave
# the neighbors serving mirror-clean.
"$stmp/metricscheck" -get "http://$saddr/healthz" >"$stmp/health.json" || true
grep -q '"status": "degraded"' "$stmp/health.json" || {
  echo "FAIL: tampered tenant did not degrade /healthz" >&2; exit 1; }
grep -q 'tenant t3' "$stmp/health.json" || {
  echo "FAIL: /healthz detail does not attribute the halt to tenant t3" >&2; exit 1; }
"$stmp/loadgen" -remote "$saddr" -tenant t0 -workers 2 -ops 500 >/dev/null || {
  echo "FAIL: healthy tenant t0 stopped serving after t3 was tampered" >&2; exit 1; }
kill -TERM "$mvdpid"
set +e
wait "$mvdpid"
mstatus=$?
set -e
if [ "$mstatus" -ne 0 ]; then
  echo "FAIL: memverifyd exited $mstatus on SIGTERM, want a clean 0" >&2
  exit 1
fi
grep -q '"kind": "signal"' "$stmp/flight.json" || {
  echo "FAIL: flight dump missing the SIGTERM signal event" >&2; exit 1; }
grep -q 'shutdown complete' "$stmp/mvd.log" || {
  echo "FAIL: memverifyd did not log a graceful shutdown" >&2; exit 1; }
if grep -q 'DATA RACE' "$stmp/mvd.log"; then
  echo "FAIL: race-built memverifyd reported a data race" >&2; exit 1
fi
# Persisted leg: checkpoints every 20 ms freeze each shard's pages and
# stream them to disk while writing, mirror-checked loadgen traffic keeps
# storing to those shards; SIGTERM seals a final epoch, and a restart on
# the same root must recover every tenant clean and serve healthy.
serving_url() { # $1: daemon log; prints host:port once it announced it
  for _ in $(seq 1 200); do
    u=$(sed -n 's#^memverifyd: serving on http://\([^ ]*\).*#\1#p' "$1" | head -1)
    [ -n "$u" ] && { echo "$u"; return 0; }
    sleep 0.05
  done
  return 1
}
"$stmp/memverifyd" -listen 127.0.0.1:0 -tenants 't0,t1:scheme=m' \
  -protected $((1 << 21)) -persist "$stmp/p" -checkpoint-every 20ms >"$stmp/pd1.log" 2>&1 &
pdpid=$!
paddr=$(serving_url "$stmp/pd1.log") || {
  echo "FAIL: persisted memverifyd never logged its serving URL" >&2; exit 1; }
for tenant in t0 t1; do
  if ! "$stmp/loadgen" -remote "$paddr" -tenant "$tenant" -workers 4 -ops 4000 >"$stmp/pl-$tenant.log" 2>&1 ||
    grep -q 'DATA RACE' "$stmp/pl-$tenant.log"; then
    cat "$stmp/pl-$tenant.log" >&2
    echo "FAIL: writing loadgen against the checkpointing daemon (tenant $tenant) failed or raced" >&2
    exit 1
  fi
done
kill -TERM "$pdpid"
set +e
wait "$pdpid"
pstatus=$?
set -e
if [ "$pstatus" -ne 0 ] || grep -q 'DATA RACE\|periodic checkpoint:' "$stmp/pd1.log" ||
  ! grep -q 'final checkpoint sealed' "$stmp/pd1.log"; then
  cat "$stmp/pd1.log" >&2
  echo "FAIL: checkpointing memverifyd exited $pstatus, raced, or failed a checkpoint" >&2
  exit 1
fi
"$stmp/memverifyd" -listen 127.0.0.1:0 -tenants 't0,t1:scheme=m' \
  -protected $((1 << 21)) -persist "$stmp/p" >"$stmp/pd2.log" 2>&1 &
pdpid=$!
paddr=$(serving_url "$stmp/pd2.log") || {
  echo "FAIL: restarted memverifyd never logged its serving URL" >&2; exit 1; }
"$stmp/metricscheck" -get "http://$paddr/healthz" | grep -q '"status": "healthy"' || {
  echo "FAIL: restarted memverifyd /healthz not healthy" >&2; exit 1; }
for tenant in t0 t1; do
  grep -q "tenant $tenant: recovery outcome=recovered-clean" "$stmp/pd2.log" || {
    cat "$stmp/pd2.log" >&2
    echo "FAIL: tenant $tenant did not recover clean after the checkpointing run" >&2; exit 1; }
done
kill -TERM "$pdpid"
set +e
wait "$pdpid"
pstatus=$?
set -e
if [ "$pstatus" -ne 0 ] || grep -q 'DATA RACE' "$stmp/pd2.log"; then
  cat "$stmp/pd2.log" >&2
  echo "FAIL: restarted memverifyd exited $pstatus or raced" >&2
  exit 1
fi
rm -rf "$stmp"
echo "service gate OK"

# Fuzz smoke: drive the functional machine through interleaved accesses
# and adversary mutations for a few seconds looking for panics or missed
# post-eviction corruption.
go test -fuzz FuzzMachineTamper -fuzztime 10s ./internal/mem/ >/dev/null
echo "machine fuzz smoke OK"

# Parser fuzz smoke: every decoder of on-disk bytes — segments of both
# kinds, the WAL, the manifest, the anchor — takes ten seconds of mutated
# input without a panic or a value that is not what the bytes say.
for target in FuzzDecodeSegment FuzzScanWAL FuzzDecodeManifest FuzzDecodeAnchor; do
  go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/persist/ >/dev/null
done
echo "persist parser fuzz smoke OK"

# The network half: every parser of bytes a peer or an operator hands us —
# the batch request, the batch response, the -tenants spec, the scrape
# checker — takes the same ten seconds each.
for target in FuzzDecodeRequest FuzzDecodeResponse FuzzParseTenants; do
  go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/service/ >/dev/null
done
go test -run '^$' -fuzz '^FuzzValidateExposition$' -fuzztime 10s ./internal/obs/ >/dev/null
echo "wire parser fuzz smoke OK"

# Line-buffer ownership gate: the ownership and zero-alloc tests ran with
# `go test -race ./...` above; the two layer benchmarks run one iteration
# here as a compile-and-run smoke. Their allocs/op column is the number to
# read when the gate fails.
go test -run '^$' -bench 'BenchmarkFillEvict|BenchmarkMissWalk' -benchtime 1x \
  ./internal/cache/ ./internal/integrity/ >/dev/null
echo "line-buffer ownership gate OK"

# Recovery at realistic size under the race detector: the image check
# runs on every core, straight from the memory that adopted the segment
# image, for a machine and for a two-shard store.
go test -race -run '^$' -bench 'BenchmarkRecover' -benchtime 1x ./internal/persist/ >/dev/null
echo "parallel recovery check race gate OK"
