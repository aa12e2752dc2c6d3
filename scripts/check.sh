#!/usr/bin/env bash
# Repo-wide verification: vet, build, the full test suite under the race
# detector (including the store/rank crash-injection and corruption tests
# and the cluster coordinator's deterministic fault-schedule tests), an
# ingest + `svq fsck` round trip, then the smoke test, which covers
# durability (ingest -> SIGKILL -> resume -> fsck), observability against a
# live cmd/serve, and the sharded cluster (svq split -> two shards + a
# coordinator -> replica kill/failover -> shard loss -> restart recovery).
# CI runs exactly this; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

echo "==> rolling-swap chaos property tests (-race, bounded schedules)"
# Concurrent query load through an in-flight rollout with injected reload
# failures, throttles and a crashed replica: answers must match their
# shards' reported generations, mixed merges must be flagged, and the
# rollout must complete or halt with the old generation serving. The fault
# schedules are deterministic, so this is repeatable despite the chaos.
go test -race -run 'TestRolloutChaos' -count=1 ./internal/cluster/

echo "==> tier-invariance property suite (-race, -count=1)"
# The cascade refactor's correctness contract: running the tiered detector
# cascades — any tier mode, any predicate order, online or offline — must
# be bit-identical to running the accurate models alone, and a too-small
# inference budget must degrade (skip-and-flag) instead of erroring. The
# full suite above already runs these, but a dedicated uncached pass keeps
# the contract visible and immune to test caching.
go test -race -count=1 -run 'TierInvariance|InferenceBudget|OfflineIngestIdenticalUnderCascade|ReportUnderConcurrentTierObservation' \
  ./internal/core/ ./internal/rank/ ./internal/plan/

echo "==> critical-value contract (-count=1)"
# Any change to the Naus kernel or the critical-value search must give
# identical k_crit on every bucket of every grid the engine builds (the
# golden table was generated before the row-sweep Q3 and the bottom-up
# search), and Q3 must still match the push-form reference DP and brute
# enumeration. Uncached so the contract is checked on every run.
go test -count=1 -run 'CriticalValueGolden|Q3MatchesReference|Q3MatchesEnumeration' ./internal/scanstat/

echo "==> allocation bounds (no race: counts skip under the detector)"
# The pooled-scratch aliasing tests above ran under -race; the numeric
# AllocsPerRun bounds skip there (instrumentation inflates counts), so run
# them again without it to enforce the hot path's allocation budget.
go test -run 'AllocsSteadyState' ./internal/core/ ./internal/rank/

echo "==> sqlq fuzz smoke (-fuzztime=5s)"
# A short native-fuzzing burst over the lexer and parser (EXPLAIN included
# via the seed corpus): catches panics and contract violations cheaply.
go test -fuzz '^FuzzParse$' -fuzztime=5s ./internal/sqlq
go test -fuzz '^FuzzLex$' -fuzztime=5s ./internal/sqlq

echo "==> benchmark smoke (-benchtime=1x -benchmem)"
# One iteration of every benchmark: catches bit-rot in the experiment and
# microbenchmark harnesses without paying for real measurements. -benchmem
# keeps allocs/op in the output so hot-path allocation creep is visible in
# every CI log, not only when the AllocsPerRun bounds trip.
go test -run '^$' -bench . -benchtime=1x -benchmem .

echo "==> scaling report + regression gate (BENCH_scaling.json)"
# Appends a git-rev-stamped entry to the BENCH series and fails on a >25%
# peak-throughput drop vs the latest prior entry with a matching config
# (gomaxprocs, fleet size, frames/video, scale, seed); a config change
# skips the comparison instead of comparing apples to oranges.
go run ./cmd/experiments -scale 0.1 -bench-json BENCH_scaling.json -bench-gate 25 >/dev/null

echo "==> ingest + svq fsck round trip + ranked OR group from the repository"
fscktmp=$(mktemp -d)
trap 'rm -rf "$fscktmp"' EXIT
go run ./cmd/ingest -dataset movies -scale 0.02 -out "$fscktmp/repo" >/dev/null
go run ./cmd/svq fsck "$fscktmp/repo"
# The same repository answers a ranked OR group through svq's executor path.
go run ./cmd/svq -repo "$fscktmp/repo" -query "SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS repo PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE (act='kissing' OR act='fighting') AND obj.include('boat') ORDER BY RANK(act, obj) LIMIT 3"

echo "==> go run ./scripts/smoke"
go run ./scripts/smoke

echo "OK"
