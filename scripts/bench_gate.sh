#!/usr/bin/env bash
# CI alloc gate: re-measure the leabench suite and fail when a row allocates
# more than the committed BENCH_sweep.json says. Zero-alloc rows must stay
# zero-alloc, and no row may allocate more than its baseline. Alloc counts do
# not depend on the host, so no tolerance is needed; timings are printed but
# not judged here (cmd/leaperf gates timing).
set -euo pipefail
cd "$(dirname "$0")/.."

# The noalloc zone map (internal/analysis/escape/zones.go) and the
# AllocsPerRun zero-alloc tests must name the same warm API before the
# runtime numbers mean anything: a root without an assertion (or vice versa)
# is gate drift, caught here rather than after a silent regression.
go run ./cmd/lealint -zonecheck

exec go run ./cmd/leabench -gate -gate-baseline BENCH_sweep.json
