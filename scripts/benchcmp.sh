#!/bin/sh
# Compare edb-bench headline metrics between the working tree and a base
# ref. The base is checked out into a throwaway git worktree, both sides
# run the same benchmark selection, and scripts/benchcmp renders the two
# BENCH.json dumps side by side with relative deltas.
#
# Usage:
#   sh scripts/benchcmp.sh [base-ref]        # default base: HEAD~1
#   BENCH_ARGS='-exp table3 -quick' sh scripts/benchcmp.sh v1.0
#
# or, via make: make benchcmp BASE=<ref>
set -eu

BASE=${1:-HEAD~1}
ARGS=${BENCH_ARGS:--snapshot -trace -fleet -kernel -explore -gateway-failover -quick}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
TMP=$(mktemp -d)
cleanup() {
	git -C "$ROOT" worktree remove --force "$TMP/base" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "benchcmp: working tree vs $BASE  (edb-bench $ARGS)"

(cd "$ROOT" && go run ./cmd/edb-bench $ARGS -json -out '') >"$TMP/head.json"

git -C "$ROOT" worktree add --quiet --detach "$TMP/base" "$BASE"
# A benchmark that exists in the working tree but not at $BASE (new flag,
# new suite) must not sink the whole comparison: fall back to an empty
# metric dump so every head-side metric renders as "new".
if ! (cd "$TMP/base" && go run ./cmd/edb-bench $ARGS -json -out '') >"$TMP/base.json" 2>"$TMP/base.err"; then
	echo "benchcmp: edb-bench $ARGS failed at $BASE (benchmark missing there?); comparing against an empty base" >&2
	sed 's/^/benchcmp:   base: /' "$TMP/base.err" >&2 || true
	echo '{}' >"$TMP/base.json"
fi

(cd "$ROOT" && go run ./scripts/benchcmp "$TMP/base.json" "$TMP/head.json")
