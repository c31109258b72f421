#!/bin/sh
# Behaviour record of dialegg-opt on every BENCH_DIR/*.mlir x
# RULES_DIR/*.egg pair, with default and with --naive-matching matching:
# the exit status, stdout (printed once when both regimes agree), each
# function's "@func: ... | N iters, peak M nodes" line, and the per-rule
# --stats counts (searches, matches) without the two timing columns.  test/golden/dune diffs it against pairs.expected under
# `dune runtest`; `dune promote` records an intended change.
# Usage: pairs_golden.sh DIALEGG_OPT BENCH_DIR RULES_DIR
set -e
opt=$1; bench=$2; rules=$3

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
DIALEGG_VET_CACHE=$tmp/cache
export DIALEGG_VET_CACHE

for m in "$bench"/*.mlir; do
  for r in "$rules"/*.egg; do
    for mode in default naive; do
      flag=
      if [ "$mode" = naive ]; then flag=--naive-matching; fi
      status=0
      "$opt" "$m" --egg "$r" --stats $flag >"$tmp/$mode.out" 2>"$tmp/err" || status=$?
      echo "=== $(basename "$m") $(basename "$r") $mode: exit $status"
      if [ "$mode" = naive ] && cmp -s "$tmp/default.out" "$tmp/naive.out"; then
        echo "(stdout as default)"
      else
        cat "$tmp/$mode.out"
      fi
      grep '^@' "$tmp/err" || true
      awk 'table { sub(/ +[0-9.]+ +[0-9.]+$/, ""); gsub(/ +/, " "); print }
           /^rule +searches +matches/ { table = 1; print "rule searches matches" }' \
        "$tmp/err"
    done
  done
done
