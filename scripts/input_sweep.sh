#!/bin/sh
# Input sweep over every shipped input: dialegg-opt on each
# BENCH_DIR/*.mlir x RULES_DIR/*.egg pair, and on div_pow2_demo.mlir with
# each FIXTURES_DIR/*.egg, optimizing and with --dump-egg.  Every run is
# bounded by `timeout 60` and its exit status is pinned: 0 for every
# pair, 0 or 1 for each fixture as listed below, and 0 or 1 for each
# dump.  A hang (124), an internal error (125) or an "internal error"
# line on stderr always fails the sweep.
# Usage: input_sweep.sh DIALEGG_OPT BENCH_DIR RULES_DIR FIXTURES_DIR
set -e
opt=$1; bench=$2; rules=$3; fixtures=$4

err=$(mktemp)
cache=$(mktemp -d)
trap 'rm -rf "$err" "$cache"' EXIT
DIALEGG_VET_CACHE=$cache
export DIALEGG_VET_CACHE
fail=0

# Each fixture holds one defect; the static tiers reject most of them
# (exit 1), the rest optimize cleanly.
fixture_status() {
  case $1 in
  expansive_cycle|extract_overflow|shadowed_rule|unsound_fold) echo 0 ;;
  arity_mismatch|audit_arity_mismatch|cost_cap|costless_reachable|\
  expansion_no_cost|impure_rule|negative_cost|negative_unstable_cost|sort_mismatch|\
  unbound_rhs|undeclared_ruleset|unknown_constructor|unsound_rule) echo 1 ;;
  *) echo unpinned ;;
  esac
}

run() {
  # $1 = the allowed exit statuses; the rest are dialegg-opt's arguments
  want=$1; shift
  status=0
  timeout 60 "$opt" "$@" >/dev/null 2>"$err" || status=$?
  case " $want " in
  *" $status "*) ;;
  *)
    echo "input-sweep: dialegg-opt $*: expected exit $want, got $status" >&2
    cat "$err" >&2
    fail=1
    return
    ;;
  esac
  if grep -q "internal error" "$err"; then
    echo "input-sweep: dialegg-opt $*: internal error" >&2
    cat "$err" >&2
    fail=1
  fi
}

n=0
for m in "$bench"/*.mlir; do
  for r in "$rules"/*.egg; do
    run 0 "$m" --egg "$r"
    n=$((n + 1))
  done
done

for f in "$fixtures"/*.egg; do
  name=$(basename "$f" .egg)
  want=$(fixture_status "$name")
  if [ "$want" = unpinned ]; then
    echo "input-sweep: no pinned exit status for fixture $name" >&2
    fail=1
  else
    run "$want" "$bench/div_pow2_demo.mlir" --egg "$f"
  fi
  run "0 1" "$bench/div_pow2_demo.mlir" --dump-egg --egg "$f"
  n=$((n + 2))
done

if [ "$fail" -ne 0 ]; then exit 1; fi
echo "input-sweep: $n runs, every exit status as pinned"
