#!/bin/sh
# End-to-end smoke test of the command-line tools against the shipped
# benchmark and rule files.  Exits non-zero on the first failure.
set -e
cd "$(dirname "$0")/.."

echo "== build =="
dune build @all

echo "== dialegg-check: shipped rules lint clean =="
dune exec bin/dialegg_check.exe -- --only lint rules/*.egg
echo ok

echo "== dialegg-check: shipped rules verify statically =="
VET_CACHE=$(mktemp -d)
DIALEGG_VET_CACHE="$VET_CACHE" dune exec bin/dialegg_check.exe -- --only vet rules/*.egg
echo ok

echo "== dialegg-check: guard-dropping rule rejected without saturation =="
if DIALEGG_VET_CACHE="$VET_CACHE" dune exec bin/dialegg_check.exe -- --only vet \
  test/fixtures/unsound_rule.egg 2>/tmp/dialegg_vet.err; then
  echo "expected a vet failure" >&2; exit 1
fi
grep -q rule-range-widened /tmp/dialegg_vet.err
echo ok

echo "== dialegg-check: matmul associativity is an expansive cycle =="
DIALEGG_VET_CACHE="$VET_CACHE" dune exec bin/dialegg_check.exe -- --only vet \
  rules/matmul_assoc.egg 2>&1 | grep -q expansive-cycle
echo ok

echo "== dialegg-check: shipped rules honor the encoding contract =="
DIALEGG_VET_CACHE="$VET_CACHE" dune exec bin/dialegg_check.exe -- --only audit rules/*.egg
echo ok

echo "== dialegg-check: seeded contract violations are rejected statically =="
for probe in audit_arity_mismatch:egg-arity-mismatch \
             costless_reachable:cost-unreachable \
             impure_rule:rule-impure-op; do
  fixture=${probe%%:*}; code=${probe#*:}
  if DIALEGG_VET_CACHE="$VET_CACHE" dune exec bin/dialegg_check.exe -- --only audit \
    "test/fixtures/$fixture.egg" >/dev/null 2>/tmp/dialegg_audit.err; then
    echo "expected an audit failure for $fixture.egg" >&2; exit 1
  fi
  grep -q "$code" /tmp/dialegg_audit.err
done
echo ok

echo "== dialegg-check: audit verdict memoized across invocations =="
DIALEGG_VET_CACHE="$VET_CACHE" dune exec bin/dialegg_check.exe -- --only audit \
  rules/const_fold.egg | grep -q 'hit ('
echo ok

echo "== dialegg-check: all three tiers, and the @check alias =="
DIALEGG_VET_CACHE="$VET_CACHE" dune exec bin/dialegg_check.exe -- rules/*.egg
dune build @check
echo ok

echo "== dialegg-check: one verdict entry per ruleset =="
ONE_CACHE=$(mktemp -d)
DIALEGG_VET_CACHE="$ONE_CACHE" dune exec bin/dialegg_check.exe -- rules/*.egg >/dev/null
entries=$(ls "$ONE_CACHE" | wc -l)
if [ "$entries" -ne "$(ls rules/*.egg | wc -l)" ] || ls "$ONE_CACHE" | grep -q '\.vet$\|\.audit$'; then
  echo "expected one .verdict entry per rules file, got:" >&2; ls "$ONE_CACHE" >&2; exit 1
fi
rm -rf "$ONE_CACHE"
echo ok

echo "== dialegg-check: an unreadable file is an io-error =="
status=0
dune exec bin/dialegg_check.exe -- rules 2>/tmp/dialegg_check_io.err || status=$?
if [ "$status" -ne 1 ] || ! grep -q io-error /tmp/dialegg_check_io.err; then
  echo "expected exit 1 with io-error, got status $status" >&2
  cat /tmp/dialegg_check_io.err >&2; exit 1
fi
echo ok

echo "== dialegg-opt: the pipeline's audit tier =="
if dune exec bin/dialegg_opt.exe -- benchmarks/div_pow2_demo.mlir \
  --egg test/fixtures/costless_reachable.egg >/dev/null 2>/tmp/dialegg_audit_opt.err; then
  echo "expected the pipeline audit tier to reject the ruleset" >&2; exit 1
fi
grep -q cost-unreachable /tmp/dialegg_audit_opt.err
echo ok

echo "== dialegg-opt: the pipeline's vet tier =="
if dune exec bin/dialegg_opt.exe -- benchmarks/div_pow2_demo.mlir \
  --egg test/fixtures/unsound_rule.egg >/dev/null 2>/tmp/dialegg_vet_opt.err; then
  echo "expected the pipeline vet tier to reject the ruleset" >&2; exit 1
fi
grep -q rule-range-widened /tmp/dialegg_vet_opt.err
echo ok

echo "== dialegg-batch: vet + audit memoized across invocations (--stats) =="
BATCH_DIR=$(mktemp -d); BATCH_OUT=$(mktemp -d)
cp benchmarks/div_pow2_demo.mlir "$BATCH_DIR"/
DIALEGG_VET_CACHE="$VET_CACHE" dune exec bin/dialegg_batch.exe -- "$BATCH_DIR" \
  -o "$BATCH_OUT" --egg rules/div_pow2.egg --stats -q 2>/tmp/dialegg_batch1.err
rm -rf "$BATCH_OUT"; BATCH_OUT=$(mktemp -d)
DIALEGG_VET_CACHE="$VET_CACHE" dune exec bin/dialegg_batch.exe -- "$BATCH_DIR" \
  -o "$BATCH_OUT" --egg rules/div_pow2.egg --stats -q 2>/tmp/dialegg_batch2.err
grep -q '^vet:.*hit (disk)' /tmp/dialegg_batch2.err
grep -q '^audit:.*hit (disk)' /tmp/dialegg_batch2.err
echo ok

echo "== dialegg-batch: a lint error fails the batch first, with or without vet =="
for flags in "" --no-vet; do
  rm -rf "$BATCH_OUT"; BATCH_OUT=$(mktemp -d)
  status=0
  DIALEGG_VET_CACHE="$VET_CACHE" dune exec bin/dialegg_batch.exe -- "$BATCH_DIR" \
    -o "$BATCH_OUT" --egg test/fixtures/unknown_constructor.egg $flags \
    2>/tmp/dialegg_batch_lint.err || status=$?
  if [ "$status" -ne 1 ] || ! grep -q 'rules failed lint' /tmp/dialegg_batch_lint.err; then
    echo "expected exit 1 with 'rules failed lint' (flags: $flags), got status $status" >&2
    cat /tmp/dialegg_batch_lint.err >&2; exit 1
  fi
done
rm -rf "$VET_CACHE" "$BATCH_DIR" "$BATCH_OUT"
echo ok

echo "== bench-smoke: seminaive and naive matching agree =="
dune build @bench-smoke
echo ok

echo "== analyze-smoke: dataflow facts + validated example/benchmark runs =="
dune build @analyze-smoke
echo ok

echo "== fault-smoke: injection matrix, degradation policies, starvation budgets =="
dune build @fault-smoke
echo ok

echo "== serve-smoke: supervised batch driver, injected hang + crash, resume =="
dune build @serve-smoke
echo ok

echo "== cli-matrix: argument errors exit 2 with a one-line usage message =="
dune build @cli-matrix
echo ok

echo "== fuzz-smoke: reproducible campaign, seeded miscompile found + reduced =="
dune build @fuzz-smoke
echo ok

echo "== daemon-smoke: dialegg-serve lifecycle, cache provenance, SIGPIPE hygiene =="
dune build bin/dialegg_serve.exe bin/dialegg_client.exe bin/dialegg_opt.exe
sh scripts/daemon_smoke.sh \
  _build/default/bin/dialegg_serve.exe \
  _build/default/bin/dialegg_client.exe \
  _build/default/bin/dialegg_opt.exe \
  benchmarks/poly.mlir poly_eval rules/const_fold.egg >/dev/null
echo ok

echo "== egglog: a piped session with errors exits non-zero =="
if echo '(bogus-command 1)' | dune exec bin/egglog_repl.exe >/dev/null 2>&1; then
  echo "expected a non-zero exit from a failing piped session" >&2; exit 1
fi
echo '(datatype Num (N i64))' | dune exec bin/egglog_repl.exe >/dev/null
echo ok

echo "== egglog: a (pop) closes the (push) of an earlier line or file =="
printf '(datatype E (A))\n(push)\n(pop)\n' | dune exec bin/egglog_repl.exe >/dev/null
printf '(datatype E (A))\n(push)\n' > /tmp/dialegg_push.egg
printf '(pop)\n' > /tmp/dialegg_pop.egg
dune exec bin/egglog_repl.exe -- /tmp/dialegg_push.egg /tmp/dialegg_pop.egg >/dev/null
if printf '(datatype E (A))\n(pop)\n' | dune exec bin/egglog_repl.exe >/dev/null 2>&1; then
  echo "expected a pop without a push to fail" >&2; exit 1
fi
echo ok

echo "== egglog: extraction terminates on the cost edge cases =="
# Each run is bounded, so a reintroduced hang in the cost fixpoint fails
# here in seconds: a hang exits 124 (timeout), a runtime error exits 1.
dune build bin/egglog_repl.exe
EGGLOG=_build/default/bin/egglog_repl.exe
timeout 10 $EGGLOG test/fixtures/extract_overflow.egg > /tmp/dialegg_overflow.out
grep -q '^(B)  ; cost 1$' /tmp/dialegg_overflow.out
for probe in negative_cost:negative-cost negative_unstable_cost:'negative cost' \
  cost_cap:cost-overflow; do
  fixture=${probe%%:*}; msg=${probe#*:}
  status=0
  timeout 10 $EGGLOG "test/fixtures/$fixture.egg" >/dev/null \
    2>/tmp/dialegg_negcost.err || status=$?
  if [ "$status" -ne 1 ]; then
    echo "expected exit 1 from $fixture.egg, got status $status" >&2; exit 1
  fi
  grep -q "$msg" /tmp/dialegg_negcost.err
done
echo ok

echo "== translation validator: unsound fold is rejected =="
if dune exec bin/dialegg_opt.exe -- test/fixtures/unsound_demo.mlir \
  --egg test/fixtures/unsound_fold.egg >/dev/null 2>/tmp/dialegg_validate.err; then
  echo "expected the validator to reject the unsound fold" >&2; exit 1
fi
grep -q range-widened /tmp/dialegg_validate.err
dune exec bin/dialegg_opt.exe -- test/fixtures/unsound_demo.mlir \
  --egg test/fixtures/unsound_fold.egg --no-validate | grep -q 'arith.constant 0'
echo ok

echo "== dialegg-check: lint defects are caught =="
if dune exec bin/dialegg_check.exe -- --only lint test/fixtures/unknown_constructor.egg \
  2>/dev/null; then
  echo "expected a lint failure" >&2; exit 1
fi
echo ok

echo "== dialegg-check: a lint error stops the later tiers =="
status=0
dune exec bin/dialegg_check.exe -- test/fixtures/unknown_constructor.egg \
  2>/tmp/dialegg_check.err || status=$?
if [ "$status" -ne 1 ]; then
  echo "expected exit 1, got status $status" >&2; exit 1
fi
if [ "$(grep -c unknown-function /tmp/dialegg_check.err)" -ne 1 ]; then
  echo "expected unknown-function once, not once per tier" >&2
  cat /tmp/dialegg_check.err >&2; exit 1
fi
echo ok

echo "== dialegg-opt: div-by-pow2 =="
dune exec bin/dialegg_opt.exe -- benchmarks/div_pow2_demo.mlir \
  --egg rules/div_pow2.egg | grep -q arith.shrsi
echo ok

echo "== dialegg-opt: 2MM re-association =="
dune exec bin/dialegg_opt.exe -- benchmarks/2mm.mlir \
  --egg rules/matmul_assoc.egg | grep -q 'tensor<10x8xf64>'
echo ok

echo "== dialegg-opt: seminaive and naive matching extract identical programs =="
for mm in 2mm 3mm; do
  dune exec bin/dialegg_opt.exe -- benchmarks/$mm.mlir \
    --egg rules/matmul_assoc.egg > /tmp/dialegg_semi.mlir
  dune exec bin/dialegg_opt.exe -- benchmarks/$mm.mlir \
    --egg rules/matmul_assoc.egg --naive-matching > /tmp/dialegg_naive.mlir
  cmp /tmp/dialegg_semi.mlir /tmp/dialegg_naive.mlir
done
echo ok

echo "== dialegg-opt: --dump-egg round-trips through the egglog CLI =="
dune exec bin/dialegg_opt.exe -- benchmarks/div_pow2_demo.mlir --dump-egg \
  | cat rules/prelude.egg - > /tmp/dialegg_smoke.egg
dune exec bin/egglog_repl.exe -- /tmp/dialegg_smoke.egg --stats
# two functions: each dump binds op0, op1, ... between (push) and (pop)
dune exec bin/dialegg_opt.exe -- benchmarks/vec-norm.mlir --dump-egg \
  | cat rules/prelude.egg - > /tmp/dialegg_smoke2.egg
dune exec bin/egglog_repl.exe -- /tmp/dialegg_smoke2.egg
echo ok

echo "== mlir-opt: canonicalize + greedy pass =="
dune exec bin/mlir_opt.exe -- benchmarks/3mm.mlir -p canonicalize -p matmul-reassoc >/dev/null
echo ok

echo "== mlir-opt: cse and canonicalize keep 0.0 and -0.0 apart =="
for pass in cse canonicalize; do
  dune exec bin/mlir_opt.exe -- test/fixtures/signed_zero.mlir -p $pass \
    2>/dev/null >/tmp/mlir_signed_zero.mlir
  dune exec bin/mlir_run.exe -- /tmp/mlir_signed_zero.mlir -f f -- -0.0 \
    | grep -q '^-0:f64'
done
echo ok

echo "== mlir-run: interpret =="
dune exec bin/mlir_run.exe -- benchmarks/div_pow2_demo.mlir -f divs 51200 | grep -q '200:i64'
echo ok

echo "== dialegg-opt: 0.0 and -0.0 stay distinct constants =="
dune exec bin/dialegg_opt.exe -- test/fixtures/signed_zero.mlir \
  --egg rules/const_fold.egg >/tmp/dialegg_signed_zero.mlir
dune exec bin/mlir_run.exe -- /tmp/dialegg_signed_zero.mlir -f f -- -0.0 \
  | grep -q '^-0:f64'
echo ok

echo "all smoke tests passed"
