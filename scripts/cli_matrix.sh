#!/bin/sh
# Argument-error matrix over every installed executable: an unknown flag
# (and, for the tools that require one, a missing operand) must exit 2
# with a single-line usage message on stderr -- never a backtrace, never
# some other exit code.  An invalid enum value must keep the whole list of
# valid values on that line.  Usage: cli_matrix.sh EXE...
set -e

root=$(dirname "$0")/..

err=$(mktemp)
trap 'rm -f "$err"' EXIT

check_usage_error() {
  # $1 = label for diagnostics; the rest is the command to run
  label=$1; shift
  status=0
  "$@" >/dev/null 2>"$err" || status=$?
  if [ "$status" -ne 2 ]; then
    echo "cli-matrix: $label: expected exit 2, got $status" >&2
    cat "$err" >&2
    exit 1
  fi
  lines=$(wc -l < "$err")
  if [ "$lines" -ne 1 ]; then
    echo "cli-matrix: $label: expected one stderr line, got $lines" >&2
    cat "$err" >&2
    exit 1
  fi
  if grep -q "Raised at\|Backtrace" "$err"; then
    echo "cli-matrix: $label: backtrace leaked to the user" >&2
    cat "$err" >&2
    exit 1
  fi
}

# $1 = label, $2 = text the usage line must contain; the rest is the command
check_usage_mentions() {
  label=$1; needle=$2; shift 2
  check_usage_error "$label" "$@"
  if ! grep -qF "$needle" "$err"; then
    echo "cli-matrix: $label: expected $needle in the usage line" >&2
    cat "$err" >&2
    exit 1
  fi
}

for exe in "$@"; do
  name=$(basename "$exe" .exe)

  check_usage_error "$name --no-such-flag" "$exe" --no-such-flag

  # tools whose operands are required (the rest default to stdin, a
  # default socket, or an interactive session)
  case $name in
  dialegg_opt|dialegg_batch|dialegg_check|dialegg_client|mlir_opt|mlir_run)
    check_usage_error "$name <no operand>" "$exe"
    ;;
  esac

  # cmdliner wraps a long list of valid values over several lines
  case $name in
  dialegg_check)
    check_usage_mentions "$name --only foo" "'audit'" "$exe" --only foo "$root/rules/div_pow2.egg"
    ;;
  dialegg_opt)
    check_usage_mentions "$name --on-limit foo" "'identity'" \
      "$exe" "$root/benchmarks/2mm.mlir" --on-limit foo
    ;;
  esac
done

echo "cli-matrix: all argument-error paths exit 2 with one usage line"
