#!/usr/bin/env bash
# Golden plan outputs: the stdout of `hypart analyze|partition|map|simulate|json
# --dim 2` and the `simulate --metrics` snapshot, compared byte for byte with
# the files under tests/golden/.  Six plans cover every grouping path:
#   sor_dense          dense grouping plan
#   sor_symbolic       group lattice, n = 2 (one coset)
#   matmul_symbolic    group lattice, n = 3 (one coset)
#   strided3d_symbolic group lattice, n = 3 (four cosets)
#   matmul_weighted    group lattice, n = 3, weighted bisection
#   wave4d_symbolic    line-based grouping (dimension-unsupported)
#
#   usage: cli_plan_golden.sh <hypart-binary> <source-dir> <workdir> [update]
# With `update` the expected files are rewritten instead of compared.
set -u

HYPART="$1"
SRC="$2"
WORKDIR="$3"
MODE="${4:-check}"
GOLDEN="$SRC/tests/golden"
PROGRAMS="$SRC/examples/programs"

plans=(
  "sor_dense sor.loop"
  "sor_symbolic sor.loop --space symbolic"
  "matmul_symbolic matmul.loop --space symbolic"
  "strided3d_symbolic strided3d.loop --space symbolic"
  "matmul_weighted matmul.loop --space symbolic --weighted"
  "wave4d_symbolic wave4d.loop --space symbolic"
)

fail=0
compare() {  # compare <actual> <expected-name>
  if [ "$MODE" = update ]; then
    cp "$1" "$GOLDEN/$2"
  elif ! cmp -s "$1" "$GOLDEN/$2"; then
    echo "FAIL: $2 differs"
    diff "$GOLDEN/$2" "$1" | head -20
    fail=1
  fi
}

mkdir -p "$WORKDIR" "$GOLDEN"
for plan in "${plans[@]}"; do
  set -- $plan
  name=$1 file=$2
  shift 2
  for cmd in analyze partition map simulate json; do
    out="$WORKDIR/golden_$name.$cmd.txt"
    "$HYPART" "$cmd" "$PROGRAMS/$file" --dim 2 "$@" >"$out" 2>&1
    rc=$?
    [ "$rc" -eq 0 ] || { echo "FAIL: hypart $cmd $file $* exited $rc"; fail=1; }
    compare "$out" "$name.$cmd.txt"
  done
  metrics="$WORKDIR/golden_$name.metrics.json"
  "$HYPART" simulate "$PROGRAMS/$file" --dim 2 "$@" --metrics "$metrics" >/dev/null 2>&1 ||
    { echo "FAIL: hypart simulate $file $* --metrics exited $?"; fail=1; }
  compare "$metrics" "$name.metrics.json"
done
exit $fail
