#!/usr/bin/env bash
# Byte-identity check for refactors: builds <base-rev> from `git archive`
# into a scratch directory, runs the quick-scale report set on it and on
# the working tree, and compares every output pair byte for byte.
#
# Usage: scripts/identity.sh <base-rev>
#
# Compared outputs: stdout of fig6, fig8, fig9, fig10 and fig11,
# BENCH_crossover.json, BENCH_hammer.json and the leakage-gate report.
# Scratch space defaults to ${TMPDIR:-/tmp}/sdimm-identity (override with
# IDENTITY_DIR). The base checkout builds into its own target directory
# there, so a repeated run against the same base rebuilds incrementally.
# Exits 0 when every pair is identical, 1 on any difference, 2 on bad
# arguments.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: scripts/identity.sh <base-rev>" >&2
  exit 2
fi
base_rev=$1
repo=$(pwd)
scratch=${IDENTITY_DIR:-${TMPDIR:-/tmp}/sdimm-identity}
figs="fig6 fig8 fig9 fig10 fig11"
bins="$figs crossover hammer_report leakage_gate"

# Builds the report binaries of checkout $1 into target directory $2.
build() {
  local args=()
  for b in $bins; do args+=(--bin "$b"); done
  (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release -q -p sdimm-bench "${args[@]}")
}

# Runs every report binary in $1 with its outputs landing in $2. Each
# binary runs from $2, so checkout-relative state (the provenance git
# SHA) reads the same for both sides.
reports() {
  local bin=$1 out=$2
  rm -rf "$out"
  mkdir -p "$out"
  for fig in $figs; do
    echo "  $fig"
    (cd "$out" && SDIMM_BENCH_SCALE=quick "$bin/$fig" > "$fig.stdout" 2> "$fig.stderr")
  done
  echo "  crossover"
  (cd "$out" && SDIMM_BENCH_SCALE=quick "$bin/crossover" > crossover.stdout 2> crossover.stderr)
  echo "  hammer_report"
  (cd "$out" && SDIMM_BENCH_SCALE=quick "$bin/hammer_report" --report BENCH_hammer.json \
    > hammer.stdout 2> hammer.stderr)
  echo "  leakage_gate"
  (cd "$out" && SDIMM_BENCH_SCALE=quick "$bin/leakage_gate" --report leakage-report.json \
    > leakage.stdout 2> leakage.stderr)
}

echo "==> base $base_rev: git archive into $scratch/base-src"
rm -rf "$scratch/base-src"
mkdir -p "$scratch/base-src"
git archive "$base_rev" | tar -x -C "$scratch/base-src"

echo "==> building base"
build "$scratch/base-src" "$scratch/base-target"
echo "==> building working tree"
head_target=${CARGO_TARGET_DIR:-$repo/target}
build "$repo" "$head_target"

echo "==> base reports"
reports "$scratch/base-target/release" "$scratch/out-base"
echo "==> working-tree reports"
reports "$head_target/release" "$scratch/out-head"

status=0
for f in fig6.stdout fig8.stdout fig9.stdout fig10.stdout fig11.stdout \
  BENCH_crossover.json BENCH_hammer.json leakage-report.json; do
  if cmp -s "$scratch/out-base/$f" "$scratch/out-head/$f"; then
    echo "identical  $f"
  else
    echo "DIFFERENT  $f"
    status=1
  fi
done
exit $status
