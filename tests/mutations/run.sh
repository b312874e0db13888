#!/usr/bin/env bash
# Runs the committed mutations. Each tests/mutations/<name>.patch is a small
# deliberate bug; its header names the build target and the check that must
# fail while it is applied. For each patch this script applies it to a
# scratch copy of the committed tree (git archive HEAD), builds only that
# target, runs the check from the build directory and prints "tripped" (the
# check failed, as it should) or "survived" (it passed: the check does not
# guard what the patch breaks). The tree is configured once; each patch then
# costs an incremental build. It is not a per-change CI step.
#
# Usage: tests/mutations/run.sh [scratch-dir [name...]]
# The scratch directory defaults to a new temporary one. Exits non-zero when
# a mutation survives, does not apply or does not build.
set -uo pipefail

here=$(cd "$(dirname "$0")" && pwd)
repo=$(git -C "$here" rev-parse --show-toplevel)
work=${1:-$(mktemp -d)}
shift $(($# > 0 ? 1 : 0))
tree="$work/tree"
build="$work/build"

mkdir -p "$work"
rm -rf "$tree"
mkdir -p "$tree"
git -C "$repo" archive HEAD | tar -x -C "$tree"
if ! cmake -S "$tree" -B "$build" -G Ninja > "$work/configure.log" 2>&1; then
  echo "configure failed: $work/configure.log"
  exit 2
fi

names=("$@")
if [ ${#names[@]} -eq 0 ]; then
  for patch in "$here"/*.patch; do names+=("$(basename "$patch" .patch)"); done
fi

status=0
for name in "${names[@]}"; do
  patch="$here/$name.patch"
  target=$(sed -n 's/^# Target: //p' "$patch")
  check=$(sed -n 's/^# Check: //p' "$patch")
  if ! (cd "$tree" && git apply "$patch"); then
    echo "$name: does not apply"
    status=1
    continue
  fi
  if ! cmake --build "$build" --target "$target" > "$work/$name.build.log" 2>&1; then
    echo "$name: does not build ($work/$name.build.log)"
    status=1
  elif (cd "$build" && eval "$check") > "$work/$name.check.log" 2>&1; then
    echo "$name: survived: $check"
    status=1
  else
    echo "$name: tripped"
  fi
  (cd "$tree" && git apply -R "$patch")
done
exit $status
