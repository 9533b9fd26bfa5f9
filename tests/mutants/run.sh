#!/usr/bin/env bash
# Show that each committed mutant is killed by the test named for it.
#
# Every `tests/mutants/*.patch` starts with a `Contract:` paragraph (what the
# mutation breaks) and one `Kill:` line (the `cargo test` arguments of the
# test that must fail on it), followed by a unified diff against the tree.
#
#   tests/mutants/run.sh
#
# The tracked files are copied to a fresh temporary directory, removed on
# exit, and every `Kill:` test is first run on the clean copy, where it must
# pass. Then each patch is applied with `git apply`, its test built and run,
# and the patch reverted. The script fails if a patch no longer applies, a
# mutant does not build, a test fails on the clean copy, or a mutant
# survives its test. Builds share one target directory, so only the first is
# a full build.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
patches=("$root"/tests/mutants/*.patch)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
git ls-files -z | tar --null -T - -c | tar -x -C "$work/tree"
export CARGO_TARGET_DIR="$work/target"

kill_args() {
  sed -n 's/^Kill: //p' "$1"
}

cd "$work/tree"
for patch in "${patches[@]}"; do
  args=$(kill_args "$patch")
  if [ -z "$args" ]; then
    echo "$patch: no Kill: line" >&2
    exit 1
  fi
  # shellcheck disable=SC2086
  if ! cargo test -q $args > "$work/clean.log" 2>&1; then
    cat "$work/clean.log" >&2
    echo "$patch: the killing test fails on the unmutated tree" >&2
    exit 1
  fi
done

status=0
for patch in "${patches[@]}"; do
  name=$(basename "$patch")
  args=$(kill_args "$patch")
  if ! git apply "$patch"; then
    echo "$name: no longer applies" >&2
    status=1
    continue
  fi
  started=$(date +%s)
  # shellcheck disable=SC2086
  if ! cargo test -q --no-run $args > "$work/mutant.log" 2>&1; then
    cat "$work/mutant.log" >&2
    echo "$name: the mutant does not build" >&2
    status=1
  elif cargo test -q $args > "$work/mutant.log" 2>&1; then
    echo "$name: SURVIVED (cargo test $args)" >&2
    status=1
  else
    echo "$name: killed in $(($(date +%s) - started)) s"
  fi
  git apply -R "$patch"
done
exit $status
