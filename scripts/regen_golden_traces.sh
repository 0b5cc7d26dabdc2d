#!/usr/bin/env bash
# Re-blesses the golden files under tests/sim/golden/ (the text traces and
# the *_equivalence.digest corpus) from the current simulator core after an
# intentional change to simulator timing, arbitration or trace formatting.
# The goldens are the simulator's behavioural contract: re-bless only for a
# deliberate behaviour change, and explain it in CHANGES.md.
# Usage: scripts/regen_golden_traces.sh [build-dir]   (default: build)
set -euo pipefail

build_dir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"

cmake --build "$repo_root/$build_dir" --target test_sim -j
AM_REGEN_GOLDEN=1 "$repo_root/$build_dir/tests/test_sim" \
  --gtest_filter='GoldenTrace.*:CoreEquivalence.*'
# Replay against the refreshed files: both suites must now pass unchanged.
"$repo_root/$build_dir/tests/test_sim" \
  --gtest_filter='GoldenTrace.*:CoreEquivalence.*'
echo "regenerated goldens:"
ls -l "$repo_root"/tests/sim/golden/
echo "review the diff before committing: git diff tests/sim/golden/"
