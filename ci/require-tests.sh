#!/usr/bin/env bash
# Usage: ci/require-tests.sh MESSAGE CARGO-TEST-ARGS...
#
# Runs `cargo test CARGO-TEST-ARGS...` and fails, printing MESSAGE as a
# GitHub Actions error, unless at least one test passed. A name filter
# that matches no test passes green, so every filtered run in CI goes
# through here.
set -euo pipefail
message=$1
shift
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
grep -Eq 'test result: ok\. [1-9][0-9]* passed' "$log" \
  || { echo "::error::$message"; exit 1; }
