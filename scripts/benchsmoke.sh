#!/usr/bin/env bash
# benchsmoke.sh PKG NAME... runs one untimed pass (-benchtime 1x) of the
# benchmarks in PKG whose names match one of the NAME patterns, and fails
# when a NAME matches no benchmark that ran: a renamed or deleted benchmark
# must not pass the smoke gate silently with "ok".
#
#   ./scripts/benchsmoke.sh ./internal/operators/ BenchmarkCandidatesInto400
set -euo pipefail

pkg=$1
shift
out=$(mktemp)
trap 'rm -f "$out"' EXIT

pattern=$(IFS='|'; echo "$*")
"${GO:-go}" test -run '^$' -bench "$pattern" -benchtime 1x "$pkg" | tee "$out"

missing=0
for name in "$@"; do
  # A result line starts with the benchmark name, followed by a
  # sub-benchmark path, the -GOMAXPROCS suffix or the iteration count.
  if ! grep -Eq "^${name}([/-][^[:space:]]*)?[[:space:]]" "$out"; then
    echo "benchsmoke: -bench pattern $name matched no benchmark in $pkg" >&2
    missing=1
  fi
done
exit "$missing"
