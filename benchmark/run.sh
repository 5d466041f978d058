#!/usr/bin/env bash
# The single entry point of the repository benchmark; see README.md.
#
#   bash benchmark/run.sh                         every workload, both passes
#   bash benchmark/run.sh --smoke                 the same at toy sizes
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh compare A.json B.json
set -euo pipefail
HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"

if [ ! -f "$ROOT/Cargo.toml" ]; then
  echo "run.sh: no Cargo.toml beside benchmark/: the benchmark needs the repository it measures" >&2
  exit 3
fi

# The benchmark must be compiled the way the program it measures is.
profile() { awk '/^\[profile\.release\]/{on=1; next} /^\[/{on=0} on && NF' "$1"; }
if [ "$(profile "$HERE/Cargo.toml")" != "$(profile "$ROOT/Cargo.toml")" ]; then
  echo "run.sh: [profile.release] in benchmark/Cargo.toml differs from the root Cargo.toml" >&2
  exit 3
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$HERE/target}"
cargo build --offline --release --quiet --manifest-path "$HERE/Cargo.toml" >&2
BIN="$CARGO_TARGET_DIR/release/benchmark"

if [ "${1:-}" = compare ]; then
  exec "$BIN" "$@"
fi
exec "$BIN" --out "$HERE/out" "$@"
