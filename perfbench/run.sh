#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run it with the
# arguments given (see README.md). Run from the root of the checkout.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# The build's log goes to stderr: the last line of stdout is the result.
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
