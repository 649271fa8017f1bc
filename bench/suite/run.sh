#!/bin/sh
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument goes to xnf_bench.exe, e.g.
#
#   sh bench/suite/run.sh --workload oo1_nav --seed 1 --seconds 12 --trace 0
#
# The build writes only under _build/ (the shared dune cache is off).
set -e
DUNE_CACHE=disabled dune build --root . bench/suite/xnf_bench.exe 1>&2
exec ./_build/default/bench/suite/xnf_bench.exe "$@"
