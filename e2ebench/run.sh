#!/bin/sh
# Build the library, the CLI (the serve workload drives its `serve`
# subcommand) and the benchmark from source, then run the benchmark:
#
#   sh e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Everything it writes stays under the
# checkout (_build/ and e2ebench/_out/).
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "e2ebench: run from the root of a full checkout (dune-project, lib/ and bin/ not found)" >&2
  exit 3
fi
# Keep the compiler's temporary files and dune's cache out of the rest
# of the machine.
mkdir -p e2ebench/_out/tmp
TMPDIR="$PWD/e2ebench/_out/tmp" DUNE_CACHE=disabled dune build --root . ./e2ebench/e2e.exe ./bin/tapa_cs_cli.exe 1>&2
exec ./_build/default/e2ebench/e2e.exe "$@"
