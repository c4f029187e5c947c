#!/usr/bin/env bash
# doccheck: the documentation gate `make check` runs.
#
# 1. Every exported top-level symbol (func, method, type, var, const) in the
#    audited packages must carry a doc comment on the preceding line. They
#    are internal/blockdev, internal/iohyp, internal/cluster,
#    internal/virtio and internal/core; the packages whose doc comments
#    carry the buffer and frame ownership contracts: internal/bufpool,
#    internal/transport, internal/ethernet, internal/nic, internal/sim;
#    internal/experiments, whose Grid and Claim docs define how an
#    experiment and the paper's claims about it are declared; and
#    internal/workload and the root package (vrio.go), whose docs define the
#    §5 workloads and what their summaries report. This is a grep-level
#    gate, not a full go/doc parse: it catches the common case (a bare
#    exported declaration) cheaply and deterministically.
# 2. README.md's architecture map must mention every internal/ package, so a
#    new package cannot land without a row in the map.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

for pkg in internal/blockdev internal/iohyp internal/cluster internal/virtio internal/core \
  internal/bufpool internal/transport internal/ethernet internal/nic internal/sim \
  internal/experiments internal/workload .; do
  for f in "$pkg"/*.go; do
    case "$f" in
      *_test.go) continue ;;
    esac
    missing=$(awk '
      /^(func|type|var|const) [A-Z]/ || /^func \([^)]*\) [A-Z]/ {
        if (prev !~ /^\/\//) printf "%s:%d: undocumented exported symbol: %s\n", FILENAME, FNR, $0
      }
      { prev = $0 }
    ' "$f")
    if [ -n "$missing" ]; then
      echo "$missing"
      fail=1
    fi
  done
done

for d in internal/*/; do
  pkg=$(basename "$d")
  if ! grep -q "internal/$pkg" README.md; then
    echo "README.md: architecture map missing internal/$pkg"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "doccheck: FAIL"
  exit 1
fi
echo "doccheck: ok"
