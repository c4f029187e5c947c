#!/usr/bin/env bash
# doccheck: the documentation gate `make check` runs.
#
# 1. Every exported top-level symbol (func, method, type, var, const) in
#    every internal/ package and the root package (vrio.go) must carry a
#    doc comment on the preceding line. The package list is read from
#    internal/*/, so a new package is audited from its first commit. This
#    is a grep-level gate, not a full go/doc parse: it catches the common
#    case (a bare exported declaration) cheaply and deterministically.
# 2. README.md's architecture map must mention every internal/ package, so a
#    new package cannot land without a row in the map.
# 3. No dead surface: scripts/deadexports type-checks the non-test files of
#    both modules (the root and vriobench/) with go/types and reports every
#    package-level func, const, var and type, and every method, declared in
#    an internal/ package, unexported ones included, that no non-test file
#    of either module uses, and every unexported struct field there that
#    no non-test file reads (a write or an increment is not a read; a
#    struct compared with == or used as a map key reads every field). A
#    use counts only when it resolves to that very symbol. A method is not
#    reported when its type satisfies, by types.Implements, an interface of
#    the modules or of an imported standard-library package that has the
#    method (fmt.Stringer, error, json.Unmarshaler). A symbol that only
#    tests use belongs in the package's export_test.go, and dead code is
#    deleted. The exceptions (paper mechanisms and harnesses that other
#    packages' tests share) are listed in scripts/api_allowlist.txt as
#    package.Name, package.Type.Method or package.Type.field followed by a
#    reason. A line without a reason, or
#    one naming a symbol that is no longer unused, fails too.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

for pkg in internal/*/ .; do
  pkg=${pkg%/}
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

if ! go run ./scripts/deadexports scripts/api_allowlist.txt . vriobench; then
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "doccheck: FAIL"
  exit 1
fi
echo "doccheck: ok"
