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
# 3. No dead public surface: an exported function, method or constant in a
#    non-test internal/ file must be named somewhere besides its own
#    definition, across the non-test .go files of both modules (the root
#    and vriobench/), `//` comments stripped. An export that only tests use
#    belongs in the package's export_test.go, and dead code is deleted. The
#    exceptions (paper mechanisms and harnesses that other packages' tests
#    share) are listed in scripts/api_allowlist.txt as package.Name or
#    package.Type.Method followed by a reason. A line without a reason, or
#    one naming a symbol that is no longer unused, fails too. Like check 1
#    this matches names, not types: a name that also occurs elsewhere
#    counts as used.
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

# Check 3. The awk pass prints "package.Name file:line" for every unused
# export; the allowlist pass then flags unlisted ones, reasonless lines and
# stale lines.
mapfile -t gofiles < <(find . -path ./.git -prune -o -name '*.go' ! -name '*_test.go' -print | sort)
unused=$(awk '
  FNR == 1 { inconst = 0; pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg); sub(/.*\//, "", pkg) }
  { line = $0; sub(/\/\/.*/, "", line) }
  FILENAME ~ /^\.\/internal\// {
    name = ""; recv = ""
    if (line ~ /^func [A-Z]/) {
      name = substr(line, 6)
    } else if (line ~ /^func \([^)]*\) [A-Z]/) {
      recv = line; sub(/^func \(/, "", recv); sub(/\).*/, "", recv); sub(/.*[ *]/, "", recv); sub(/\[.*/, "", recv)
      name = line; sub(/^func \([^)]*\) /, "", name)
    } else if (line ~ /^const [A-Z]/) {
      name = substr(line, 7)
    } else if (inconst && line ~ /^\t[A-Z]/) {
      name = substr(line, 2)
    }
    if (name != "") {
      sub(/[^A-Za-z0-9_].*/, "", name)
      def[name] = pkg "." (recv == "" ? "" : recv ".") name " " FILENAME ":" FNR
    }
    if (line ~ /^const \($/) inconst = 1
    else if (line ~ /^\)/) inconst = 0
  }
  {
    n = split(line, tok, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) if (tok[i] != "") count[tok[i]]++
  }
  END { for (name in def) if (count[name] == 1) print def[name] }
' "${gofiles[@]}" | sort)
bad=$(awk '
  NR == FNR { if ($1 != "") unused[$1] = $2; next }
  /^[[:space:]]*(#|$)/ { next }
  NF < 2 { printf "scripts/api_allowlist.txt:%d: %s has no reason\n", FNR, $1; next }
  !($1 in unused) { printf "scripts/api_allowlist.txt:%d: %s is not an unused export; drop the line\n", FNR, $1; next }
  { listed[$1] = 1 }
  END {
    for (sym in unused) if (!(sym in listed))
      printf "%s: %s is named only by its definition (delete it, move it to export_test.go, or allowlist it)\n", unused[sym], sym
  }
' <(printf '%s\n' "$unused") scripts/api_allowlist.txt | sort)
if [ -n "$bad" ]; then
  echo "$bad"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "doccheck: FAIL"
  exit 1
fi
echo "doccheck: ok"
