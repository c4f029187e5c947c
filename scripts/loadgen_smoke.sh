#!/usr/bin/env bash
# Two-process loopback smoke test for the real-wire carrier (DESIGN.md §14):
# a vrio-loadgen server and driver talk UDP over 127.0.0.1 with injected loss
# and corruption, and the §4.5 retransmit path must recover every request.
# Every response is SHA-256 verified; the run fails on any digest mismatch,
# on a run that never retransmitted (fault injection silently off), or on a
# run exceeding its wall-time bound. Wired into `make check` as
# loadgen-smoke.
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="$(mktemp -d "${TMPDIR:-/tmp}/vrio-loadgen-smoke.XXXXXX")"
BIN="$OUT/vrio-loadgen"
SERVER_PID=""

cleanup() {
	if [[ -n "$SERVER_PID" ]]; then
		kill "$SERVER_PID" 2>/dev/null || true
		wait "$SERVER_PID" 2>/dev/null || true
	fi
	rm -rf "$OUT"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/vrio-loadgen

# The run is bounded: quota mode (-requests) ends the drive as soon as the
# count completes, and `timeout` caps a hung run well under the CI budget.
REQUESTS=20000
DRIVE_TIMEOUT=90

# check SUMMARY — assert on the machine-readable summary.
check() {
	python3 - "$1" <<-'EOF'
	import json, sys
	s = json.load(open(sys.argv[1]))
	ok = True
	def need(cond, msg):
	    global ok
	    if not cond:
	        ok = False
	        print(f"FAIL: {msg}")
	need(s["digest_mismatches"] == 0, f"{s['digest_mismatches']} digest mismatches")
	need(s["requests"] >= 5000, f"only {s['requests']} hash-verified requests")
	need(s["retransmits"] > 0, "no retransmits despite injected loss")
	need(s["drops_injected"] > 0, "no injected drops — fault plan inactive")
	print(f"ok: {s['requests']} hash-verified requests, "
	      f"{s['retransmits']} retransmits, {s['digest_mismatches']} mismatches")
	sys.exit(0 if ok else 1)
	EOF
}

echo "== loadgen smoke: udp with injected loss =="
"$BIN" -serve -carrier udp -addr 127.0.0.1:17931 >"$OUT/udp-serve.log" 2>&1 &
SERVER_PID=$!
sleep 0.3
timeout "$DRIVE_TIMEOUT" "$BIN" -drive -carrier udp -addr 127.0.0.1:17931 \
	-workers 2 -guests 8 -loss 0.05 -corrupt 0.01 -netfrac 0.1 \
	-warmup 500ms -requests "$REQUESTS" -seed 1 \
	-summary "$OUT/udp.json" >"$OUT/udp-drive.log"
kill -INT "$SERVER_PID" && wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
check "$OUT/udp.json"

echo "loadgen smoke passed"
