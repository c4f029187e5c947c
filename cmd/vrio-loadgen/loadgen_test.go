package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// parse builds a config from args the way main does, defaults included.
func parse(t *testing.T, args ...string) *config {
	t.Helper()
	cfg := &config{}
	fs := flagSet(cfg)
	fs.Init("vrio-loadgen", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// serve runs the server in this process on a loopback port the kernel
// picked. It returns the address and a stop function that closes the
// server's stop channel and returns its exit code.
func serve(t *testing.T) (addr string, stop func() int) {
	t.Helper()
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr = probe.LocalAddr().String()
	probe.Close()

	cfg := parse(t, "-serve", "-addr", addr)
	quit := make(chan struct{})
	exit := make(chan int, 1)
	go func() { exit <- runServe(cfg, quit) }()

	var once sync.Once
	code := -1
	stop = func() int {
		once.Do(func() {
			close(quit)
			select {
			case code = <-exit:
			case <-time.After(10 * time.Second):
				t.Error("server did not exit after stop")
			}
		})
		return code
	}
	t.Cleanup(func() { stop() })
	return addr, stop
}

// drive runs a quota-mode driver against addr and returns its exit code
// and the summary it wrote.
func drive(t *testing.T, addr string, args ...string) (int, summaryJSON) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "summary.json")
	cfg := parse(t, append([]string{"-drive", "-addr", addr, "-warmup", "100ms", "-summary", path}, args...)...)
	if err := validate(cfg); err != nil {
		t.Fatal(err)
	}
	code := runDrive(cfg, make(chan struct{}))
	var s summaryJSON
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return code, s
}

// TestDriveQueuesDepth runs NQ=2 x QD=4 per guest with a share of
// unreliable net sends over a lossless loopback socket: every echo is
// verified and the quota is met.
func TestDriveQueuesDepth(t *testing.T) {
	addr, stop := serve(t)
	code, s := drive(t, addr, "-workers", "2", "-guests", "4",
		"-blk-queues", "2", "-blk-depth", "4", "-netfrac", "0.1", "-requests", "3000")
	if code != 0 {
		t.Errorf("drive exit = %d, want 0", code)
	}
	if s.DigestMismatches != 0 {
		t.Errorf("%d digest mismatches", s.DigestMismatches)
	}
	// A net send is unreliable by design: one that a full kernel receive
	// buffer drops completes as lost, not verified, and still counts
	// toward the quota.
	if s.Requests+s.NetLost < 3000 {
		t.Errorf("requests = %d, net lost = %d: want at least the quota 3000", s.Requests, s.NetLost)
	}
	if s.BlkErrors != 0 {
		t.Errorf("%d block device errors on a lossless socket", s.BlkErrors)
	}
	if s.BlkDone == 0 || s.NetDone == 0 {
		t.Errorf("blk_done = %d, net_done = %d: want both paths exercised", s.BlkDone, s.NetDone)
	}
	if s.BlkQueues != 2 || s.BlkDepth != 4 {
		t.Errorf("summary shape = %d queues x QD%d, want 2 x QD4", s.BlkQueues, s.BlkDepth)
	}
	if code := stop(); code != 0 {
		t.Errorf("server exit = %d, want 0", code)
	}
}

// TestDriveLossRetransmits injects egress loss and corruption on the
// driver: §4.5 retransmission recovers every block request and no
// corrupted byte reaches a guest.
func TestDriveLossRetransmits(t *testing.T) {
	addr, stop := serve(t)
	code, s := drive(t, addr, "-workers", "2", "-guests", "4",
		"-loss", "0.05", "-corrupt", "0.01", "-requests", "2000")
	if code != 0 {
		t.Errorf("drive exit = %d, want 0", code)
	}
	if s.DigestMismatches != 0 {
		t.Errorf("%d digest mismatches", s.DigestMismatches)
	}
	if s.Requests < 2000 {
		t.Errorf("requests = %d, want at least the quota 2000", s.Requests)
	}
	if s.Retransmits == 0 {
		t.Error("no retransmits despite injected loss")
	}
	if s.DropsInjected == 0 {
		t.Error("no injected drops: the fault plan is inactive")
	}
	if code := stop(); code != 0 {
		t.Errorf("server exit = %d, want 0", code)
	}
}

// TestDriveSmallestQuota runs the smallest quota validate accepts, one
// request per worker, to its end.
func TestDriveSmallestQuota(t *testing.T) {
	addr, stop := serve(t)
	code, s := drive(t, addr, "-workers", "2", "-guests", "2", "-requests", "2")
	if code != 0 {
		t.Errorf("drive exit = %d, want 0", code)
	}
	if s.Requests < 2 || s.DigestMismatches != 0 {
		t.Errorf("requests = %d, mismatches = %d: want at least 2 verified", s.Requests, s.DigestMismatches)
	}
	if code := stop(); code != 0 {
		t.Errorf("server exit = %d, want 0", code)
	}
}

// TestQuotaCountsFromReset pins that warmup completions do not count
// toward a worker's quota; only those after the statistics reset do.
func TestQuotaCountsFromReset(t *testing.T) {
	w, err := newWorker(parse(t, "-drive"), 0, 1, make(chan int, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer w.carrier.Close()
	w.completed()
	if w.stopping {
		t.Fatal("a warmup completion reached the quota")
	}
	w.resetStats()
	w.completed()
	if !w.stopping {
		t.Fatal("the one measured completion of a quota of 1 did not stop the worker")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		args string
		ok   bool
	}{
		{"-serve", true},
		{"-drive", true},
		{"", false},
		{"-serve -drive", false},
		{"-serve -carrier tcp", false},
		{"-drive -carrier tcp", false},
		{"-drive -workers 2 -guests 2 -requests 1", false},
		{"-drive -workers 2 -guests 2 -requests 2", true},
		{"-drive -blk-queues 0", false},
		{"-drive -blk-queues 256", true},
		{"-drive -blk-queues 257", false},
		{"-drive -netsize 7", false},
		{"-drive -netsize 8", true},
		{fmt.Sprintf("-drive -netsize %d", udpMaxChunk), true},
		{fmt.Sprintf("-drive -netsize %d", udpMaxChunk+1), false},
	}
	for _, c := range cases {
		err := validate(parse(t, strings.Fields(c.args)...))
		if (err == nil) != c.ok {
			t.Errorf("%q: err = %v, want ok = %v", c.args, err, c.ok)
		}
	}
}
