// Command vrio-loadgen drives the §4.2 transport protocol over a real
// network: one process runs the IOhost side (-serve), another runs N
// concurrent closed-loop guests (-drive), and the two speak the exact
// transport code the simulation exercises — same Driver, same Endpoint,
// same bufpool leases — carried by internal/netwire's UDP sockets instead
// of simulated cables.
//
// Every payload is verified: the server prefixes each echo with the
// SHA-256 digest of the request, and the client checks both the digest
// and the echoed bytes. Block requests ride the §4.5 retransmission
// machinery (run with -loss to watch it recover real datagram loss); net
// sends are deliberately unreliable, so the client gives each one a
// loss timeout and counts expiries instead of retrying.
//
// Two-process loopback quickstart:
//
//	vrio-loadgen -serve -addr 127.0.0.1:7842 &
//	vrio-loadgen -drive -addr 127.0.0.1:7842 \
//	    -workers 2 -guests 8 -loss 0.05 -duration 10s
//
// SIGINT/SIGTERM at either end drains in-flight requests, flushes the
// JSONL artifacts, and prints the final summary instead of dying
// mid-write. -requests stops after a fixed measured count; otherwise
// -duration bounds the measured phase.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vrio/internal/ethernet"
	"vrio/internal/sim"
	"vrio/internal/transport"
)

// The loadgen uses the same device-type convention as the simulated
// stack: every guest owns one block device and one net device, both
// numbered by the guest's id.
const (
	devTypeNet = 1
	devTypeBlk = 2

	// serverNode seeds the IOhost MAC. Both processes derive it, so the
	// hello handshake is the only address exchange needed.
	serverNode = 0xF0F0

	// udpMaxChunk keeps header+chunk inside one UDP datagram
	// (netwire.MaxDatagram) with room for the netwire preamble.
	udpMaxChunk = 32 << 10
)

func serverMAC() ethernet.MAC { return ethernet.NewMAC(serverNode) }

type config struct {
	serve   bool
	drive   bool
	carrier string
	addr    string

	workers  int
	guests   int
	requests uint64
	duration time.Duration
	warmup   time.Duration

	blkSize    int
	blkQueues  int
	blkDepth   int
	netSize    int
	netFrac    float64
	netTimeout time.Duration

	rto     time.Duration
	retries int

	loss    float64
	corrupt float64
	seed    uint64

	metricsPath string
	summaryPath string
	sampleEvery time.Duration
}

func main() {
	cfg := &config{}
	flagSet(cfg).Parse(os.Args[1:])
	if err := validate(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "vrio-loadgen:", err)
		os.Exit(2)
	}
	if cfg.serve {
		os.Exit(runServe(cfg, notifyStop()))
	}
	os.Exit(runDrive(cfg, notifyStop()))
}

// flagSet binds the command line to cfg, defaults included.
func flagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("vrio-loadgen", flag.ExitOnError)
	fs.BoolVar(&cfg.serve, "serve", false, "run the IOhost side (digest-echo server)")
	fs.BoolVar(&cfg.drive, "drive", false, "run the IOclient side (traffic generator)")
	fs.StringVar(&cfg.carrier, "carrier", "udp", "udp, the only carrier (accepted because vriobench starts its server with -carrier udp)")
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:7842", "listen (-serve) or server (-drive) address")
	fs.IntVar(&cfg.workers, "workers", 2, "drive: loop goroutines, each with its own socket, pool, and driver")
	fs.IntVar(&cfg.guests, "guests", 8, "drive: concurrent closed-loop guests, sharded across workers")
	fs.Uint64Var(&cfg.requests, "requests", 0, "drive: stop after this many measured requests, at least -workers (0 = use -duration)")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "drive: measured run length when -requests is 0")
	fs.DurationVar(&cfg.warmup, "warmup", 2*time.Second, "drive: warmup before the statistics reset")
	fs.IntVar(&cfg.blkSize, "blksize", 4096, "drive: block request payload bytes")
	fs.IntVar(&cfg.blkQueues, "blk-queues", 1, "drive: NVMe-style submission queues per guest (queue id rides the §4.2 header)")
	fs.IntVar(&cfg.blkDepth, "blk-depth", 1, "drive: outstanding block requests per queue (queue depth)")
	fs.IntVar(&cfg.netSize, "netsize", 1024, "drive: net frame bytes (first 8 are the sequence number)")
	fs.Float64Var(&cfg.netFrac, "netfrac", 0, "drive: fraction of requests that are (unreliable) net sends")
	fs.DurationVar(&cfg.netTimeout, "nettimeout", 250*time.Millisecond, "drive: net echo loss timeout")
	fs.DurationVar(&cfg.rto, "rto", 20*time.Millisecond, "initial §4.5 retransmission timeout")
	fs.IntVar(&cfg.retries, "retries", 8, "max §4.5 retransmissions per block request")
	fs.Float64Var(&cfg.loss, "loss", 0, "injected egress frame-loss probability")
	fs.Float64Var(&cfg.corrupt, "corrupt", 0, "injected egress bit-corruption probability")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for payload and fault draws")
	fs.StringVar(&cfg.metricsPath, "metrics", "", "write the metrics timeseries JSONL here")
	fs.StringVar(&cfg.summaryPath, "summary", "", "drive: write the final summary as JSON here")
	fs.DurationVar(&cfg.sampleEvery, "sample-interval", time.Second, "metrics sampling interval")
	return fs
}

func validate(cfg *config) error {
	if cfg.serve == cfg.drive {
		return fmt.Errorf("exactly one of -serve or -drive is required")
	}
	if cfg.carrier != "udp" {
		return fmt.Errorf("unknown carrier %q (udp is the only one)", cfg.carrier)
	}
	if cfg.drive {
		if cfg.workers < 1 || cfg.guests < cfg.workers {
			return fmt.Errorf("need -workers >= 1 and -guests >= -workers (got %d workers, %d guests)", cfg.workers, cfg.guests)
		}
		if cfg.requests > 0 && cfg.requests < uint64(cfg.workers) {
			// Each worker stops after its share of the quota; a zero share
			// would never stop.
			return fmt.Errorf("-requests must be 0 or at least -workers (got %d requests, %d workers)", cfg.requests, cfg.workers)
		}
		if cfg.blkSize < 1 {
			return fmt.Errorf("-blksize must be at least 1")
		}
		if cfg.blkQueues < 1 || cfg.blkQueues > 256 {
			return fmt.Errorf("-blk-queues must be in [1, 256] (the queue id is one header byte)")
		}
		if cfg.blkDepth < 1 {
			return fmt.Errorf("-blk-depth must be at least 1")
		}
		if cfg.netSize < 8 || cfg.netSize > udpMaxChunk {
			return fmt.Errorf("-netsize must be in [8, %d]", udpMaxChunk)
		}
		if cfg.netFrac < 0 || cfg.netFrac > 1 {
			return fmt.Errorf("-netfrac must be in [0, 1]")
		}
	}
	return nil
}

// transportConfig builds the §4.2 config: chunks are capped to one
// datagram.
func transportConfig(cfg *config) transport.Config {
	return transport.Config{
		MaxChunk:       udpMaxChunk,
		InitialTimeout: sim.Time(cfg.rto),
		MaxRetransmits: cfg.retries,
	}
}

// fillPayload fills b with deterministic pseudo-random bytes.
func fillPayload(rng *sim.RNG, b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], rng.Uint64())
	}
	if i < len(b) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], rng.Uint64())
		copy(b[i:], tail[:])
	}
}

// notifyStop arms SIGINT/SIGTERM handling: the first signal closes the
// returned channel (callers drain and report), a second kills the process
// the classic way.
func notifyStop() <-chan struct{} {
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		close(stop)
		<-sigc
		os.Exit(130)
	}()
	return stop
}

// sleepOrStop waits for d, returning early (true) if stop closes first.
func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return false
	case <-stop:
		return true
	}
}
