package workload

import (
	"math"

	"vrio/internal/guestos"
	"vrio/internal/sim"
)

// BlockIO is the guest-side block interface Filebench drives (satisfied by
// core.Guest).
type BlockIO interface {
	WriteBlock(sector uint64, data []byte, done func(error))
	ReadBlock(sector uint64, sectors int, done func([]byte, error))
	// BlockCPUCost reports the guest-side CPU consumed per operation of
	// the given size under the guest's I/O model; threads add it to their
	// compute so the VCPU feels the datapath.
	BlockCPUCost(bytes int) sim.Time
}

// FilebenchConfig parameterizes the random-I/O micro personalities of §5
// "Making a Local Device Remote": readers and writers issue IOSize random
// I/O within the VM's 1 GB ramdisk, O_DIRECT-style (every request crosses
// the guest-host boundary).
type FilebenchConfig struct {
	Readers, Writers int
	// IOSize is bytes per operation (the paper uses 4 KiB).
	IOSize int
	// OpCost is the per-op guest CPU cost, jittered ±20%.
	OpCost sim.Time
	// CapacitySectors and SectorSize describe the device geometry.
	CapacitySectors uint64
	SectorSize      int
	Seed            uint64
}

// Filebench runs reader/writer threads on a guest VCPU against its block
// device.
type Filebench struct {
	Results Results

	eng  *sim.Engine
	rng  *sim.RNG
	vcpu *guestos.VCPU
	dev  BlockIO
	cfg  FilebenchConfig
}

// NewFilebench builds the instance; threads start on Start.
func NewFilebench(eng *sim.Engine, vcpu *guestos.VCPU, dev BlockIO, cfg FilebenchConfig) *Filebench {
	if cfg.IOSize <= 0 || cfg.SectorSize <= 0 || cfg.CapacitySectors == 0 {
		panic("workload: incomplete filebench config")
	}
	return &Filebench{
		eng: eng, rng: sim.NewRNG(cfg.Seed ^ 0xf11e), vcpu: vcpu, dev: dev, cfg: cfg,
	}
}

// Start spawns the reader and writer threads.
func (fb *Filebench) Start() {
	for i := 0; i < fb.cfg.Readers; i++ {
		fb.spawn(false)
	}
	for i := 0; i < fb.cfg.Writers; i++ {
		fb.spawn(true)
	}
}

func (fb *Filebench) randSector() uint64 {
	sectorsPerOp := uint64(fb.cfg.IOSize / fb.cfg.SectorSize)
	if sectorsPerOp == 0 {
		sectorsPerOp = 1
	}
	slots := fb.cfg.CapacitySectors / sectorsPerOp
	return (uint64(fb.rng.Intn(int(slots)))) * sectorsPerOp
}

func (fb *Filebench) spawn(writer bool) {
	name := "reader"
	if writer {
		name = "writer"
	}
	th := fb.vcpu.Spawn(name)
	sectorsPerOp := fb.cfg.IOSize / fb.cfg.SectorSize
	payload := make([]byte, fb.cfg.IOSize)
	var loop func()
	loop = func() {
		start := fb.eng.Now()
		sector := fb.randSector()
		complete := func(n int, failed bool) {
			fb.Results.record(fb.eng.Now()-start, n, failed)
			op := fb.rng.Range(fb.cfg.OpCost*8/10, fb.cfg.OpCost*12/10)
			th.Do(op+fb.dev.BlockCPUCost(fb.cfg.IOSize), loop)
		}
		if writer {
			fb.dev.WriteBlock(sector, payload, func(err error) {
				complete(fb.cfg.IOSize, err != nil)
			})
		} else {
			fb.dev.ReadBlock(sector, sectorsPerOp, func(data []byte, err error) {
				complete(len(data), err != nil)
			})
		}
	}
	th.Do(fb.rng.Range(fb.cfg.OpCost*8/10, fb.cfg.OpCost*12/10), loop)
}

// WebserverConfig parameterizes Filebench's Webserver personality (§5
// "Improving Utilization"): Threads webserver workers per VM serve files
// with a log-normal size distribution (30 K files, 28 KB mean), reading
// each file in 4 KiB chunks and appending to a shared log.
type WebserverConfig struct {
	Threads      int
	Files        int
	MeanFileSize int
	ChunkSize    int
	// OpCost is guest CPU per chunk; OpenCost per file open+close;
	// LogWrite is the per-file log append size.
	OpCost   sim.Time
	OpenCost sim.Time
	LogWrite int

	CapacitySectors uint64
	SectorSize      int
	Seed            uint64
}

// Webserver runs the personality on one guest.
type Webserver struct {
	Results Results

	eng  *sim.Engine
	rng  *sim.RNG
	vcpu *guestos.VCPU
	dev  BlockIO
	cfg  WebserverConfig

	// fileSectors[i] is file i's start sector; fileSize[i] its size.
	fileSectors []uint64
	fileSize    []int
	logSector   uint64
}

// NewWebserver lays out the file set on the device address space and
// prepares the threads.
func NewWebserver(eng *sim.Engine, vcpu *guestos.VCPU, dev BlockIO, cfg WebserverConfig) *Webserver {
	if cfg.Threads <= 0 || cfg.Files <= 0 || cfg.SectorSize <= 0 {
		panic("workload: incomplete webserver config")
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 4096
	}
	w := &Webserver{
		eng: eng, rng: sim.NewRNG(cfg.Seed ^ 0x3eb), vcpu: vcpu, dev: dev, cfg: cfg,
	}
	// Log-normal sizes with sigma 0.8, scaled to the configured mean.
	const sigma = 0.8
	mu := math.Log(float64(cfg.MeanFileSize)) - sigma*sigma/2
	sector := uint64(0)
	secPerChunk := uint64(cfg.ChunkSize / cfg.SectorSize)
	for i := 0; i < cfg.Files; i++ {
		size := int(w.rng.LogNormal(mu, sigma))
		if size < cfg.SectorSize {
			size = cfg.SectorSize
		}
		chunks := uint64((size + cfg.ChunkSize - 1) / cfg.ChunkSize)
		if sector+chunks*secPerChunk >= cfg.CapacitySectors-64 {
			// Device full: stop laying out files early.
			break
		}
		w.fileSectors = append(w.fileSectors, sector)
		w.fileSize = append(w.fileSize, size)
		sector += chunks * secPerChunk
	}
	w.logSector = cfg.CapacitySectors - 8
	return w
}

// Start spawns the webserver threads.
func (w *Webserver) Start() {
	for i := 0; i < w.cfg.Threads; i++ {
		w.spawnThread()
	}
}

func (w *Webserver) spawnThread() {
	th := w.vcpu.Spawn("webserver")
	secPerChunk := w.cfg.ChunkSize / w.cfg.SectorSize
	logPayload := make([]byte, w.cfg.LogWrite)
	var serveFile func()
	serveFile = func() {
		idx := w.rng.Intn(len(w.fileSectors))
		base := w.fileSectors[idx]
		size := w.fileSize[idx]
		chunks := (size + w.cfg.ChunkSize - 1) / w.cfg.ChunkSize
		start := w.eng.Now()

		var readChunk func(i int)
		finishFile := func() {
			// Append to the shared log, then account the served file.
			appendLog := func() {
				w.dev.WriteBlock(w.logSector, logPayload, func(err error) {
					w.Results.record(w.eng.Now()-start, size, err != nil)
					th.Do(w.rng.Range(w.cfg.OpCost/2, w.cfg.OpCost), serveFile)
				})
			}
			if w.cfg.LogWrite > 0 {
				appendLog()
			} else {
				w.Results.record(w.eng.Now()-start, size, false)
				th.Do(w.rng.Range(w.cfg.OpCost/2, w.cfg.OpCost), serveFile)
			}
		}
		readChunk = func(i int) {
			if i >= chunks {
				finishFile()
				return
			}
			sector := base + uint64(i*secPerChunk)
			w.dev.ReadBlock(sector, secPerChunk, func(_ []byte, err error) {
				if err != nil {
					w.Results.record(w.eng.Now()-start, 0, true)
					th.Do(w.cfg.OpCost, serveFile)
					return
				}
				// Per-chunk processing on the VCPU (including the I/O
				// model's per-op datapath cost), then the next chunk.
				op := w.rng.Range(w.cfg.OpCost*8/10, w.cfg.OpCost*12/10)
				th.Do(op+w.dev.BlockCPUCost(w.cfg.ChunkSize), func() { readChunk(i + 1) })
			})
		}
		// Open the file, then stream it.
		th.Do(w.rng.Range(w.cfg.OpenCost*8/10, w.cfg.OpenCost*12/10), func() { readChunk(0) })
	}
	th.Do(w.rng.Range(w.cfg.OpenCost*8/10, w.cfg.OpenCost*12/10), serveFile)
}
