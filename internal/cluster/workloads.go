package cluster

import (
	"vrio/internal/sim"
	"vrio/internal/workload"
)

// The starters wire one §5 workload onto one guest, with its constants from
// the testbed's parameters, start it, and return the Results it records
// into. RunMeasured runs them and workload.Summarize aggregates them;
// RunEach does all three for the common case.

// StartEach calls start for every guest in order and collects the Results
// it returns, skipping the guests it leaves idle (nil).
func (tb *Testbed) StartEach(start func(i int) *workload.Results) []*workload.Results {
	var rs []*workload.Results
	for i := range tb.Guests {
		if r := start(i); r != nil {
			rs = append(rs, r)
		}
	}
	return rs
}

// RunEach starts a workload on every guest with start (see StartEach),
// runs warmup + duration with their Results measuring (see RunMeasured),
// and summarizes them over duration.
func (tb *Testbed) RunEach(warmup, duration sim.Time, start func(i int) *workload.Results) workload.Summary {
	rs := tb.StartEach(start)
	tb.RunMeasured(warmup, duration, rs...)
	return workload.Summarize(rs, duration)
}

// ServeRR makes guest i echo netperf RR requests, the server half of
// StartRR.
func (tb *Testbed) ServeRR(i int) {
	workload.InstallRRServer(tb.Guests[i], tb.P.NetperfRRProcessCost)
}

// StartRR serves netperf RR on guest i and drives it in closed loop from
// StationFor(i).
func (tb *Testbed) StartRR(i int) *workload.Results { return tb.startRR(i, tb.StationFor(i)) }

func (tb *Testbed) startRR(i int, station *workload.Station) *workload.Results {
	tb.ServeRR(i)
	rr := workload.NewRR(station, tb.Guests[i].MAC(), 16)
	rr.Start()
	return &rr.Results
}

// StartStream streams netperf TCP chunks from guest i to StationFor(i).
func (tb *Testbed) StartStream(i int) *workload.Results {
	st := workload.NewStream(tb.Guests[i], tb.StationFor(i), tb.P.StreamChunk, tb.P.StreamPerChunkCost, 16)
	st.Start()
	return &st.Results
}

// StartMacro serves cfg on guest i, cost of guest CPU per request, and
// drives it from StationFor(i).
func (tb *Testbed) StartMacro(i int, cfg workload.MacroConfig, cost sim.Time) *workload.Results {
	workload.InstallMacroServer(tb.Guests[i], cost, cfg.RespSize)
	m := workload.NewMacro(tb.StationFor(i), tb.Guests[i].MAC(), cfg)
	m.Start()
	return &m.Results
}

// StartFilebench runs Filebench's random-I/O personality on guest i with
// readers and writers threads, seeded seed0+i. The testbed must be built
// WithBlock and WithThreads.
func (tb *Testbed) StartFilebench(i, readers, writers int, seed0 uint64) *workload.Results {
	g := tb.Guests[i]
	fb := workload.NewFilebench(tb.Eng, g.Threads, g, workload.FilebenchConfig{
		Readers: readers, Writers: writers,
		IOSize:          tb.P.FilebenchIOSize,
		OpCost:          tb.P.FilebenchOpCost,
		CapacitySectors: tb.BlockDevices[i].Store().Capacity(),
		SectorSize:      tb.P.SectorSize,
		Seed:            seed0 + uint64(i),
	})
	fb.Start()
	return &fb.Results
}

// StartWebserver runs Filebench's Webserver personality on guest i, seeded
// seed0+i, if the guest's VMhost is one of the first activeHosts; a guest
// on a later VMhost stays idle and gets nil. The testbed must be built
// WithBlock and WithThreads.
func (tb *Testbed) StartWebserver(i int, seed0 uint64, activeHosts int) *workload.Results {
	if tb.GuestHost[i] >= activeHosts {
		return nil
	}
	g := tb.Guests[i]
	ws := workload.NewWebserver(tb.Eng, g.Threads, g, workload.WebserverConfig{
		Threads:         tb.P.WebserverThreads,
		Files:           tb.P.WebserverFileCount,
		MeanFileSize:    tb.P.WebserverMeanFileSize,
		ChunkSize:       tb.P.FilebenchIOSize,
		OpCost:          tb.P.WebserverOpCost,
		OpenCost:        tb.P.WebserverOpenCost,
		LogWrite:        tb.P.WebserverLogWrite,
		CapacitySectors: tb.BlockDevices[i].Store().Capacity(),
		SectorSize:      tb.P.SectorSize,
		Seed:            seed0 + uint64(i),
	})
	ws.Start()
	return &ws.Results
}

// StartEach calls start(r, g) for every rack r and guest index g in order
// and collects the Results it returns per rack r, skipping nil: the
// per-rack collectors RunMeasured takes.
func (f *Fabric) StartEach(start func(r, g int) *workload.Results) [][]*workload.Results {
	perRack := make([][]*workload.Results, len(f.Racks))
	for r, tb := range f.Racks {
		for g := range tb.Guests {
			if res := start(r, g); res != nil {
				perRack[r] = append(perRack[r], res)
			}
		}
	}
	return perRack
}

// StartRR serves netperf RR on guest g of the rack after r and drives it
// from rack r's station for g, so every transaction crosses the spine tier.
// The Results belong to rack r, whose engine records them.
func (f *Fabric) StartRR(r, g int) *workload.Results {
	return f.Racks[(r+1)%len(f.Racks)].startRR(g, f.Racks[r].StationFor(g))
}
