package virtio

import (
	"vrio/internal/ethernet"
	"vrio/internal/interpose"
	"vrio/internal/sim"
	"vrio/internal/stats"
)

// NetServer is the paravirtual net back end of one device, run by the
// baseline, Elvis and vRIO models alike (§2–§4): it decodes a frame, runs the
// device's interposition chain in the frame's direction, charges the chain's
// cost and hands the re-framed frame to a NetSite, which is what differs.
type NetServer struct {
	Chain *interpose.Chain
	// Device is the device id the chain sees.
	Device uint16
	// Counters, when set, counts bad_msgs (frames too short to decode) and
	// interpose_drops (frames the chain refused).
	Counters *stats.Counters
}

// NetSite is the host serving a device's frames in one direction. It picks
// the core that pays (the vhost core, a sidecore, an IOhost worker) and the
// frame's destination (the wire, the uplink, the guest's rx ring, the
// transport).
type NetSite interface {
	// Charge bills cost of CPU time to the serving core and runs fn. Whether
	// fn waits for the cost is the site's charging rule. cost is always
	// positive.
	Charge(cost sim.Time, fn func())
	// Forward sends the interposed frame on. Its payload may alias the
	// served bytes, so it is valid only as long as they are.
	Forward(f ethernet.Frame)
}

// Serve decodes raw and serves the frame in direction dir. A frame shorter
// than an Ethernet header is counted and dropped.
func (s *NetServer) Serve(site NetSite, dir interpose.Direction, raw []byte) {
	f, err := ethernet.Decode(raw)
	if err != nil {
		s.count("bad_msgs")
		return
	}
	s.Interpose(site, dir, f)
}

// Interpose serves an already decoded frame: the chain runs in direction
// dir, its cost is charged on the site, and the frame with the chain's
// payload is forwarded. A frame the chain refuses is counted and dropped.
func (s *NetServer) Interpose(site NetSite, dir interpose.Direction, f ethernet.Frame) {
	payload, cost, err := s.Chain.Process(dir, s.Device, f.Payload)
	if err != nil {
		s.count("interpose_drops")
		return
	}
	f.Payload = payload
	if cost <= 0 {
		site.Forward(f)
		return
	}
	out := f
	site.Charge(cost, func() { site.Forward(out) })
}

func (s *NetServer) count(name string) {
	if s.Counters != nil {
		s.Counters.Inc(name, 1)
	}
}
