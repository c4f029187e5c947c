package params

import (
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatalf("Default() does not validate: %v", err)
	}
}

func TestValidateRejectsNegativeDuration(t *testing.T) {
	p := Default()
	p.ExitCost = -1
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "ExitCost") {
		t.Errorf("negative ExitCost: err = %v", err)
	}
}

func TestValidateRejectsBadMTU(t *testing.T) {
	for _, mtu := range []int{0, 1499, 9001} {
		p := Default()
		p.MTU = mtu
		if err := p.Validate(); err == nil {
			t.Errorf("MTU %d accepted", mtu)
		}
	}
	for _, mtu := range []int{1500, 8100, 9000} {
		p := Default()
		p.MTU = mtu
		if err := p.Validate(); err != nil {
			t.Errorf("MTU %d rejected: %v", mtu, err)
		}
	}
}

func TestValidateRejectsBadSectorSize(t *testing.T) {
	for _, s := range []int{0, -512, 513, 1000} {
		p := Default()
		p.SectorSize = s
		if err := p.Validate(); err == nil {
			t.Errorf("SectorSize %d accepted", s)
		}
	}
}

func TestValidateRejectsNonPositive(t *testing.T) {
	cases := []func(*P){
		func(p *P) { p.RxRingSize = 0 },
		func(p *P) { p.MaxRetransmits = 0 },
		func(p *P) { p.LinkBandwidth10G = 0 },
		func(p *P) { p.LinkBandwidth40G = -1 },
	}
	for i, mutate := range cases {
		p := Default()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestUnmarshalOverrides(t *testing.T) {
	p := Default()
	if err := p.UnmarshalOverrides([]byte(`{"MTU": 1500, "RxRingSize": 512}`)); err != nil {
		t.Fatalf("valid overrides rejected: %v", err)
	}
	if p.MTU != 1500 || p.RxRingSize != 512 {
		t.Errorf("overrides not applied: MTU=%d RxRingSize=%d", p.MTU, p.RxRingSize)
	}
	// Untouched fields keep defaults.
	if p.MaxRetransmits != Default().MaxRetransmits {
		t.Error("override clobbered unrelated field")
	}
}

func TestUnmarshalOverridesRejectsUnknownField(t *testing.T) {
	p := Default()
	if err := p.UnmarshalOverrides([]byte(`{"NoSuchKnob": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestUnmarshalOverridesRejectsInvalidResult(t *testing.T) {
	p := Default()
	if err := p.UnmarshalOverrides([]byte(`{"MTU": 100}`)); err == nil {
		t.Error("override producing invalid params accepted")
	}
}

func TestUnmarshalOverridesRejectsGarbage(t *testing.T) {
	p := Default()
	if err := p.UnmarshalOverrides([]byte(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}
