package faultinject

import (
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestFireUnarmedAndNil(t *testing.T) {
	s := New()
	if err := s.Fire("unarmed", clock.Clock{}); err != nil {
		t.Errorf("unarmed site fired: %v", err)
	}
	var zero Set
	if err := zero.Fire("unarmed", clock.Clock{}); err != nil {
		t.Errorf("zero-value set fired: %v", err)
	}
	zero.Enable("s", Point{})
	if err := zero.Fire("s", clock.Clock{}); err == nil {
		t.Error("zero-value set did not fire after Enable")
	}
}

func TestFireError(t *testing.T) {
	s := New()
	s.Enable("site", Point{})
	err := s.Fire("site", clock.Clock{})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	custom := errors.New("custom boom")
	s.Enable("site", Point{Err: custom})
	err = s.Fire("site", clock.Clock{})
	if !errors.Is(err, ErrInjected) || !errors.Is(err, custom) {
		t.Errorf("custom err = %v", err)
	}
}

func TestFireDropAndDelay(t *testing.T) {
	s := New()
	s.Enable("sig", Point{Action: Drop})
	if err := s.Fire("sig", clock.Clock{}); !errors.Is(err, ErrDropped) {
		t.Errorf("drop = %v", err)
	}
	s.Enable("slow", Point{Action: Delay, Delay: 10 * time.Millisecond})
	v := clock.NewVirtual(time.Unix(1000, 0))
	fired := make(chan error, 1)
	go func() { fired <- s.Fire("slow", v.Clock()) }()
	v.BlockUntil(1)
	v.Advance(9 * time.Millisecond)
	select {
	case <-fired:
		t.Error("delay did not stall")
	default:
	}
	v.Advance(time.Millisecond)
	if err := <-fired; err != nil {
		t.Errorf("delay returned %v", err)
	}
}

func TestCountLimitsFirings(t *testing.T) {
	s := New()
	s.Enable("site", Point{Count: 2})
	if err := s.Fire("site", clock.Clock{}); err == nil {
		t.Error("firing 1 passed")
	}
	if err := s.Fire("site", clock.Clock{}); err == nil {
		t.Error("firing 2 passed")
	}
	if err := s.Fire("site", clock.Clock{}); err != nil {
		t.Errorf("firing 3 should be disarmed: %v", err)
	}
	if got := s.Fired("site"); got != 2 {
		t.Errorf("fired = %d, want 2", got)
	}
}

func TestDisableAndArmed(t *testing.T) {
	s := New()
	s.Enable("b", Point{})
	s.Enable("a", Point{})
	s.Disable("a")
	if err := s.Fire("a", clock.Clock{}); err != nil {
		t.Errorf("disabled site fired: %v", err)
	}
	if err := s.Fire("b", clock.Clock{}); err == nil {
		t.Error("site b unarmed")
	}
}

func TestParse(t *testing.T) {
	s, err := Parse("reconfig.launch=error, bus.signal=drop:x2 ,tcp.dial=delay:5ms,bus.divulge=error:x1,reconfig.preflight=error")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fire("reconfig.preflight", clock.Clock{}); !errors.Is(err, ErrInjected) {
		t.Errorf("reconfig.preflight = %v", err)
	}
	if err := s.Fire("reconfig.launch", clock.Clock{}); !errors.Is(err, ErrInjected) {
		t.Errorf("reconfig.launch = %v", err)
	}
	if err := s.Fire("bus.signal", clock.Clock{}); !errors.Is(err, ErrDropped) {
		t.Errorf("bus.signal = %v", err)
	}
	if err := s.Fire("tcp.dial", clock.Clock{}); err != nil || s.Fired("tcp.dial") != 1 {
		t.Errorf("tcp.dial = %v, fired %d", err, s.Fired("tcp.dial"))
	}
	s.Fire("bus.divulge", clock.Clock{})
	if err := s.Fire("bus.divulge", clock.Clock{}); err != nil {
		t.Errorf("bus.divulge should be exhausted after x1: %v", err)
	}

	if s, err := Parse(""); err != nil || s.Fire("reconfig.launch", clock.Clock{}) != nil {
		t.Errorf("empty spec: %v %v", s, err)
	}
}

func TestParseRejectsMalformedAndUnknown(t *testing.T) {
	tests := []struct {
		spec string
		why  string
	}{
		{"noequals", "missing ="},
		{"=error", "empty site"},
		{"bus.signal=frobnicate", "unknown action"},
		{"bus.signal=delay", "delay without duration"},
		{"bus.signal=delay:bogus", "bad duration"},
		{"bus.signal=error:x0", "zero count"},
		{"bus.signal=error:xhello", "non-numeric count"},
		{"bus.sginal=error", "typoed site"},
		{"nosuchsite=error", "unknown site"},
		{"launch=error", "bare suffix of a known site"},
		{"replica.crash.=error", "prefix with empty instance"},
		{"bus.signal=drop,nosuchsite=error", "unknown site later in list"},
	}
	for _, tc := range tests {
		if _, err := Parse(tc.spec); err == nil {
			t.Errorf("Parse(%q) accepted (%s)", tc.spec, tc.why)
		}
	}
}

func TestParseAcceptsPrefixSites(t *testing.T) {
	s, err := Parse("replica.crash.worker.2=error:x1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fire("replica.crash.worker.2", clock.Clock{}); !errors.Is(err, ErrInjected) {
		t.Errorf("prefix site did not fire: %v", err)
	}
	if !KnownSite("replica.crash.w") || KnownSite("replica.crash.") || KnownSite("replica.crash") {
		t.Error("KnownSite prefix matching is off")
	}
}

func TestDefaultIsEmptyWithoutEnv(t *testing.T) {
	// The test process does not set FAULTPOINTS; Default must be a
	// usable empty set.
	s := Default()
	for _, site := range Sites {
		if err := s.Fire(site, clock.Clock{}); err != nil || s.Fired(site) != 0 {
			t.Errorf("default set fired %s: %v", site, err)
		}
	}
}
