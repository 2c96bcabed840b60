package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestFireUnarmedAndNil(t *testing.T) {
	var nilSet *Set
	if err := nilSet.Fire("anything"); err != nil {
		t.Errorf("nil set fired: %v", err)
	}
	if nilSet.Fired("anything") != 0 {
		t.Error("nil set counted a firing")
	}
	nilSet.Disable("anything") // must not panic

	s := New()
	if err := s.Fire("unarmed"); err != nil {
		t.Errorf("unarmed site fired: %v", err)
	}
	var zero Set
	if err := zero.Fire("unarmed"); err != nil {
		t.Errorf("zero-value set fired: %v", err)
	}
	zero.Enable("s", Point{})
	if err := zero.Fire("s"); err == nil {
		t.Error("zero-value set did not fire after Enable")
	}
}

func TestFireError(t *testing.T) {
	s := New()
	s.Enable("site", Point{})
	err := s.Fire("site")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	custom := errors.New("custom boom")
	s.Enable("site", Point{Err: custom})
	err = s.Fire("site")
	if !errors.Is(err, ErrInjected) || !errors.Is(err, custom) {
		t.Errorf("custom err = %v", err)
	}
}

func TestFireDropAndDelay(t *testing.T) {
	s := New()
	s.Enable("sig", Point{Action: Drop})
	if err := s.Fire("sig"); !errors.Is(err, ErrDropped) {
		t.Errorf("drop = %v", err)
	}
	s.Enable("slow", Point{Action: Delay, Delay: 10 * time.Millisecond})
	start := time.Now()
	if err := s.Fire("slow"); err != nil {
		t.Errorf("delay returned %v", err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Error("delay did not stall")
	}
}

func TestCountLimitsFirings(t *testing.T) {
	s := New()
	s.Enable("site", Point{Count: 2})
	if err := s.Fire("site"); err == nil {
		t.Error("firing 1 passed")
	}
	if err := s.Fire("site"); err == nil {
		t.Error("firing 2 passed")
	}
	if err := s.Fire("site"); err != nil {
		t.Errorf("firing 3 should be disarmed: %v", err)
	}
	if got := s.Fired("site"); got != 2 {
		t.Errorf("fired = %d, want 2", got)
	}
	if got := s.Armed(); len(got) != 0 {
		t.Errorf("exhausted point still armed: %v", got)
	}
}

func TestDisableAndArmed(t *testing.T) {
	s := New()
	s.Enable("b", Point{})
	s.Enable("a", Point{})
	if got := s.Armed(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("armed = %v", got)
	}
	s.Disable("a")
	if err := s.Fire("a"); err != nil {
		t.Errorf("disabled site fired: %v", err)
	}
	if err := s.Fire("b"); err == nil {
		t.Error("site b unarmed")
	}
}

func TestParse(t *testing.T) {
	s, err := Parse("reconfig.launch=error, bus.signal=drop:x2 ,tcp.dial=delay:5ms,bus.divulge=error:x1,reconfig.preflight=error")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Armed(); len(got) != 5 {
		t.Fatalf("armed = %v", got)
	}
	if err := s.Fire("reconfig.preflight"); !errors.Is(err, ErrInjected) {
		t.Errorf("reconfig.preflight = %v", err)
	}
	if err := s.Fire("reconfig.launch"); !errors.Is(err, ErrInjected) {
		t.Errorf("reconfig.launch = %v", err)
	}
	if err := s.Fire("bus.signal"); !errors.Is(err, ErrDropped) {
		t.Errorf("bus.signal = %v", err)
	}
	if err := s.Fire("tcp.dial"); err != nil {
		t.Errorf("tcp.dial = %v", err)
	}
	s.Fire("bus.divulge")
	if err := s.Fire("bus.divulge"); err != nil {
		t.Errorf("bus.divulge should be exhausted after x1: %v", err)
	}

	if s, err := Parse(""); err != nil || len(s.Armed()) != 0 {
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
	if err := s.Fire("replica.crash.worker.2"); !errors.Is(err, ErrInjected) {
		t.Errorf("prefix site did not fire: %v", err)
	}
	if !KnownSite("replica.crash.w") || KnownSite("replica.crash.") || KnownSite("replica.crash") {
		t.Error("KnownSite prefix matching is off")
	}
}

func TestDefaultIsEmptyWithoutEnv(t *testing.T) {
	// The test process does not set FAULTPOINTS; Default must be a
	// usable empty set.
	if s := Default(); len(s.Armed()) != 0 {
		t.Errorf("default set armed: %v", s.Armed())
	}
}
