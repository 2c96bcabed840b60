package mhrt

import (
	"net"
	"testing"
	"time"

	"repro/internal/bus"
)

func startBus(t *testing.T) (*bus.Bus, *bus.Server) {
	t.Helper()
	b := bus.New()
	if err := b.AddInstance(bus.InstanceSpec{
		Name: "w", Machine: "m1",
		Interfaces: []bus.IfaceSpec{{Name: "io", Dir: bus.InOut}},
	}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := bus.NewServer(b, l)
	t.Cleanup(func() { srv.Close() })
	return b, srv
}

func TestFromEnv(t *testing.T) {
	_, srv := startBus(t)

	t.Setenv(EnvBusAddr, "")
	t.Setenv(EnvInstance, "")
	if _, err := FromEnv(); err == nil {
		t.Error("empty env accepted")
	}

	t.Setenv(EnvBusAddr, srv.Addr().String())
	t.Setenv(EnvInstance, "w")
	t.Setenv(EnvSleepUnit, "nope")
	if _, err := FromEnv(); err == nil {
		t.Error("bad sleep unit accepted")
	}

	t.Setenv(EnvSleepUnit, "2")
	rt, err := FromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Status() != bus.StatusAdd {
		t.Errorf("status = %s", rt.Status())
	}

	// Instance is now attached; a second attach fails.
	t.Setenv(EnvInstance, "w")
	if _, err := FromEnv(); err == nil {
		t.Error("double attach accepted")
	}
}

func TestAttach(t *testing.T) {
	_, srv := startBus(t)
	rt, err := Attach(srv.Addr().String(), "w")
	if err != nil {
		t.Fatal(err)
	}
	rt.Init()
	if rt.Err() != nil {
		t.Fatal(rt.Err())
	}
	if _, err := Attach("127.0.0.1:1", "w"); err == nil {
		t.Error("dead bus accepted")
	}
}

func TestMainCleanExitOnDelete(t *testing.T) {
	b, srv := startBus(t)
	rt, err := Attach(srv.Addr().String(), "w")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Main(rt, func() {
			rt.Init()
			for {
				rt.Sleep(1)
			}
		})
	}()
	// Deleted before or during a sleep, the module ends the same way: the
	// sleep wakes on the deletion notice, or the next one sees it.
	if err := b.DeleteInstance("w"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Main did not return after instance deletion")
	}
}
