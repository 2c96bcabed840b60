// Package mhrt is the public runtime that compiled, standalone module
// binaries link against. cmd/mhgen -standalone emits a bootstrap that binds
// the module's mh identifier to a runtime attached over TCP:
//
//	var mh = mhrt.MustFromEnv()
//
//	func main() { mhrt.Main(mh, mhModuleMain) }
//
// The process connects to the software bus named by MH_BUS_ADDR as the
// instance named by MH_INSTANCE, exactly like a POLYLITH module process
// joining the bus on its host.
package mhrt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/bus"
	"repro/internal/mh"
	"repro/internal/telemetry"
)

// MH is the participation runtime type (the mh_* primitive set).
type MH = mh.Runtime

// Env variable names consumed by FromEnv.
const (
	EnvBusAddr   = "MH_BUS_ADDR"
	EnvInstance  = "MH_INSTANCE"
	EnvSleepUnit = "MH_SLEEP_UNIT_MS"
	// EnvTelemetry, when set to a non-empty value other than "0", gives the
	// runtime a metrics registry (flag-check counts, capture/restore
	// timings); Main dumps its JSON snapshot to stderr at module exit.
	EnvTelemetry = "MH_TELEMETRY"
)

// FromEnv attaches to the bus named by the environment and returns the
// module's runtime.
func FromEnv() (*MH, error) {
	addr := os.Getenv(EnvBusAddr)
	instance := os.Getenv(EnvInstance)
	if addr == "" || instance == "" {
		return nil, fmt.Errorf("mhrt: %s and %s must be set", EnvBusAddr, EnvInstance)
	}
	// Validate the whole environment before attaching, so a configuration
	// error does not claim the instance's one attachment slot.
	opts := []mh.Option{}
	if ms := os.Getenv(EnvSleepUnit); ms != "" {
		n, err := strconv.Atoi(ms)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("mhrt: bad %s=%q", EnvSleepUnit, ms)
		}
		opts = append(opts, mh.WithSleepUnit(time.Duration(n)*time.Millisecond))
	}
	if tv := os.Getenv(EnvTelemetry); tv != "" && tv != "0" {
		opts = append(opts, mh.WithTelemetry(telemetry.NewRegistry()))
	}
	port, err := bus.DialPort(addr, instance)
	if err != nil {
		return nil, err
	}
	return mh.New(port, opts...), nil
}

// MustFromEnv is FromEnv, exiting the process on failure.
func MustFromEnv() *MH {
	rt, err := FromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return rt
}

// Attach connects to a bus server directly (for hosts that do not use the
// environment convention).
func Attach(addr, instance string, opts ...mh.Option) (*MH, error) {
	port, err := bus.DialPort(addr, instance)
	if err != nil {
		return nil, err
	}
	return mh.New(port, opts...), nil
}

// Main runs a module body as the process's main loop: the paper's SIGHUP is
// forwarded into the runtime's reconfiguration flag, a Termination unwind
// (state divulged, or instance deleted) exits cleanly, and any recorded
// runtime error exits nonzero.
func Main(rt *MH, body func()) {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGHUP)
	defer signal.Stop(sigs)
	go func() { //archlint:spawn SIGHUP forwarder; exits when signal.Stop closes sigs
		for range sigs {
			rt.RequestReconfig()
		}
	}()
	term := mh.Run(body)
	// Writes are posted, not acknowledged: closing the port is the barrier
	// that gets the module's last ones applied before the process exits.
	err := rt.Err()
	if c, ok := rt.Port().(io.Closer); ok {
		// A connection the bus has already dropped has nothing to flush.
		if cerr := c.Close(); err == nil && !errors.Is(cerr, net.ErrClosed) {
			err = cerr
		}
	}
	dumpTelemetry(rt)
	if err != nil && !errors.Is(err, bus.ErrStopped) {
		fmt.Fprintln(os.Stderr, "module error:", err)
		os.Exit(1)
	}
	if term != nil {
		fmt.Fprintln(os.Stderr, "module terminated:", term.Reason)
	}
}

// dumpTelemetry writes the runtime's metrics snapshot to stderr as one JSON
// line, when telemetry is enabled (MH_TELEMETRY). The per-process dump is
// how a standalone module binary reports its flag-check count and state
// timings back to whoever launched it.
func dumpTelemetry(rt *MH) {
	reg := rt.Telemetry()
	if reg == nil {
		return
	}
	if data, err := json.Marshal(reg.Snapshot()); err == nil {
		fmt.Fprintln(os.Stderr, "mh telemetry:", string(data))
	}
}
