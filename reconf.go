// Package reconf is the public API of the reproduction of Hofmeister &
// Purtilo, "Dynamic Reconfiguration in Distributed Systems: Adapting
// Software Modules for Replacement" (ICDCS 1993).
//
// It assembles the subsystems under internal/ into the platform the paper
// describes:
//
//   - a configuration specification (Figure 2) is parsed and materialized
//     as module instances and bindings on a software bus (POLYLITH);
//   - module programs written in the module language (a Go subset, see
//     internal/interp's LANG.md) are automatically prepared for
//     reconfiguration participation (Section 3) when their specification
//     declares reconfiguration points;
//   - prepared modules run as single-threaded, bus-attached instances on
//     logical machines;
//   - the reconfiguration scripts (Figure 5) — Replace, Move, Update,
//     Replicate — operate on the running application, capturing and
//     restoring activation-record stacks mid-call.
//
// Quickstart:
//
//	app, _ := reconf.Load(reconf.Config{
//	    SpecText: specText,
//	    Sources:  map[string]reconf.ModuleSource{"compute": {Files: files}},
//	    Native:   map[string]reconf.NativeModule{"sensor": sensorFn},
//	})
//	app.Start()
//	app.Move("compute", "compute2", "machineB")
package reconf

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bus"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/mh"
	"repro/internal/mil"
	"repro/internal/reconfig"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/telemetry/evlog"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/timeseries"
	"repro/internal/telemetry/trace"
	"repro/internal/transform"
)

// ModuleSource holds the module-language source files of one module.
type ModuleSource struct {
	Files map[string]string
}

// NativeModule is a module implemented directly in Go against the
// participation runtime (used for substrate modules like sensors and
// displays, and by tests). It runs on its own goroutine; returning ends the
// instance.
type NativeModule func(rt *mh.Runtime)

// Config describes an application to load.
type Config struct {
	// SpecText is the configuration specification (Figure 2 dialect).
	SpecText string
	// Application names the application block (default: the sole one).
	Application string
	// Sources maps module names to module-language programs.
	Sources map[string]ModuleSource
	// Native maps module names to Go implementations. A module must have
	// exactly one of a source or a native implementation.
	Native map[string]NativeModule
	// Mode selects capture-set derivation for prepared modules. The
	// default is CaptureSpec when the specification lists state variables
	// and CaptureAll otherwise — exactly the paper's convention.
	Mode transform.CaptureMode
	// SleepUnit compresses module time (default 1ms per mh.Sleep tick).
	SleepUnit time.Duration
	// Timeouts bounds every wait of the reconfiguration layer — state
	// move, restore confirmation, rollback compensations, quiescence.
	// Zero fields take reconfig.DefaultTimeouts (30s each); individual
	// scripts can still override per call via ReplaceOptions.
	Timeouts reconfig.Timeouts
	// TraceSample enables causal-trace recording: every TraceSample-th
	// trace minted by the bus is sampled into the flight recorder (1 = all).
	// 0 (the default) keeps stamping on but records nothing — the zero-
	// allocation steady state.
	TraceSample int
	// TraceBuffer is the flight recorder's capacity in spans (default 4096;
	// meaningful only with TraceSample > 0).
	TraceBuffer int
	// CheckpointInterval is how many communication operations a replicated
	// member performs between abstract-state checkpoints (default 16).
	// Smaller intervals shorten recovery replay at a higher steady-state
	// cost — the tradeoff the paper's Discussion weighs.
	CheckpointInterval int
	// SupervisorPoll is the replica supervisor's detection period
	// (default 50ms).
	SupervisorPoll time.Duration
	// StallAfter is how long a replica's operation counter may sit still
	// with input queued before the supervisor declares it wedged
	// (default 3x SupervisorPoll).
	StallAfter time.Duration
	// RecordBuffer enables the record/replay subsystem: every delivered
	// message is appended to a bounded ring of this capacity (recording
	// starts on; toggle via the record op). 0 leaves recording
	// unconfigured — the zero-cost default.
	RecordBuffer int
	// RecordSpill optionally streams every record to a writer, one
	// length-prefixed frame each (cmd/mhreplay reads the stream back). Meaningful only with
	// RecordBuffer > 0; the writer is not closed by the App.
	RecordSpill io.Writer
	// PreflightReplay arms the replay gate on every replacement: once the
	// candidate is registered and before the old instance is signalled,
	// the old instance's recorded input window is replayed against both
	// the old and the candidate module in-process, and the transaction
	// aborts — the candidate never having served — if their output
	// sequences diverge. Requires RecordBuffer > 0.
	PreflightReplay bool
	// TimeseriesWindow is the windowed-telemetry rollup period (default
	// 1s): the background roller samples every registry atomic once per
	// window, off every message path.
	TimeseriesWindow time.Duration
	// TimeseriesWindows is the rollup ring depth in windows (default 120,
	// i.e. two minutes of 1s history).
	TimeseriesWindows int
	// EventBuffer is the structured event log's ring capacity in events
	// (default 1024).
	EventBuffer int
	// Health parameterizes the per-instance verdict thresholds; zero
	// fields take the burn-rate defaults (see health.Config).
	Health health.Config
}

// Mode aliases, so callers need not import internal packages.
const (
	CaptureAll  = transform.CaptureAll
	CaptureLive = transform.CaptureLive
	CaptureSpec = transform.CaptureSpec
)

// PreparedModule is a module ready to run: either an instrumented (or
// plain) program, or a native implementation.
type PreparedModule struct {
	Name   string
	Spec   *mil.Module
	Prog   *lang.Program
	Info   *lang.Info
	Output *transform.Output // nil for unprepared/native modules
	Native NativeModule
	// Lowered is the program resolved for execution, once, at Load (nil
	// for native modules). Every launch — the original, each clone of a
	// Replace, each healed replica, each replay sandbox — binds a runtime
	// to this one immutable value.
	Lowered *interp.Lowered
}

// Instrumented reports whether the module carries participation code.
func (m *PreparedModule) Instrumented() bool { return m.Output != nil }

type runningInstance struct {
	name string
	rt   *mh.Runtime
	done chan error
}

// App is a loaded (and possibly running) application.
type App struct {
	Spec        *mil.Spec
	Application *mil.Application

	bus      *bus.Bus
	prims    *reconfig.Primitives
	cfg      Config
	recorder *replay.Log
	roller   *timeseries.Roller
	events   *evlog.Log
	checker  *health.Checker

	mu        sync.Mutex
	modules   map[string]*PreparedModule
	instances map[string]*runningInstance
	instMod   map[string]string // instance -> module name

	// sups holds one self-healing supervisor per replicated MIL instance,
	// keyed by group (= MIL instance) name; started in Start, stopped in
	// Stop.
	sups map[string]*reconfig.Supervisor
}

// Load parses and validates the specification, prepares every module that
// declares reconfiguration points, and materializes instances and bindings
// on a fresh bus. Modules are not started until Start (or Launch).
func Load(cfg Config) (*App, error) {
	if cfg.SleepUnit == 0 {
		cfg.SleepUnit = time.Millisecond
	}
	cfg.Timeouts = cfg.Timeouts.WithDefaults()
	spec, err := mil.ParseAndValidate(cfg.SpecText)
	if err != nil {
		return nil, err
	}
	appSpec := spec.Application(cfg.Application)
	if appSpec == nil {
		return nil, fmt.Errorf("reconf: no application %q in specification", cfg.Application)
	}

	msgTracer := trace.NewTracer(0, nil)
	if cfg.TraceSample > 0 {
		msgTracer = trace.NewTracer(cfg.TraceSample, trace.NewRecorder(cfg.TraceBuffer))
	}
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 16
	}
	if cfg.SupervisorPoll <= 0 {
		cfg.SupervisorPoll = 50 * time.Millisecond
	}
	if cfg.PreflightReplay && cfg.RecordBuffer <= 0 {
		return nil, fmt.Errorf("reconf: PreflightReplay requires RecordBuffer > 0")
	}
	var recorder *replay.Log
	if cfg.RecordBuffer > 0 {
		recorder = replay.NewLog(cfg.RecordBuffer)
		if cfg.RecordSpill != nil {
			if err := recorder.SetSpill(cfg.RecordSpill); err != nil {
				return nil, err
			}
		}
		recorder.Enable()
	}
	a := &App{
		Spec:        spec,
		Application: appSpec,
		bus:         bus.New(bus.WithMsgTracer(msgTracer), bus.WithRecorder(recorder)),
		cfg:         cfg,
		recorder:    recorder,
		modules:     map[string]*PreparedModule{},
		instances:   map[string]*runningInstance{},
		instMod:     map[string]string{},
		sups:        map[string]*reconfig.Supervisor{},
	}
	a.prims = reconfig.NewPrimitives(a.bus)

	// Observability layer: windowed rollups over the registry atomics, the
	// structured event log, and the verdict checker reading both. The bus's
	// topology events feed the log through its async observer mailboxes, so
	// no message or edit path blocks on the log.
	a.roller = timeseries.New(a.bus.Telemetry(), timeseries.Config{
		Window:  cfg.TimeseriesWindow,
		Windows: cfg.TimeseriesWindows,
	})
	a.events = evlog.NewLog(cfg.EventBuffer)
	a.checker = health.NewChecker(a.roller, cfg.Health)
	a.bus.Observe(a.bridgeBusEvent)

	for _, m := range spec.Modules {
		pm, err := a.prepareModule(m)
		if err != nil {
			return nil, err
		}
		a.modules[m.Name] = pm
	}

	// Materialize instances and bindings. A `replicas N` instance becomes a
	// replica group carrying the MIL instance's name — bindings that name it
	// fan in to the members, named <name>.1 .. <name>.N — plus a supervisor
	// that heals member crashes (started in Start).
	for _, inst := range appSpec.Instances {
		m := spec.Module(inst.Module)
		machine := inst.Machine
		if machine == "" {
			machine = m.Machine
		}
		if machine == "" {
			machine = "machineA"
		}
		if inst.Replicated() {
			ifaces := InterfacesOf(m)
			if err := a.bus.AddGroup(inst.Name, inst.Policy, ifaces); err != nil {
				return nil, err
			}
			for i := 1; i <= inst.Replicas; i++ {
				member := fmt.Sprintf("%s.%d", inst.Name, i)
				if err := a.bus.AddInstance(bus.InstanceSpec{
					Name:       member,
					Module:     m.Name,
					Machine:    machine,
					Status:     bus.StatusAdd,
					Interfaces: ifaces,
					Attrs:      m.Attrs,
				}); err != nil {
					return nil, err
				}
				if err := a.bus.AddGroupMember(inst.Name, member); err != nil {
					return nil, err
				}
				a.instMod[member] = m.Name
			}
			sup, err := reconfig.NewSupervisor(a.prims, a, reconfig.SupervisorConfig{
				Group:        inst.Name,
				PollInterval: cfg.SupervisorPoll,
				StallAfter:   cfg.StallAfter,
				Timeouts:     cfg.Timeouts,
				Health:       a.checker,
				Events:       a.events,
			})
			if err != nil {
				return nil, err
			}
			a.sups[inst.Name] = sup
			continue
		}
		if err := a.bus.AddInstance(bus.InstanceSpec{
			Name:       inst.Name,
			Module:     m.Name,
			Machine:    machine,
			Status:     bus.StatusAdd,
			Interfaces: InterfacesOf(m),
			Attrs:      m.Attrs,
		}); err != nil {
			return nil, err
		}
		a.instMod[inst.Name] = m.Name
	}
	for _, b := range appSpec.Binds {
		from := bus.Endpoint{Instance: b.From.Instance, Interface: b.From.Interface}
		to := bus.Endpoint{Instance: b.To.Instance, Interface: b.To.Interface}
		if err := a.bus.AddBinding(from, to); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// InterfacesOf derives bus interface specs from a MIL module specification.
func InterfacesOf(m *mil.Module) []bus.IfaceSpec {
	out := make([]bus.IfaceSpec, 0, len(m.Interfaces))
	for _, ifc := range m.Interfaces {
		var dir bus.Direction
		switch ifc.Role {
		case mil.RoleClient, mil.RoleServer:
			dir = bus.InOut
		case mil.RoleDefine:
			dir = bus.Out
		case mil.RoleUse:
			dir = bus.In
		}
		out = append(out, bus.IfaceSpec{Name: ifc.Name, Dir: dir})
	}
	return out
}

func (a *App) prepareModule(m *mil.Module) (*PreparedModule, error) {
	pm := &PreparedModule{Name: m.Name, Spec: m}
	src, hasSrc := a.cfg.Sources[m.Name]
	native, hasNative := a.cfg.Native[m.Name]
	switch {
	case hasSrc && hasNative:
		return nil, fmt.Errorf("reconf: module %s has both source and native implementations", m.Name)
	case hasNative:
		if m.Reconfigurable() {
			return nil, fmt.Errorf("reconf: module %s declares reconfiguration points but is native; only source modules can be prepared automatically", m.Name)
		}
		pm.Native = native
		return pm, nil
	case !hasSrc:
		return nil, fmt.Errorf("reconf: module %s has no implementation", m.Name)
	}

	if !m.Reconfigurable() {
		prog, err := lang.ParseFiles(src.Files)
		if err != nil {
			return nil, fmt.Errorf("reconf: module %s: %w", m.Name, err)
		}
		info, err := lang.Check(prog)
		if err != nil {
			return nil, fmt.Errorf("reconf: module %s: %w", m.Name, err)
		}
		pm.Prog, pm.Info, pm.Lowered = prog, info, interp.Lower(prog, info)
		return pm, nil
	}

	// Prepare for participation. The capture mode defaults to the paper's
	// convention: use the specification's state lists when present.
	opts := transform.Options{Mode: a.cfg.Mode, PointVars: map[string][]string{}}
	anyVars := false
	for _, pt := range m.ReconfigPoints {
		if len(pt.Vars) > 0 {
			opts.PointVars[pt.Label] = pt.Vars
			anyVars = true
		}
	}
	if opts.Mode == 0 {
		if anyVars {
			opts.Mode = transform.CaptureSpec
		} else {
			opts.Mode = transform.CaptureAll
		}
	}
	out, err := transform.Prepare(src.Files, opts)
	if err != nil {
		return nil, fmt.Errorf("reconf: prepare module %s: %w", m.Name, err)
	}
	// Every point declared in the specification must exist in the source
	// (the graph's reconfiguration edges carry the source labels).
	for _, pt := range m.ReconfigPoints {
		found := false
		for _, e := range out.Graph.Edges {
			if e.IsReconfig() && e.Point.Label == pt.Label {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("reconf: module %s: specification declares point %s but the source has no mh.ReconfigPoint(%q)", m.Name, pt.Label, pt.Label)
		}
	}
	pm.Prog, pm.Info, pm.Lowered = out.Prog, out.Info, interp.Lower(out.Prog, out.Info)
	pm.Output = out
	return pm, nil
}

// Module returns the prepared module by name, or nil.
func (a *App) Module(name string) *PreparedModule {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.modules[name]
}

// Bus exposes the underlying software bus.
func (a *App) Bus() *bus.Bus { return a.bus }

// Telemetry exposes the application-wide metrics registry (bus interface
// counters, queue depths, per-module flag-check and state-transfer timings).
func (a *App) Telemetry() *telemetry.Registry { return a.bus.Telemetry() }

// Primitives exposes the reconfiguration layer (and its tracer).
func (a *App) Primitives() *reconfig.Primitives { return a.prims }

// FlightRecorder exposes the causal-trace flight recorder (nil unless the
// application was loaded with Config.TraceSample > 0).
func (a *App) FlightRecorder() *trace.Recorder { return a.bus.MsgTracer().Recorder() }

// Timeseries exposes the windowed-telemetry roller (started with the app).
func (a *App) Timeseries() *timeseries.Roller { return a.roller }

// Events exposes the structured event log.
func (a *App) Events() *evlog.Log { return a.events }

// Health evaluates one instance's verdict. An empty baseline defaults to
// the instance's live replica-group peers, when it has any — the natural
// incumbents for a healed or canaried member.
func (a *App) Health(instance string, baseline []string) health.Verdict {
	if len(baseline) == 0 {
		if sup := a.supervisorFor(instance); sup != nil {
			for _, st := range sup.Status().Members {
				if st.Name != instance {
					baseline = append(baseline, st.Name)
				}
			}
		}
	}
	return a.checker.Check(instance, baseline)
}

// bridgeBusEvent forwards one bus topology event into the structured event
// log. It runs on the bus's per-observer drain goroutine, never on a
// message or edit path.
func (a *App) bridgeBusEvent(e bus.Event) {
	a.events.Append(evlog.Record{
		TimeNs:   e.Time.UnixNano(),
		Source:   "bus",
		Kind:     e.Kind.String(),
		Instance: e.Instance,
		Detail:   e.Detail,
		TraceIDs: e.TraceIDs,
	})
}

// preparedFor resolves the module behind an instance: named by the
// Load-time table for originals and replica members, by the bus for script-
// created clones (asked each time: a name may come back under another module).
func (a *App) preparedFor(instance string) (*PreparedModule, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	modName, ok := a.instMod[instance]
	if !ok {
		info, err := a.bus.Info(instance)
		if err != nil {
			return nil, err
		}
		modName = info.Module
	}
	if pm := a.modules[modName]; pm != nil {
		return pm, nil
	}
	return nil, fmt.Errorf("unknown module %s", modName)
}

// Launch implements reconfig.Launcher: it starts the runtime of a
// registered instance.
func (a *App) Launch(instance string) error {
	pm, err := a.preparedFor(instance)
	if err != nil {
		return fmt.Errorf("reconf: launch %s: %w", instance, err)
	}

	port, err := a.bus.Attach(instance)
	if err != nil {
		return fmt.Errorf("reconf: launch %s: %w", instance, err)
	}
	opts := []mh.Option{
		mh.WithSleepUnit(a.cfg.SleepUnit),
		mh.WithStateTimeout(a.cfg.Timeouts.StateMove),
		mh.WithTelemetry(a.bus.Telemetry()),
	}
	sup := a.supervisorFor(instance)
	if sup != nil {
		opts = append(opts, mh.WithCheckpoint(a.cfg.CheckpointInterval, sup.Checkpoint))
	}
	rt := mh.New(port, opts...)
	if sup != nil {
		sup.RegisterHeartbeat(instance, rt.Ops)
	}
	ri := &runningInstance{name: instance, rt: rt, done: make(chan error, 1)}
	a.mu.Lock()
	a.instances[instance] = ri
	a.mu.Unlock()

	if pm.Native != nil {
		go func() { //archlint:spawn native instance body; reports exit on ri.done
			mh.Run(func() { pm.Native(rt) })
			ri.done <- a.reportExit(sup, instance, a.finishInstance(rt, nil))
		}()
		return nil
	}
	in := pm.Lowered.Bind(rt)
	go func() { //archlint:spawn interpreted instance body; reports exit on ri.done
		_, err := in.Run()
		ri.done <- a.reportExit(sup, instance, a.finishInstance(rt, err))
	}()
	return nil
}

// supervisorFor resolves the supervisor responsible for an instance. Group
// members — the originals from Load and every healed generation — are named
// <group>.<n>, so membership is a name-prefix question.
func (a *App) supervisorFor(instance string) *reconfig.Supervisor {
	a.mu.Lock()
	defer a.mu.Unlock()
	for group, sup := range a.sups {
		if strings.HasPrefix(instance, group+".") {
			return sup
		}
	}
	return nil
}

// reportExit forwards a supervised member's exit to its supervisor. The
// supervisor ignores reports for instances no longer in the group (planned
// deletions, members already marked out), so every exit can be reported.
func (a *App) reportExit(sup *reconfig.Supervisor, instance string, err error) error {
	if sup != nil {
		sup.ReportExit(instance, err)
	}
	return err
}

// finishInstance folds a module body's exit into its instance status and —
// for a clone that died before confirming its restoration (an interpreter
// failure, a panic in module code) — reports the failure to the bus so the
// reconfiguration coordinator aborts promptly instead of timing out.
func (a *App) finishInstance(rt *mh.Runtime, runErr error) error {
	err := instanceErr(rt, runErr)
	ack := err
	if ack == nil {
		ack = rt.Err()
	}
	rt.ConfirmRestoreOutcome(ack)
	return err
}

// instanceErr folds the runtime's recorded error into an instance's exit
// status. Being stopped (deleted from the bus) is a clean exit; a restore
// mismatch or capture failure is not.
func instanceErr(rt *mh.Runtime, runErr error) error {
	if runErr != nil {
		return runErr
	}
	if err := rt.Err(); err != nil && !errors.Is(err, bus.ErrStopped) {
		return err
	}
	return nil
}

// Start launches every instance of the application — the members
// <name>.1 .. <name>.N for a replicated instance — and then arms the
// self-healing supervisors.
func (a *App) Start() error {
	for _, inst := range a.Application.Instances {
		if inst.Replicated() {
			for i := 1; i <= inst.Replicas; i++ {
				if err := a.Launch(fmt.Sprintf("%s.%d", inst.Name, i)); err != nil {
					return err
				}
			}
			continue
		}
		if err := a.Launch(inst.Name); err != nil {
			return err
		}
	}
	for _, sup := range a.sups {
		sup.Start()
	}
	a.roller.Start()
	return nil
}

// Wait blocks until the named instance's runtime exits, returning its
// error (nil for a clean exit or state divulgence).
func (a *App) Wait(instance string, timeout time.Duration) error {
	a.mu.Lock()
	ri := a.instances[instance]
	a.mu.Unlock()
	if ri == nil {
		return fmt.Errorf("reconf: instance %s was never launched", instance)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-ri.done:
		ri.done <- err // keep for later Waits
		return err
	case <-timer.C:
		return fmt.Errorf("reconf: wait for %s: %w", instance, bus.ErrTimeout)
	}
}

// Runtime returns the participation runtime of a launched instance (tests
// and benchmarks use it for flag-check counters).
func (a *App) Runtime(instance string) *mh.Runtime {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ri := a.instances[instance]; ri != nil {
		return ri.rt
	}
	return nil
}

// AttachDriver attaches an external driver to an instance declared in the
// application (for examples and tests that drive an endpoint directly).
// The instance must not have been launched.
func (a *App) AttachDriver(instance string) (bus.Port, error) {
	return a.bus.Attach(instance)
}

// ---- reconfiguration scripts ----

// fillOptions merges the application's configured bounds and replay gate
// into per-call options: fields a caller set win, everything else inherits
// the config.
func (a *App) fillOptions(opts reconfig.ReplaceOptions) reconfig.ReplaceOptions {
	opts.Timeouts = opts.Timeouts.Or(a.cfg.Timeouts)
	if opts.Preflight == nil && a.cfg.PreflightReplay {
		opts.Preflight = a.preflightReplay
	}
	return opts
}

// Move relocates an instance to another machine (the Section 2 scenario).
func (a *App) Move(inst, newName, machine string) error {
	_, err := a.ReplaceTx(inst, reconfig.ReplaceOptions{NewName: newName, Machine: machine})
	return err
}

// ReplaceTx runs the replacement script as a transaction and returns its
// full result: the forward step trace, whether it committed, and — on
// abort — the compensations replayed to restore the old configuration.
func (a *App) ReplaceTx(inst string, opts reconfig.ReplaceOptions) (*reconfig.TxResult, error) {
	opts = a.fillOptions(opts)
	if opts.HealthNote == nil {
		// Candidate vs the instance it replaces: both exist at the
		// health_check span, so the note captures the comparison the
		// operator would otherwise make by hand.
		opts.HealthNote = func(old, new string) string {
			return a.checker.Check(new, []string{old}).Summary()
		}
	}
	res, err := reconfig.ReplaceTx(a.prims, a, inst, opts)
	kind, detail := "replace_committed", inst+" -> "+opts.NewName
	if err != nil {
		kind = "replace_aborted"
		detail += ": " + err.Error()
	}
	rec := evlog.Record{Source: "tx", Kind: kind, Instance: inst, Detail: detail}
	if res != nil {
		rec.Detail = rec.Detail + " tx=" + res.TxID
	}
	a.events.Append(rec)
	return res, err
}

// PlanReplace returns the steps ReplaceTx would perform, without executing
// any of them (the dry-run behind reconfigctl -dry-run).
func (a *App) PlanReplace(inst string, opts reconfig.ReplaceOptions) ([]string, error) {
	return reconfig.PlanReplace(a.prims, inst, a.fillOptions(opts))
}

// Update swaps in a new module implementation, carrying state across.
func (a *App) Update(inst, newName, newModule string) error {
	_, err := a.ReplaceTx(inst, reconfig.ReplaceOptions{NewName: newName, Module: newModule})
	return err
}

// Replicate adds a stateless replica of an instance.
func (a *App) Replicate(inst, replicaName, machine string) error {
	_, err := reconfig.Replicate(a.prims, a, inst, replicaName, machine)
	return err
}

// Remove deletes an instance.
func (a *App) Remove(inst string) error {
	_, err := reconfig.Remove(a.prims, inst)
	return err
}

// Stop halts the supervisors (so planned teardown is not misread as a
// crash wave), deletes every live instance and waits for their runtimes to
// wind down.
func (a *App) Stop() {
	a.roller.Stop()
	for _, sup := range a.sups {
		sup.Stop()
	}
	for _, name := range a.bus.Instances() {
		_ = a.bus.DeleteInstance(name)
	}
	a.mu.Lock()
	instances := make([]*runningInstance, 0, len(a.instances))
	for _, ri := range a.instances {
		instances = append(instances, ri)
	}
	a.mu.Unlock()
	for _, ri := range instances {
		select {
		case err := <-ri.done:
			ri.done <- err
		case <-time.After(5 * time.Second):
		}
	}
	a.bus.Close()
}

// Topology renders the current instances and bindings, the Figure 1 view.
func (a *App) Topology() string {
	var lines []string
	for _, name := range a.bus.Instances() {
		info, err := a.bus.Info(name)
		if err != nil {
			continue
		}
		lines = append(lines, fmt.Sprintf("instance %s (module %s) on %s", name, info.Module, info.Machine))
	}
	binds := a.bus.Bindings()
	bstrs := make([]string, 0, len(binds))
	for _, b := range binds {
		bstrs = append(bstrs, fmt.Sprintf("bind %s <-> %s", b.A, b.B))
	}
	sort.Strings(bstrs)
	lines = append(lines, bstrs...)
	return strings.Join(lines, "\n")
}

// Supervisor returns the self-healing supervisor of a replicated instance
// (the MIL instance name doubles as the group name), or nil.
func (a *App) Supervisor(group string) *reconfig.Supervisor {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sups[group]
}

// ReplicaSets snapshots every supervised replica group — members with
// heartbeat and backlog, corpses awaiting rebuild, supervision counters —
// sorted by group name. Served by the replicas op.
func (a *App) ReplicaSets() []reconfig.ReplicaSetStatus {
	a.mu.Lock()
	sups := make([]*reconfig.Supervisor, 0, len(a.sups))
	for _, sup := range a.sups {
		sups = append(sups, sup)
	}
	a.mu.Unlock()
	out := make([]reconfig.ReplicaSetStatus, 0, len(sups))
	for _, sup := range sups {
		out = append(out, sup.Status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out
}

// Trace returns the reconfiguration audit trail: the completed steps of the
// transactions the tracer retains (the newest 64), oldest first.
func (a *App) Trace() []string {
	steps, _ := a.prims.Tracer().Trail()
	return steps
}

// TraceTx returns the rendered span timeline of one transactional
// reconfiguration, by transaction ID (TxResult.TxID / TxReport.TxID).
func (a *App) TraceTx(txid string) ([]string, error) {
	tr, ok := a.prims.Tracer().Get(txid)
	if !ok {
		known := a.prims.Tracer().IDs()
		return nil, fmt.Errorf("reconf: no trace for %q (retained: %s)", txid, strings.Join(known, ", "))
	}
	return tr.Timeline(), nil
}
