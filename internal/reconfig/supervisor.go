package reconfig

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry/evlog"
	"repro/internal/telemetry/health"
)

// Supervisor watches one replica group and heals member crashes without
// operator intervention. It composes three existing mechanisms:
//
//   - failure detection — a per-member heartbeat (the mh runtime's operation
//     counter) plus queue-depth stall detection: a member whose counter has
//     not advanced for StallAfter *while input is queued at it* is wedged;
//     a member whose host reports its goroutine exited is crashed;
//   - immediate mark-out — the dead member leaves the routing group
//     (RemoveGroupMember) the moment death is detected, so traffic drains to the
//     survivors within one routing epoch;
//   - transactional rebuild — ReplaceFromCheckpointTx rebuilds the member
//     from its newest periodic checkpoint on the same transaction engine as
//     operator-driven replacement. A failed rebuild rolls back and is
//     retried on a later poll with a fresh generation name; a rebuild
//     refused with ErrReconfigBusy (an operator reconfiguration is in
//     flight) is likewise retried — never overlapped.
//
// Replacement members are named <group>.<generation> with a monotonically
// increasing generation, so a flapping member can be rebuilt repeatedly
// without name collisions.
type Supervisor struct {
	p        *Primitives
	launcher Launcher
	cfg      SupervisorConfig

	mu         sync.Mutex
	probes     map[string]*replicaProbe
	ckpts      map[string][]byte    // newest checkpoint per member
	newest     []byte               // newest checkpoint from any member
	pending    map[string]time.Time // dead members awaiting rebuild -> detection time
	lastHealth map[string]health.Level
	gen        int
	stats      SupervisorStats

	clk    clock.Clock // the bus's: polls, stall windows, recovery times
	pollMu sync.Mutex  // serializes poll (detection + blocking rebuild)
	stop   chan struct{}
	done   chan struct{}
}

// SupervisorConfig parameterizes a Supervisor.
type SupervisorConfig struct {
	// Group is the replica group to supervise (required).
	Group string
	// PollInterval is the detector's period under Start (default 50ms).
	PollInterval time.Duration
	// StallAfter is how long a member's operation counter may sit still
	// with input queued before it is declared wedged (default 3x
	// PollInterval).
	StallAfter time.Duration
	// Timeouts bounds the rebuild transaction's waits.
	Timeouts Timeouts
	// Health, when set, arms the verdict-based detector: a member whose
	// windowed verdict (against its live peers as baseline) is Critical is
	// marked out and rebuilt exactly like a crash — the second failure
	// signal for modules that degrade without dying.
	Health *health.Checker
}

// SupervisorStats counts supervision activity.
type SupervisorStats struct {
	// Polls is the number of detection passes.
	Polls int64
	// Detected counts members declared dead (crash reports and stalls).
	Detected int64
	// Recovered counts committed rebuilds.
	Recovered int64
	// RetriesBusy counts rebuilds refused by an in-flight reconfiguration
	// (ErrReconfigBusy) and left pending for the next poll.
	RetriesBusy int64
	// Failed counts rebuild transactions that rolled back.
	Failed int64
	// HealthDetected counts members marked out on a Critical health
	// verdict (a subset of Detected).
	HealthDetected int64
	// LastError is the most recent rebuild failure, "" when none.
	LastError string
}

// replicaProbe is the failure detector's per-member view. stalledSince is
// when the member was first observed with a still counter AND queued input;
// it resets on any progress or an empty queue, so a member is declared dead
// only when the condition *persists* for StallAfter — a survivor that just
// inherited a dead peer's backlog is not misread as stalled.
type replicaProbe struct {
	ops          func() int64
	lastOps      int64
	stalledSince time.Time
}

// NewSupervisor builds a supervisor over an existing replica group.
func NewSupervisor(p *Primitives, launcher Launcher, cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Group == "" {
		return nil, errors.New("reconfig: supervisor: group required")
	}
	if _, err := p.bus.GroupMembers(cfg.Group); err != nil {
		return nil, fmt.Errorf("reconfig: supervisor: %w", err)
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 50 * time.Millisecond
	}
	if cfg.StallAfter <= 0 {
		cfg.StallAfter = 3 * cfg.PollInterval
	}
	s := &Supervisor{
		p:          p,
		launcher:   launcher,
		cfg:        cfg,
		clk:        p.bus.Clock(),
		probes:     map[string]*replicaProbe{},
		ckpts:      map[string][]byte{},
		pending:    map[string]time.Time{},
		lastHealth: map[string]health.Level{},
	}
	// Replica health gauges, evaluated at scrape time (no poll-path cost):
	// live member count and corpses awaiting rebuild.
	reg := p.bus.Telemetry()
	reg.GaugeFunc("selfheal."+cfg.Group+".members", func() int64 {
		members, err := p.bus.GroupMembers(cfg.Group)
		if err != nil {
			return 0
		}
		return int64(len(members))
	})
	reg.GaugeFunc("selfheal."+cfg.Group+".pending", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.pending))
	})
	return s, nil
}

// Checkpoint stores a member's newest encoded checkpoint. Its signature
// matches mh.CheckpointSink, so a host passes sup.Checkpoint directly to
// mh.WithCheckpoint; it stores and returns without blocking the module.
func (s *Supervisor) Checkpoint(instance string, encoded []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ckpts[instance] = encoded
	s.newest = encoded
}

// RegisterHeartbeat arms stall detection for a member: ops must be readable
// from the supervisor's goroutine (the mh runtime's Ops method is).
func (s *Supervisor) RegisterHeartbeat(member string, ops func() int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.probes[member] = &replicaProbe{ops: ops}
}

// ReportExit reports that a member's module goroutine exited. Hosts call it
// when a replica crashes; the member is marked out of the group immediately
// and rebuilt on the next poll.
func (s *Supervisor) ReportExit(member string, cause error) {
	s.mu.Lock()
	dead := s.markDeadLocked(member)
	s.mu.Unlock()
	if dead {
		detail := "exit"
		if cause != nil {
			detail = cause.Error()
		}
		s.event("detect_exit", member, detail)
	}
}

// event appends one supervision record (detection, health transition,
// recovery outcome) to the bus's event log.
func (s *Supervisor) event(kind, inst, detail string) {
	s.p.bus.Events().Append(evlog.Record{
		Source:   "supervisor",
		Kind:     kind,
		Instance: inst,
		Detail:   detail,
	})
}

// eventVerdict records a health-level transition with the full verdict —
// evidence windows included — as the event detail, so the log shows *why*
// the supervisor acted, not just that it did.
func (s *Supervisor) eventVerdict(inst string, v health.Verdict) {
	detail, err := json.Marshal(v)
	if err != nil {
		detail = []byte(v.Summary())
	}
	s.event("health_"+v.Level.String(), inst, string(detail))
}

// markDeadLocked marks a member out of the group (idempotently) and queues
// its rebuild. Returns false if the member was already being handled.
func (s *Supervisor) markDeadLocked(member string) bool {
	if _, handling := s.pending[member]; handling {
		return false
	}
	// Refused for an instance that is not (or no longer) a member: planned
	// deletions and members already marked out report their exits too.
	if err := s.p.bus.RemoveGroupMember(s.cfg.Group, member); err != nil {
		return false
	}
	delete(s.probes, member)
	delete(s.lastHealth, member)
	s.pending[member] = s.clk.Now()
	s.stats.Detected++
	return true
}

// healthPassLocked evaluates every live member's verdict against its peers
// and returns the members judged Critical. Level transitions (in either
// direction) are recorded in the event log with their evidence windows.
func (s *Supervisor) healthPassLocked(names []string) []string {
	if s.cfg.Health == nil {
		return nil
	}
	var critical []string
	for _, name := range names {
		if _, dead := s.pending[name]; dead {
			continue
		}
		peers := make([]string, 0, len(names)-1)
		for _, p := range names {
			if p != name {
				if _, dead := s.pending[p]; !dead {
					peers = append(peers, p)
				}
			}
		}
		v := s.cfg.Health.Check(name, peers)
		if prev := s.lastHealth[name]; v.Level != prev {
			s.lastHealth[name] = v.Level
			s.eventVerdict(name, v)
		}
		if v.Level == health.Critical {
			critical = append(critical, name)
		}
	}
	return critical
}

// poll runs one detection-and-rebuild pass: stalled members are marked out,
// then every pending corpse gets one rebuild attempt. Start's loop calls it
// once a poll interval.
func (s *Supervisor) poll() {
	s.pollMu.Lock()
	defer s.pollMu.Unlock()

	now := s.clk.Now()
	s.mu.Lock()
	s.stats.Polls++
	// Probe in sorted order: map iteration order would otherwise make the
	// detection order (and the audit log) differ between identical runs
	// when several members stall in one poll.
	names := make([]string, 0, len(s.probes))
	for name := range s.probes {
		names = append(names, name)
	}
	sort.Strings(names)
	var stalled []string
	for _, name := range names {
		pr := s.probes[name]
		cur := pr.ops()
		queued := 0
		info, err := s.p.bus.Info(name)
		if err == nil {
			for _, n := range info.Pending {
				queued += n
			}
		}
		// A still counter is only suspicious while the member has work it
		// is failing to consume (or its instance vanished entirely).
		if cur != pr.lastOps || (err == nil && queued == 0) {
			pr.lastOps = cur
			pr.stalledSince = time.Time{}
			continue
		}
		if pr.stalledSince.IsZero() {
			pr.stalledSince = now
			continue
		}
		if now.Sub(pr.stalledSince) >= s.cfg.StallAfter {
			stalled = append(stalled, name)
		}
	}
	for _, name := range stalled {
		if s.markDeadLocked(name) {
			s.event("detect_stall", name, "")
		}
	}
	// Second signal: members that are alive and consuming but behaving
	// badly — sustained error burn or latency blowout against their peers.
	for _, name := range s.healthPassLocked(names) {
		if s.markDeadLocked(name) {
			s.stats.HealthDetected++
		}
	}
	corpses := make([]string, 0, len(s.pending))
	for name := range s.pending {
		corpses = append(corpses, name)
	}
	sort.Strings(corpses)
	s.mu.Unlock()

	for _, dead := range corpses {
		s.rebuild(dead)
	}
}

// rebuild runs one ReplaceFromCheckpointTx attempt for a dead member. The
// member stays pending on any failure — including ErrReconfigBusy, which
// guarantees the supervisor never overlaps an in-flight reconfiguration —
// and is retried on the next poll with a fresh generation name.
func (s *Supervisor) rebuild(dead string) {
	s.mu.Lock()
	detected := s.pending[dead]
	ckpt := s.ckpts[dead]
	if ckpt == nil {
		ckpt = s.newest
	}
	if ckpt == nil {
		s.stats.LastError = fmt.Sprintf("selfheal %s: no checkpoint from any member yet", dead)
		s.mu.Unlock()
		return
	}
	newName := s.nextNameLocked()
	s.mu.Unlock()

	_, err := ReplaceFromCheckpointTx(s.p, s.launcher, s.cfg.Group, dead, newName, ckpt, s.cfg.Timeouts)

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		delete(s.pending, dead)
		s.ckpts[newName] = ckpt
		delete(s.ckpts, dead)
		s.stats.Recovered++
		s.stats.LastError = ""
		s.p.bus.Telemetry().Histogram("selfheal.recovery_ns").Observe(s.clk.Now().Sub(detected))
		s.event("recovered", dead, "rebuilt as "+newName)
	case errors.Is(err, ErrReconfigBusy):
		s.stats.RetriesBusy++
	default:
		s.stats.Failed++
		s.stats.LastError = err.Error()
		s.event("rebuild_failed", dead, err.Error())
	}
}

// nextNameLocked allocates the next free <group>.<generation> name.
func (s *Supervisor) nextNameLocked() string {
	for {
		s.gen++
		name := fmt.Sprintf("%s.%d", s.cfg.Group, s.gen)
		if _, err := s.p.bus.Info(name); err != nil {
			return name
		}
	}
}

// Start launches the periodic detector. Stop halts it.
func (s *Supervisor) Start() {
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop() //archlint:spawn supervisor poll loop; exits when Stop closes the stop channel
}

// loop polls once an interval. It arms one timer per interval rather than
// a ticker, so under a virtual clock the loop is back waiting (a waiter
// BlockUntil counts) exactly when the previous poll is done.
func (s *Supervisor) loop() {
	defer close(s.done)
	for {
		t := s.clk.NewTimer(s.cfg.PollInterval)
		select {
		case <-s.stop:
			t.Stop()
			return
		case <-t.C:
			s.poll()
		}
	}
}

// Stop halts the periodic detector and waits for the loop to exit. A no-op
// if Start was never called.
func (s *Supervisor) Stop() {
	if s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop = nil
}

// Stats returns a copy of the supervision counters.
func (s *Supervisor) Stats() SupervisorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ReplicaStatus is one member's health snapshot.
type ReplicaStatus struct {
	Name string `json:"name"`
	// Ops is the heartbeat counter (0 when no heartbeat is registered).
	Ops int64 `json:"ops"`
	// Queued is the member's total pending input.
	Queued int `json:"queued"`
	// CheckpointBytes is the size of the member's newest checkpoint.
	CheckpointBytes int `json:"checkpoint_bytes"`
}

// ReplicaSetStatus is the supervisor's external view, served by /replicas.
type ReplicaSetStatus struct {
	Group   string          `json:"group"`
	Policy  string          `json:"policy"`
	Members []ReplicaStatus `json:"members"`
	// Pending lists dead members whose rebuild has not yet committed.
	Pending []string        `json:"pending,omitempty"`
	Stats   SupervisorStats `json:"stats"`
}

// Status snapshots the supervised group: live members with their heartbeat
// and backlog, corpses awaiting rebuild, and the counters.
func (s *Supervisor) Status() ReplicaSetStatus {
	out := ReplicaSetStatus{Group: s.cfg.Group}
	for _, g := range s.p.bus.Routing().Groups() {
		if g.Name == s.cfg.Group {
			out.Policy = g.Policy
			for _, m := range g.Members {
				st := ReplicaStatus{Name: m}
				if info, err := s.p.bus.Info(m); err == nil {
					for _, n := range info.Pending {
						st.Queued += n
					}
				}
				s.mu.Lock()
				if pr, ok := s.probes[m]; ok {
					st.Ops = pr.ops()
				}
				st.CheckpointBytes = len(s.ckpts[m])
				s.mu.Unlock()
				out.Members = append(out.Members, st)
			}
		}
	}
	s.mu.Lock()
	for name := range s.pending {
		out.Pending = append(out.Pending, name)
	}
	sort.Strings(out.Pending)
	out.Stats = s.stats
	s.mu.Unlock()
	return out
}
