package reconfig

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/evlog"
	"repro/internal/telemetry/health"
)

// Supervisor watches one replica group and heals member failures without
// operator intervention. It composes three existing mechanisms:
//
//   - failure detection on exactly two inputs — a member whose host reports
//     its goroutine exited is crashed (ReportExit); a member whose windowed
//     health verdict against its live peers is Critical (error burn,
//     latency blowout, or a stall: input queued and none consumed for
//     health.ShortSpan roller windows while the peers are delivered to) is
//     marked out like a crash;
//   - immediate mark-out — the dead member leaves the routing group
//     (RemoveGroupMember) the moment death is detected, so traffic drains to the
//     survivors within one routing epoch;
//   - transactional rebuild — ReplaceFromCheckpointTx rebuilds the member
//     from its newest periodic checkpoint on the same transaction engine as
//     operator-driven replacement. A failed rebuild rolls back and is
//     retried at the next wake with a fresh generation name; a rebuild
//     refused with ErrReconfigBusy (an operator reconfiguration is in
//     flight) is likewise retried — never overlapped.
//
// It keeps no timer: an exit report wakes its loop at once, and each roll of
// its checker's roller wakes it to judge the verdicts (which read only
// closed windows) and to retry any pending rebuild.
//
// Replacement members are named <group>.<generation> with a monotonically
// increasing generation, so a flapping member can be rebuilt repeatedly
// without name collisions.
type Supervisor struct {
	p        *Primitives
	launcher Launcher
	cfg      SupervisorConfig

	mu         sync.Mutex
	ckpts      map[string][]byte    // newest checkpoint per member
	newest     []byte               // newest checkpoint from any member
	pending    map[string]time.Time // dead members awaiting rebuild -> detection time
	lastHealth map[string]health.Level
	gen        int
	stats      SupervisorStats

	kick chan struct{} // buffer 1: an exit report wakes the loop
	stop chan struct{}
	done chan struct{}
}

// SupervisorConfig parameterizes a Supervisor.
type SupervisorConfig struct {
	// Group is the replica group to supervise (required).
	Group string
	// Timeouts bounds the rebuild transaction's waits.
	Timeouts Timeouts
	// Health is the verdict-based detector (required): a member whose
	// windowed verdict (against its live peers as baseline) is Critical is
	// marked out and rebuilt exactly like a crash — the signal for members
	// that wedge or degrade without dying. Its roller's rolls wake the
	// supervisor's loop.
	Health *health.Checker
}

// SupervisorStats counts supervision activity.
type SupervisorStats struct {
	// Passes is the number of detection-and-rebuild passes: one per wake
	// (exit report or window roll).
	Passes int64
	// Detected counts members declared dead (crash reports and Critical
	// verdicts).
	Detected int64
	// Recovered counts committed rebuilds.
	Recovered int64
	// RetriesBusy counts rebuilds refused by an in-flight reconfiguration
	// (ErrReconfigBusy) and left pending for the next wake.
	RetriesBusy int64
	// Failed counts rebuild transactions that rolled back.
	Failed int64
	// HealthDetected counts members marked out on a Critical health
	// verdict, stalls included (a subset of Detected).
	HealthDetected int64
	// LastError is the most recent rebuild failure, "" when none.
	LastError string
}

// NewSupervisor builds a supervisor over an existing replica group.
func NewSupervisor(p *Primitives, launcher Launcher, cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Group == "" {
		return nil, errors.New("reconfig: supervisor: group required")
	}
	if cfg.Health == nil {
		return nil, errors.New("reconfig: supervisor: health checker required")
	}
	if _, err := p.bus.GroupMembers(cfg.Group); err != nil {
		return nil, fmt.Errorf("reconfig: supervisor: %w", err)
	}
	s := &Supervisor{
		p:          p,
		launcher:   launcher,
		cfg:        cfg,
		kick:       make(chan struct{}, 1),
		ckpts:      map[string][]byte{},
		pending:    map[string]time.Time{},
		lastHealth: map[string]health.Level{},
	}
	// Replica health gauges, evaluated at scrape time (nothing per pass):
	// live member count and corpses awaiting rebuild.
	reg := p.bus.Telemetry()
	group := func(family string) telemetry.Labels { return telemetry.Labels{Family: family, Group: cfg.Group} }
	reg.GaugeFunc("selfheal."+cfg.Group+".members", group("selfheal_members"), func() int64 {
		members, err := p.bus.GroupMembers(cfg.Group)
		if err != nil {
			return 0
		}
		return int64(len(members))
	})
	reg.GaugeFunc("selfheal."+cfg.Group+".pending", group("selfheal_pending"), func() int64 {
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

// ReportExit reports that a member's module goroutine exited. Hosts call it
// when a replica crashes; the member is marked out of the group immediately
// and the loop is woken to rebuild it (once started, if it is not yet).
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
		select {
		case s.kick <- struct{}{}:
		default: // a wake is already queued; its pass sees this corpse too
		}
	}
}

// event appends one supervision record (detection, health transition,
// recovery outcome) to the bus's event log.
func (s *Supervisor) event(kind, inst, detail string) {
	s.p.events.Append(evlog.Record{
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
	delete(s.lastHealth, member)
	s.pending[member] = s.p.bus.Clock().Now()
	s.stats.Detected++
	return true
}

// healthPassLocked judges every live member against its peers and marks
// out each one judged Critical, writing the verdict — evidence windows
// included — as its health_critical record. Other level transitions (in
// either direction) are recorded the same way.
func (s *Supervisor) healthPassLocked(members []string) {
	for _, name := range members {
		peers := make([]string, 0, len(members)-1)
		for _, p := range members {
			if p != name {
				peers = append(peers, p)
			}
		}
		v := s.cfg.Health.Check(name, peers)
		if v.Level == health.Critical && s.markDeadLocked(name) {
			s.stats.HealthDetected++
			s.eventVerdict(name, v)
			continue
		}
		if prev := s.lastHealth[name]; v.Level != prev {
			s.lastHealth[name] = v.Level
			s.eventVerdict(name, v)
		}
	}
}

// pass runs one detection-and-rebuild pass: members judged Critical are
// marked out, then every pending corpse gets one rebuild attempt. Start's
// loop runs it once per wake, and only that goroutine runs it.
func (s *Supervisor) pass() {
	// A group that is gone has no members to judge; its corpses still get
	// their rebuild attempts (which then fail and say why).
	members, _ := s.p.bus.GroupMembers(s.cfg.Group)
	s.mu.Lock()
	s.stats.Passes++
	s.healthPassLocked(members)
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
// and is retried at the next wake with a fresh generation name.
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
		s.p.bus.Telemetry().Histogram("selfheal.recovery_ns", telemetry.Labels{}).Observe(s.p.bus.Clock().Now().Sub(detected))
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

// Start launches the supervisor's loop. Stop halts it.
func (s *Supervisor) Start() {
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop(s.cfg.Health.Next()) //archlint:spawn supervisor loop; exits when Stop closes the stop channel
}

// loop runs one pass per wake: an exit report's kick or a window roll. It
// takes the next roll's channel before each pass (the first in Start), so a
// roll that lands during a pass, or before the loop runs, wakes it again.
func (s *Supervisor) loop(rolled <-chan struct{}) {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
		case <-rolled:
		}
		rolled = s.cfg.Health.Next()
		s.pass()
	}
}

// Stop halts the supervisor's loop and waits for it to exit. A no-op if
// Start was never called.
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
	// Level is the member's last health verdict (healthy until judged).
	Level health.Level `json:"level"`
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

// Status snapshots the supervised group: live members with their last
// verdict and backlog, corpses awaiting rebuild, and the counters.
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
				st.Level = s.lastHealth[m]
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
