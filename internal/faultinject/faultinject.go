// Package faultinject is a deterministic fault-injection facility for the
// reconfiguration substrate. Control-plane operations in internal/bus and
// internal/reconfig consult a Set of named failpoints before acting; a test
// (or an operator, via the FAULTPOINTS environment variable) arms a site
// with an action — inject an error, drop the operation, or delay it — and
// the operation misbehaves exactly there, exactly as many times as asked.
//
// Determinism is the point: the transaction tests kill a Replace at every
// site and assert the rollback converges, so a failpoint must fire on
// demand, not probabilistically.
//
// Sites are plain strings. The sites wired into the runtime are listed in
// Sites; firing an unknown site is not an error (it simply never triggers),
// and Enable stays permissive so tests can arm ad-hoc sites. Parse, the
// operator-facing entry point behind FAULTPOINTS, is strict: a site that is
// neither in Sites nor under a registered prefix in SitePrefixes is rejected,
// so a typo fails fast instead of silently never arming.
package faultinject

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Action selects what an armed failpoint does.
type Action int

// Failpoint actions.
const (
	// Error makes the operation fail with the point's error.
	Error Action = iota + 1
	// Drop makes the operation silently not happen: the caller observes
	// success but the effect (a delivered signal, a sent frame) is lost.
	// Sites that cannot meaningfully drop treat Drop as Error.
	Drop
	// Delay stalls the operation for the point's Delay, then lets it
	// proceed.
	Delay
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Error:
		return "error"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Sentinel results of Fire.
var (
	// ErrInjected is wrapped by every injected error, so callers and
	// tests can identify synthetic failures with errors.Is.
	ErrInjected = errors.New("faultinject: injected fault")
	// ErrDropped is returned by Fire for Drop points. Call sites that
	// support dropping treat it as "report success, skip the effect";
	// the rest propagate it like any injected error.
	ErrDropped = fmt.Errorf("%w: dropped", ErrInjected)
)

// Point arms one failpoint.
type Point struct {
	// Action is what happens when the site fires (default Error).
	Action Action
	// Err overrides the injected error (default an ErrInjected wrapper
	// naming the site).
	Err error
	// Delay is the stall duration for Delay points.
	Delay time.Duration
	// Count limits how many times the point fires before disarming
	// itself; 0 means every time.
	Count int
}

// Set is a collection of armed failpoints. The zero value and nil are valid
// empty sets — Fire on them is a cheap no-op — so production paths carry a
// *Set unconditionally. A Set is safe for concurrent use.
type Set struct {
	mu     sync.Mutex
	points map[string]*armed
	fired  map[string]int
}

type armed struct {
	p    Point
	left int // remaining firings; <0 = unlimited
}

// New returns an empty set.
func New() *Set {
	return &Set{points: map[string]*armed{}, fired: map[string]int{}}
}

// Enable arms (or re-arms) a failpoint at site.
func (s *Set) Enable(site string, p Point) {
	if p.Action == 0 {
		p.Action = Error
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.points == nil {
		s.points = map[string]*armed{}
		s.fired = map[string]int{}
	}
	left := -1
	if p.Count > 0 {
		left = p.Count
	}
	s.points[site] = &armed{p: p, left: left}
}

// Disable disarms the failpoint at site.
func (s *Set) Disable(site string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.points, site)
}

// Fired reports how many times the site has fired.
func (s *Set) Fired(site string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired[site]
}

// Fire consults the set at a site. It returns nil when the site is unarmed
// (the overwhelmingly common case). For an Error point it returns the
// injected error; for a Drop point it returns ErrDropped; for a Delay point
// it sleeps, then returns nil.
func (s *Set) Fire(site string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if len(s.points) == 0 {
		s.mu.Unlock()
		return nil
	}
	a, ok := s.points[site]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	if a.left == 0 {
		s.mu.Unlock()
		return nil
	}
	if a.left > 0 {
		a.left--
	}
	s.fired[site]++
	p := a.p
	s.mu.Unlock()

	switch p.Action {
	case Delay:
		time.Sleep(p.Delay)
		return nil
	case Drop:
		return ErrDropped
	default:
		if p.Err != nil {
			return fmt.Errorf("%w: %s: %w", ErrInjected, site, p.Err)
		}
		return fmt.Errorf("%w at %s", ErrInjected, site)
	}
}

// Armed lists the currently armed sites, sorted.
func (s *Set) Armed() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.points))
	for site, a := range s.points {
		if a.left != 0 {
			out = append(out, site)
		}
	}
	sort.Strings(out)
	return out
}

// EnvVar is the environment variable Parse and Default read.
const EnvVar = "FAULTPOINTS"

// Parse builds a Set from a specification string:
//
//	site=action[:arg][:xN][,site=action...]
//
// where action is error, drop, or delay (delay takes a Go duration as arg:
// "bus.rebind=delay:50ms"), and xN caps the firing count
// ("bus.signal=drop:x2"). Examples:
//
//	FAULTPOINTS="reconfig.rebind=error:x1"
//	FAULTPOINTS="bus.awaitdivulged=error:x1,tcp.dial=delay:100ms"
//
// Parse rejects site names that are not wired into the runtime — not in
// Sites and not under any SitePrefixes prefix — so a typo in FAULTPOINTS
// fails fast instead of arming a point that can never fire.
func Parse(spec string) (*Set, error) {
	s := New()
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return s, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, rest, ok := strings.Cut(entry, "=")
		if !ok || site == "" {
			return nil, fmt.Errorf("faultinject: malformed entry %q (want site=action)", entry)
		}
		var p Point
		for i, part := range strings.Split(rest, ":") {
			switch {
			case i == 0:
				switch part {
				case "error":
					p.Action = Error
				case "drop":
					p.Action = Drop
				case "delay":
					p.Action = Delay
				default:
					return nil, fmt.Errorf("faultinject: unknown action %q in %q", part, entry)
				}
			case strings.HasPrefix(part, "x"):
				n, err := strconv.Atoi(part[1:])
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("faultinject: bad count %q in %q", part, entry)
				}
				p.Count = n
			default:
				d, err := time.ParseDuration(part)
				if err != nil {
					return nil, fmt.Errorf("faultinject: bad argument %q in %q", part, entry)
				}
				p.Delay = d
			}
		}
		if p.Action == Delay && p.Delay == 0 {
			return nil, fmt.Errorf("faultinject: delay without duration in %q", entry)
		}
		if !KnownSite(site) {
			return nil, fmt.Errorf("faultinject: unknown site %q in %q (known sites: %s; prefixes: %s)",
				site, entry, strings.Join(Sites, ", "), strings.Join(SitePrefixes, ", "))
		}
		s.Enable(site, p)
	}
	return s, nil
}

var (
	defaultOnce sync.Once
	defaultSet  *Set
)

// Default returns the process-wide set parsed once from FAULTPOINTS. A
// malformed specification is reported on stderr and yields an empty set —
// fault injection must never take down a production process on its own.
func Default() *Set {
	defaultOnce.Do(func() {
		s, err := Parse(os.Getenv(EnvVar))
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultinject:", err)
			s = New()
		}
		defaultSet = s
	})
	return defaultSet
}

// KnownSite reports whether site is wired into the runtime: an exact match
// in Sites, or a non-empty suffix under one of SitePrefixes.
func KnownSite(site string) bool {
	for _, s := range Sites {
		if site == s {
			return true
		}
	}
	for _, p := range SitePrefixes {
		if strings.HasPrefix(site, p) && len(site) > len(p) {
			return true
		}
	}
	return false
}

// SitePrefixes lists families of per-instance sites: the runtime fires
// "<prefix><instance>" so a fault can target one replica by name (e.g.
// "replica.crash.worker.2=error:x1" kills that replica's next loop
// iteration). Parse accepts any site under a prefix.
var SitePrefixes = []string{
	"replica.crash.", // a replicated module's crash point, fired at loop top
}

// Sites wired into the runtime, for reference and for the operator docs.
// (The list is informational for Enable; Parse validates against it.)
var Sites = []string{
	"bus.addinstance",    // registering an instance (add_obj)
	"bus.attach",         // claiming an instance's runtime slot / launch
	"bus.signal",         // control-signal delivery (drop = lost signal)
	"bus.divulge",        // a module surrendering captured state
	"bus.awaitdivulged",  // the coordinator's wait for divulged state
	"bus.installstate",   // state installation into a clone
	"bus.rebind",         // the atomic rebinding batch
	"bus.deleteinstance", // instance removal (post-commit)
	"bus.awaitrestored",  // the coordinator's wait for restore confirmation
	"reconfig.launch",    // the launcher starting a clone
	"tcp.dial",           // remote attachment dial
	"tcp.call",           // remote attachment RPC round-trip

	// The transaction engine fires "reconfig.<primitive>" before every step
	// of every script (internal/reconfig's runTx): the primitive is the
	// first word of the step as the trace and the dry run print it, and an
	// armed point kills the script before that primitive's next step.
	"reconfig.obj_cap",
	"reconfig.add_obj",
	"reconfig.bind_cap",
	"reconfig.struct_ifdest",
	"reconfig.struct_ifsources",
	"reconfig.edit_bind",
	"reconfig.preflight",
	"reconfig.signal_reconfig",
	"reconfig.await_divulged",
	"reconfig.install_state",
	"reconfig.rebind",
	"reconfig.chg_obj",
	"reconfig.await_restored",
	"reconfig.drain_queue",
	"reconfig.join_group",
}
