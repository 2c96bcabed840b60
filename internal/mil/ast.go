package mil

import (
	"fmt"
	"strings"
)

// Role classifies an interface, following the four POLYLITH roles used in
// Figure 2 of the paper.
type Role int

// Interface roles. A client sends requests and accepts replies; a server
// receives requests and returns replies; define is an outgoing (producing)
// interface; use is an incoming (consuming) interface.
const (
	RoleClient Role = iota + 1
	RoleServer
	RoleDefine
	RoleUse
)

var roleNames = map[Role]string{
	RoleClient: "client",
	RoleServer: "server",
	RoleDefine: "define",
	RoleUse:    "use",
}

// String returns the keyword for the role.
func (r Role) String() string {
	if s, ok := roleNames[r]; ok {
		return s
	}
	return fmt.Sprintf("role(%d)", int(r))
}

// Sends reports whether the role emits messages on the interface.
func (r Role) Sends() bool { return r == RoleClient || r == RoleServer || r == RoleDefine }

// Receives reports whether the role consumes messages from the interface.
func (r Role) Receives() bool { return r == RoleClient || r == RoleServer || r == RoleUse }

// TypeRef is one element of a pattern/accepts/returns type set. Dir carries
// the paper's direction sigil ('^' or '-') when present, 0 otherwise.
type TypeRef struct {
	Dir  rune
	Name string
}

// String renders the type ref in source form.
func (t TypeRef) String() string {
	if t.Dir != 0 {
		return string(t.Dir) + t.Name
	}
	return t.Name
}

// Interface describes one named communication port of a module.
type Interface struct {
	Pos     Pos
	Name    string
	Role    Role
	Pattern []TypeRef
	Accepts []TypeRef
	Returns []TypeRef
}

// ReconfigPoint is a programmer-designated safe point, optionally annotated
// with the variables comprising the process state there (Figure 2: "list the
// variables comprising the process state at that reconfiguration point").
// An empty Vars list means "derive automatically" (liveness analysis or
// all-locals fallback).
type ReconfigPoint struct {
	Pos   Pos
	Label string
	Vars  []string
}

// Module is one module specification.
type Module struct {
	Pos            Pos
	Name           string
	Source         string // executable / source location
	Machine        string // default placement
	Interfaces     []*Interface
	ReconfigPoints []ReconfigPoint
	Attrs          map[string]string // any other key = value attributes
}

// Interface returns the named interface, or nil.
func (m *Module) Interface(name string) *Interface {
	for _, ifc := range m.Interfaces {
		if ifc.Name == name {
			return ifc
		}
	}
	return nil
}

// Point returns the reconfiguration point with the given label, or nil.
func (m *Module) Point(label string) *ReconfigPoint {
	for i := range m.ReconfigPoints {
		if m.ReconfigPoints[i].Label == label {
			return &m.ReconfigPoints[i]
		}
	}
	return nil
}

// PointVars returns the state variable lists the module's reconfiguration
// points declare (Figure 2's "state R = {num, n, rp}"), keyed by point
// label; a point that declares none is absent.
func (m *Module) PointVars() map[string][]string {
	out := map[string][]string{}
	for _, pt := range m.ReconfigPoints {
		if len(pt.Vars) > 0 {
			out[pt.Label] = pt.Vars
		}
	}
	return out
}

// Reconfigurable reports whether the module declares reconfiguration points.
func (m *Module) Reconfigurable() bool { return len(m.ReconfigPoints) > 0 }

// Load-balancing policies a replicated instance may declare. The bus picks
// a live replica per message: round-robin rotates; least-queue routes to
// the member with the shallowest receive queue.
const (
	PolicyRoundRobin = "roundrobin"
	PolicyLeastQueue = "leastqueue"
)

// Instance places a module in an application. Name defaults to the module
// name ("instance compute"); "instance compute as c2 on \"machineB\"" names
// it and pins a machine. "replicas 3" turns the instance into a replica
// group: bindings to its name fan in to a group endpoint load-balanced
// across the replicas ("policy leastqueue" selects the strategy; default
// round-robin). Replicas 0 and 1 both mean an ordinary single instance.
type Instance struct {
	Pos      Pos
	Name     string
	Module   string
	Machine  string
	Replicas int
	Policy   string
}

// Replicated reports whether the instance declares a replica group.
func (in *Instance) Replicated() bool { return in.Replicas > 1 }

// Endpoint names one side of a binding as "instance interface".
type Endpoint struct {
	Instance  string
	Interface string
}

// String renders the endpoint in binding syntax.
func (e Endpoint) String() string { return e.Instance + " " + e.Interface }

// parseEndpoint splits a binding endpoint string of the form
// "instance interface".
func parseEndpoint(t token) (Endpoint, error) {
	fields := strings.Fields(t.text)
	if len(fields) != 2 {
		return Endpoint{}, errAt(t.pos, "endpoint %q must be \"instance interface\"", t.text)
	}
	return Endpoint{Instance: fields[0], Interface: fields[1]}, nil
}

// Bind connects two endpoints. Messages sent on From are delivered to To;
// for client/server pairs the bus routes replies back along the same
// binding.
type Bind struct {
	Pos  Pos
	From Endpoint
	To   Endpoint
}

// Application is the application specification: module instances and the
// bindings between their interfaces.
type Application struct {
	Pos       Pos
	Name      string
	Instances []*Instance
	Binds     []*Bind
}

// Instance returns the named instance, or nil.
func (a *Application) Instance(name string) *Instance {
	for _, in := range a.Instances {
		if in.Name == name {
			return in
		}
	}
	return nil
}

// Spec is a parsed configuration specification: the module specifications
// plus the application specifications that use them.
type Spec struct {
	Modules      []*Module
	Applications []*Application
}

// Module returns the named module specification, or nil.
func (s *Spec) Module(name string) *Module {
	for _, m := range s.Modules {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Application returns the named application, or nil. With the empty name it
// returns the sole application if exactly one exists.
func (s *Spec) Application(name string) *Application {
	if name == "" {
		if len(s.Applications) == 1 {
			return s.Applications[0]
		}
		return nil
	}
	for _, a := range s.Applications {
		if a.Name == name {
			return a
		}
	}
	return nil
}
