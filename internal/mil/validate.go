package mil

import (
	"fmt"
	"go/scanner"
)

// Validate checks the structural consistency of a specification:
//
//   - module and application names are unique, instances are unique;
//   - every instance refers to a declared module;
//   - every binding endpoint refers to a declared instance and interface;
//   - at least one side of each binding sends and at least one receives;
//   - interface names are unique within a module; reconfiguration point
//     labels are unique within a module; modules have a source.
//
// All problems are reported in one pass: the returned error, when non-nil,
// wraps a scanner.ErrorList carrying a line and column for every finding,
// in source order.
func Validate(spec *Spec) error {
	var errs scanner.ErrorList
	add := func(pos Pos, format string, args ...any) {
		errs.Add(pos.position(), fmt.Sprintf(format, args...))
	}
	modNames := map[string]bool{}
	for _, m := range spec.Modules {
		if modNames[m.Name] {
			add(m.Pos, "duplicate module %s", m.Name)
		}
		modNames[m.Name] = true
		validateModule(m, add)
	}
	appNames := map[string]bool{}
	for _, a := range spec.Applications {
		if appNames[a.Name] || modNames[a.Name] {
			add(a.Pos, "duplicate application %s", a.Name)
		}
		appNames[a.Name] = true
		validateApplication(spec, a, add)
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("mil: %w", errs)
}

func validateModule(m *Module, add func(Pos, string, ...any)) {
	if m.Source == "" {
		add(m.Pos, "module %s has no source attribute", m.Name)
	}
	ifaceNames := map[string]bool{}
	for _, ifc := range m.Interfaces {
		if ifaceNames[ifc.Name] {
			add(ifc.Pos, "module %s: duplicate interface %s", m.Name, ifc.Name)
		}
		ifaceNames[ifc.Name] = true
		if ifc.Role == RoleServer && len(ifc.Returns) == 0 {
			add(ifc.Pos, "module %s: server interface %s declares no returns", m.Name, ifc.Name)
		}
		if ifc.Role == RoleClient && len(ifc.Accepts) == 0 {
			add(ifc.Pos, "module %s: client interface %s declares no accepts", m.Name, ifc.Name)
		}
	}
	labels := map[string]bool{}
	for _, pt := range m.ReconfigPoints {
		if labels[pt.Label] {
			add(pt.Pos, "module %s: duplicate reconfiguration point %s", m.Name, pt.Label)
		}
		labels[pt.Label] = true
		seen := map[string]bool{}
		for _, v := range pt.Vars {
			if seen[v] {
				add(pt.Pos, "module %s point %s: duplicate state variable %s", m.Name, pt.Label, v)
			}
			seen[v] = true
		}
	}
}

func validateApplication(spec *Spec, a *Application, add func(Pos, string, ...any)) {
	if len(a.Instances) == 0 {
		add(a.Pos, "application %s has no instances", a.Name)
	}
	instByName := map[string]*Instance{}
	for _, in := range a.Instances {
		if _, dup := instByName[in.Name]; dup {
			add(in.Pos, "application %s: duplicate instance %s", a.Name, in.Name)
			continue
		}
		if spec.Module(in.Module) == nil {
			add(in.Pos, "application %s instance %s uses unknown module %s",
				a.Name, in.Name, in.Module)
		}
		// Record the instance even when its module is unknown so its
		// bindings don't cascade into spurious unknown-instance errors.
		instByName[in.Name] = in
		if in.Replicas < 0 {
			add(in.Pos, "application %s instance %s: replicas %d < 0",
				a.Name, in.Name, in.Replicas)
		}
		switch in.Policy {
		case "", PolicyRoundRobin, PolicyLeastQueue:
		default:
			add(in.Pos, "application %s instance %s: unknown policy %q (want %s or %s)",
				a.Name, in.Name, in.Policy, PolicyRoundRobin, PolicyLeastQueue)
		}
		if in.Policy != "" && !in.Replicated() {
			add(in.Pos, "application %s instance %s: policy %q without replicas >= 2",
				a.Name, in.Name, in.Policy)
		}
	}
	for _, b := range a.Binds {
		fromIfc := resolveEndpoint(spec, a, instByName, b.From, b.Pos, add)
		toIfc := resolveEndpoint(spec, a, instByName, b.To, b.Pos, add)
		if fromIfc == nil || toIfc == nil {
			continue
		}
		if !fromIfc.Role.Sends() && !toIfc.Role.Sends() {
			add(b.Pos, "binding direction mismatch: neither %s (%s) nor %s (%s) can send",
				b.From, fromIfc.Role, b.To, toIfc.Role)
		}
		if !fromIfc.Role.Receives() && !toIfc.Role.Receives() {
			add(b.Pos, "binding direction mismatch: neither %s (%s) nor %s (%s) can receive",
				b.From, fromIfc.Role, b.To, toIfc.Role)
		}
	}
}

// resolveEndpoint returns the interface an endpoint names, or nil after
// reporting why it cannot be resolved. An instance whose module is unknown
// resolves to nil silently — the instance declaration already carries the
// error.
func resolveEndpoint(spec *Spec, a *Application, insts map[string]*Instance, e Endpoint, pos Pos, add func(Pos, string, ...any)) *Interface {
	in, ok := insts[e.Instance]
	if !ok {
		add(pos, "application %s binds %q: unknown instance %s", a.Name, e, e.Instance)
		return nil
	}
	mod := spec.Module(in.Module)
	if mod == nil {
		return nil
	}
	ifc := mod.Interface(e.Interface)
	if ifc == nil {
		add(pos, "unknown interface: module %s (instance %s) has no interface %s",
			mod.Name, e.Instance, e.Interface)
		return nil
	}
	return ifc
}
