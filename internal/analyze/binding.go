package analyze

import (
	"repro/internal/diag"
	"repro/internal/mil"
	"repro/internal/state"
)

// milKinds maps MIL message-type names to abstract-state kinds. The
// specification language inherits POLYLITH's loose type vocabulary, so
// several spellings fold to one kind.
var milKinds = map[string]state.Kind{
	"integer": state.KindInt,
	"int":     state.KindInt,
	"long":    state.KindInt,
	"float":   state.KindFloat,
	"double":  state.KindFloat,
	"real":    state.KindFloat,
	"boolean": state.KindBool,
	"bool":    state.KindBool,
	"string":  state.KindString,
	"list":    state.KindList,
	"struct":  state.KindStruct,
	"record":  state.KindStruct,
}

// checkBindings type-checks the message signatures across every binding of
// every application (MH011), flagging type names outside the analyzer's
// vocabulary (MH012). Structural problems — unknown instances, interfaces,
// direction mismatches — are MH001 findings from mil.Validate, so this
// pass silently skips endpoints it cannot resolve.
func checkBindings(r *diag.Report, spec *mil.Spec, specFile string) {
	for _, app := range spec.Applications {
		insts := map[string]*mil.Instance{}
		for _, in := range app.Instances {
			if _, dup := insts[in.Name]; !dup {
				insts[in.Name] = in
			}
		}
		for _, b := range app.Binds {
			from := bindingInterface(spec, insts, b.From)
			to := bindingInterface(spec, insts, b.To)
			if from == nil || to == nil {
				continue
			}
			if from.Role.Sends() && to.Role.Receives() {
				compareSignature(r, specFile, b, from, to)
			}
			if to.Role.Sends() && from.Role.Receives() {
				compareSignature(r, specFile, b, to, from)
			}
		}
	}
}

// bindingInterface resolves one endpoint to its interface, or nil.
func bindingInterface(spec *mil.Spec, insts map[string]*mil.Instance, e mil.Endpoint) *mil.Interface {
	in, ok := insts[e.Instance]
	if !ok {
		return nil
	}
	mod := spec.Module(in.Module)
	if mod == nil {
		return nil
	}
	return mod.Interface(e.Interface)
}

// sendTypes returns the type set an interface emits along a binding: the
// message pattern for clients and defines, the reply set for servers.
func sendTypes(ifc *mil.Interface) []mil.TypeRef {
	switch ifc.Role {
	case mil.RoleClient, mil.RoleDefine:
		return ifc.Pattern
	case mil.RoleServer:
		return ifc.Returns
	}
	return nil
}

// recvTypes returns the type set an interface consumes from a binding: the
// message pattern for servers and uses, the accept set for clients.
func recvTypes(ifc *mil.Interface) []mil.TypeRef {
	switch ifc.Role {
	case mil.RoleServer, mil.RoleUse:
		return ifc.Pattern
	case mil.RoleClient:
		return ifc.Accepts
	}
	return nil
}

// compareSignature checks one direction of a binding: what sender emits
// against what receiver expects. An empty set on either side means the
// specification left that signature open — nothing to check.
func compareSignature(r *diag.Report, specFile string, b *mil.Bind, sender, receiver *mil.Interface) {
	out := sendTypes(sender)
	in := recvTypes(receiver)
	if len(out) == 0 || len(in) == 0 {
		return
	}
	if len(out) != len(in) {
		r.Add(CodeBindingMismatch, diag.SevError, milPos(specFile, b.Pos),
			"binding %q -> %q: %s sends %d value(s) but %s expects %d",
			b.From, b.To, sender.Name, len(out), receiver.Name, len(in))
		return
	}
	for i := range out {
		sk, sok := typeKind(r, specFile, sender, out[i])
		rk, rok := typeKind(r, specFile, receiver, in[i])
		if !sok || !rok {
			continue
		}
		if sk != rk {
			r.Add(CodeBindingMismatch, diag.SevError, milPos(specFile, b.Pos),
				"binding %q -> %q: message position %d is %s on %s but %s on %s",
				b.From, b.To, i+1, out[i].Name, sender.Name, in[i].Name, receiver.Name)
		}
	}
}

// typeKind folds a MIL type name to its abstract-state kind, reporting
// MH012 at most once per interface.
func typeKind(r *diag.Report, specFile string, ifc *mil.Interface, ref mil.TypeRef) (state.Kind, bool) {
	if k, ok := milKinds[ref.Name]; ok {
		return k, true
	}
	for _, d := range r.Diags {
		if d.Code == CodeUnknownMILType && d.Pos == milPos(specFile, ifc.Pos) {
			return state.KindInvalid, false
		}
	}
	r.Add(CodeUnknownMILType, diag.SevWarning, milPos(specFile, ifc.Pos),
		"interface %s names message type %q, which maps to no abstract-state kind; its bindings are not type-checked",
		ifc.Name, ref.Name)
	return state.KindInvalid, false
}
