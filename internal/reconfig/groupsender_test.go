package reconfig

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/telemetry/evlog"
)

// groupClientBus binds a client to a replica group both ways: its requests
// go to G.in, and the members' replies come back through G.out.
func groupClientBus(t *testing.T) *bus.Bus {
	t.Helper()
	b := bus.New()
	t.Cleanup(b.Close)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	shape := []bus.IfaceSpec{{Name: "in", Dir: bus.In}, {Name: "out", Dir: bus.Out}}
	must(b.AddGroup("G", "", shape))
	must(b.AddInstance(bus.InstanceSpec{Name: "m", Module: "server", Interfaces: shape}))
	must(b.AddGroupMember("G", "m"))
	must(b.AddInstance(bus.InstanceSpec{Name: "client", Module: "client",
		Interfaces: []bus.IfaceSpec{{Name: "req", Dir: bus.Out}, {Name: "resp", Dir: bus.In}}}))
	must(b.AddBinding(bus.Endpoint{Instance: "client", Interface: "req"}, bus.Endpoint{Instance: "G", Interface: "in"}))
	must(b.AddBinding(bus.Endpoint{Instance: "G", Interface: "out"}, bus.Endpoint{Instance: "client", Interface: "resp"}))
	return b
}

// TestPlanReplaceRebindsGroupSender: replacing a group's client moves the
// group's reply binding to the clone. The plan reads G.out as a source of
// client.resp and rebinds it, so chg_obj client del does not take the
// clone's only reply path with it.
func TestPlanReplaceRebindsGroupSender(t *testing.T) {
	b := groupClientBus(t)
	plan, err := PlanReplace(NewPrimitives(b, evlog.NewLog(0, b.Clock())), "client", ReplaceOptions{NewName: "client2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"struct_ifsources client.resp -> 1",
		"edit_bind del G.out client.resp",
		"edit_bind add G.out client2.resp",
		"edit_bind cq client.resp client2.resp",
	} {
		if !slices.Contains(plan, line) {
			t.Errorf("plan has no %q:\n%s", line, strings.Join(plan, "\n"))
		}
	}
}

// TestReplicateBindsGroupSender: a replica of a group's client is bound to
// the group's replies too.
func TestReplicateBindsGroupSender(t *testing.T) {
	b := groupClientBus(t)
	launched := launcherFunc(func(string) error { return nil })
	if _, err := Replicate(NewPrimitives(b, evlog.NewLog(0, b.Clock())), launched, "client", "client2", ""); err != nil {
		t.Fatal(err)
	}
	want := bus.Binding{A: bus.Endpoint{Instance: "G", Interface: "out"}, B: bus.Endpoint{Instance: "client2", Interface: "resp"}}
	if !slices.Contains(b.Bindings(), want) {
		t.Errorf("bindings after Replicate %v lack %v", b.Bindings(), want)
	}
}

type launcherFunc func(string) error

func (f launcherFunc) Launch(name string) error { return f(name) }
