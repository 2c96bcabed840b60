package reconf

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/codec"
	"repro/internal/fixtures"
	"repro/internal/transform"
)

// TestCompiledModuleMigration is the reproduction's hardest end-to-end
// claim: the transform's output is real Go. The instrumented compute module
// is emitted as a standalone package, compiled with the Go toolchain, and
// run as two OS processes ("machines") attached to the bus over TCP; the
// module is captured mid-recursion in process 1 and restored in process 2,
// and the answer is exact.
func TestCompiledModuleMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the Go toolchain; skipped in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available")
	}

	out, err := transform.Prepare(map[string]string{"compute.go": fixtures.ComputeSource}, transform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	files, err := out.Standalone()
	if err != nil {
		t.Fatal(err)
	}

	// Build in a scratch module that replaces repro with this repository.
	repoRoot, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gomod := fmt.Sprintf("module genmodule\n\ngo 1.22\n\nrequire repro v0.0.0\n\nreplace repro => %s\n", repoRoot)
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bin := filepath.Join(dir, "compute-module")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	build := exec.Command(goBin, "build", "-o", bin, ".")
	build.Dir = dir
	build.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if outp, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n%s\n---- generated sources ----\n%s",
			err, outp, files["compute.go"])
	}

	// Bus with TCP attachments.
	b := bus.New()
	specOf := func(name, machine, status string) bus.InstanceSpec {
		return bus.InstanceSpec{
			Name: name, Module: "compute", Machine: machine, Status: status,
			Interfaces: []bus.IfaceSpec{
				{Name: "display", Dir: bus.InOut},
				{Name: "sensor", Dir: bus.In},
			},
		}
	}
	for _, spec := range []bus.InstanceSpec{
		{Name: "display", Interfaces: []bus.IfaceSpec{{Name: "temper", Dir: bus.InOut}}},
		{Name: "sensor", Interfaces: []bus.IfaceSpec{{Name: "out", Dir: bus.Out}}},
		specOf("compute", "machineA", bus.StatusAdd),
	} {
		if err := b.AddInstance(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, bd := range [][2]bus.Endpoint{
		{{Instance: "display", Interface: "temper"}, {Instance: "compute", Interface: "display"}},
		{{Instance: "sensor", Interface: "out"}, {Instance: "compute", Interface: "sensor"}},
	} {
		if err := b.AddBinding(bd[0], bd[1]); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := netListen()
	if err != nil {
		t.Fatal(err)
	}
	srv := bus.NewServer(b, ln)
	defer srv.Close()

	disp, err := b.Attach("display")
	if err != nil {
		t.Fatal(err)
	}
	sens, err := b.Attach("sensor")
	if err != nil {
		t.Fatal(err)
	}
	c := codec.Default()
	d := &driver{t: t, c: c, bus: b, disp: disp, sens: sens}

	startProc := func(instance string) *exec.Cmd {
		t.Helper()
		cmd := exec.Command(bin)
		cmd.Env = append(os.Environ(),
			"MH_BUS_ADDR="+srv.Addr().String(),
			"MH_INSTANCE="+instance,
			"MH_SLEEP_UNIT_MS=1",
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", instance, err)
		}
		return cmd
	}

	proc1 := startProc("compute")
	defer proc1.Process.Kill()

	// Serve one request normally.
	d.requestTaken("compute", 2)
	d.temperature(10)
	d.temperature(30)
	if got := d.response(); got != 20 {
		t.Fatalf("first answer = %v", got)
	}

	// Interrupt mid-recursion: request depth 3, let it block on the
	// sensor, signal, feed one value. Over TCP the signal frame and the
	// read response race on the wire (exactly like an asynchronous UNIX
	// signal): the server's signal pump forwards the signal on its own
	// goroutine, which takes it straight from the send, so nothing this
	// side observes the frame written. Pause between them so the flag is
	// set before the module resumes, making the capture land at this
	// request's second level rather than at some later reconfiguration
	// point.
	d.requestTaken("compute", 3)
	waitUntil(t, "compute's descent to its innermost sensor read", func() bool {
		info, err := b.Info("compute")
		return err == nil && info.Parked["sensor"]
	})
	if err := b.SignalReconfig("compute"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	d.temperature(60)
	divulged, err := b.AwaitDivulged("compute", 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.DecodeState(divulged)
	if err != nil {
		t.Fatal(err)
	}
	if st.Depth() != 3 {
		t.Fatalf("captured depth = %d, want 3:\n%s", st.Depth(), st)
	}
	if err := proc1.Wait(); err != nil {
		t.Fatalf("process 1 exit: %v", err)
	}

	// Clone instance, rebind, install state, start process 2.
	if err := b.AddInstance(specOf("compute2", "machineB", bus.StatusClone)); err != nil {
		t.Fatal(err)
	}
	err = b.Rebind([]bus.BindEdit{
		{Op: "del", From: bus.Endpoint{Instance: "display", Interface: "temper"}, To: bus.Endpoint{Instance: "compute", Interface: "display"}},
		{Op: "add", From: bus.Endpoint{Instance: "display", Interface: "temper"}, To: bus.Endpoint{Instance: "compute2", Interface: "display"}},
		{Op: "del", From: bus.Endpoint{Instance: "sensor", Interface: "out"}, To: bus.Endpoint{Instance: "compute", Interface: "sensor"}},
		{Op: "add", From: bus.Endpoint{Instance: "sensor", Interface: "out"}, To: bus.Endpoint{Instance: "compute2", Interface: "sensor"}},
		{Op: "cq", From: bus.Endpoint{Instance: "compute", Interface: "display"}, To: bus.Endpoint{Instance: "compute2", Interface: "display"}},
		{Op: "cq", From: bus.Endpoint{Instance: "compute", Interface: "sensor"}, To: bus.Endpoint{Instance: "compute2", Interface: "sensor"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.InstallState("compute2", divulged); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteInstance("compute"); err != nil {
		t.Fatal(err)
	}

	proc2 := startProc("compute2")
	defer proc2.Process.Kill()

	d.temperature(70)
	d.temperature(80)
	want := 60.0/3 + 70.0/3 + 80.0/3
	if got := d.response(); got != want {
		t.Errorf("migrated answer = %v, want %v", got, want)
	}

	// Process 2 keeps serving.
	d.requestTaken("compute2", 1)
	d.temperature(55)
	if got := d.response(); got != 55 {
		t.Errorf("post-migration answer = %v", got)
	}

	if err := b.DeleteInstance("compute2"); err != nil {
		t.Fatal(err)
	}
	procDone := make(chan error, 1)
	go func() { procDone <- proc2.Wait() }()
	select {
	case <-procDone:
	case <-time.After(10 * time.Second):
		t.Error("process 2 did not exit after instance deletion")
	}
}

// netListen opens a loopback TCP listener.
func netListen() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}
