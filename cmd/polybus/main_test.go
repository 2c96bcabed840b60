package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/fixtures"
)

func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func writeApp(t *testing.T) (specFile, srcDir string) {
	t.Helper()
	dir := t.TempDir()
	specFile = filepath.Join(dir, "app.mil")
	if err := os.WriteFile(specFile, []byte(fixtures.MonitorSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	srcDir = filepath.Join(dir, "modules")
	for name, src := range map[string]string{
		"compute": fixtures.ComputeSource,
		"sensor":  fixtures.SensorSource,
		"display": fixtures.DisplaySource,
	} {
		mdir := filepath.Join(srcDir, name)
		if err := os.MkdirAll(mdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(mdir, name+".go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return specFile, srcDir
}

// TestPolybusServesAndIsControllable boots the whole application from the
// specification file and drives a migration through the control plane —
// the operator workflow of README.md.
func TestPolybusServesAndIsControllable(t *testing.T) {
	specFile, srcDir := writeApp(t)
	ctlAddr := freePort(t)
	busAddr := freePort(t)

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-spec", specFile,
			"-srcdir", srcDir,
			"-control", ctlAddr,
			"-listen", busAddr,
			"-trace-sample", "1",
			"-duration", "4s",
			"-sleepunit", "1ms",
		})
	}()

	// Wait for the operator plane.
	client := reconf.NewClient(ctlAddr, 200*time.Millisecond)
	client.Text = true
	deadline := time.Now().Add(5 * time.Second)
	var topo string
	for {
		var err error
		if topo, err = client.Call("topology"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("operator plane never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(topo, "instance compute (module compute)") {
		t.Fatalf("topology = %q", topo)
	}

	// Migrate compute while the application serves.
	time.Sleep(100 * time.Millisecond)
	if _, err := client.Call("move", "compute", "compute2", "machineB"); err != nil {
		t.Fatalf("remote move: %v", err)
	}
	topo, err := client.Call("topology")
	if err != nil || !strings.Contains(topo, "instance compute2 (module compute) on machineB") {
		t.Fatalf("post-move topology = %q, %v", topo, err)
	}
	trace, err := client.Call("trace")
	if err != nil || trace == "" || strings.Contains(trace, "no reconfigurations yet") {
		t.Fatalf("trace = %v, %v", trace, err)
	}
	stats, err := client.Call("stats")
	if err != nil || !strings.Contains(stats, `"rebinds": 1`) {
		t.Fatalf("stats = %q, %v", stats, err)
	}

	// The same listener serves Prometheus metrics and health.
	metrics := obsGet(t, "http://"+ctlAddr+"/metrics")
	for _, want := range []string{"bus_delivered_total", "bus_rebinds_total 1", "reconfig_tx_total_ns_count"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if got := obsGet(t, "http://"+ctlAddr+"/healthz"); !strings.Contains(got, "ok") {
		t.Errorf("/healthz = %q, want ok", got)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("polybus: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("polybus never exited")
	}
}

func obsGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestPolybusValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing flags accepted")
	}
	if err := run([]string{"-spec", "/nonexistent", "-srcdir", "/nonexistent"}); err == nil {
		t.Error("bad spec accepted")
	}
	specFile, _ := writeApp(t)
	if err := run([]string{"-spec", specFile, "-srcdir", "/nonexistent"}); err == nil {
		t.Error("bad srcdir accepted")
	}
}

func TestReadModuleDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte("package a"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	files, err := readModuleDir(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("files = %v, %v", files, err)
	}
	if _, err := readModuleDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing dir accepted")
	}
}
