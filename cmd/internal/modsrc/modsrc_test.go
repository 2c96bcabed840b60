package modsrc

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/transform"
)

func writeFiles(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, text := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRead(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, map[string]string{
		"a.go":           "package a",
		"b.go":           "package a // b",
		"a_test.go":      "package a // test",
		"notes.txt":      "x",
		"sub/c.go":       "package c",
		"only/x_test.go": "package x",
	})
	files, err := Read(dir)
	if err != nil || len(files) != 2 || files["a.go"] != "package a" || files["b.go"] != "package a // b" {
		t.Fatalf("Read = %v, %v", files, err)
	}
	for _, bad := range []string{filepath.Join(dir, "missing"), filepath.Join(dir, "only")} {
		if files, err := Read(bad); err == nil {
			t.Errorf("Read(%s) = %v, want an error", bad, files)
		}
	}
}

func TestReadAll(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, map[string]string{
		"top.go":                 "package top",
		"compute/compute.go":     "package compute",
		"compute/helper_test.go": "package compute // test",
		"docs/README":            "x",
		"tests/only_test.go":     "package tests",
	})
	modules, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(modules) != 1 || len(modules["compute"].Files) != 1 || modules["compute"].Files["compute.go"] != "package compute" {
		t.Errorf("ReadAll = %v", modules)
	}
	if _, err := ReadAll(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing srcdir accepted")
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]transform.CaptureMode{
		"": 0, "all": transform.CaptureAll, "live": transform.CaptureLive, "spec": transform.CaptureSpec,
	} {
		if got, err := ParseMode(s); got != want || err != nil {
			t.Errorf("ParseMode(%q) = %v, %v, want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("unknown mode accepted")
	}
}
