package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/skyline"
)

// healthz GETs /healthz on a setup-built server and decodes it.
func healthz(t *testing.T, args []string) skyline.HealthJSON {
	t.Helper()
	srv, addr, err := setup(args)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("empty listen address")
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out skyline.HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSetupDefaultLimits(t *testing.T) {
	h := healthz(t, nil)
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if want := 4 * runtime.GOMAXPROCS(0); h.MaxInflight != want {
		t.Errorf("max_inflight = %d, want %d", h.MaxInflight, want)
	}
	if want := runtime.GOMAXPROCS(0); h.MaxWorkersPerRequest != want {
		t.Errorf("max_workers_per_request = %d, want %d", h.MaxWorkersPerRequest, want)
	}
}

func TestSetupFlagLimits(t *testing.T) {
	h := healthz(t, []string{
		"-max-inflight", "3", "-max-workers-per-request", "1",
	})
	if h.MaxInflight != 3 {
		t.Errorf("max_inflight = %d, want 3", h.MaxInflight)
	}
	if h.MaxWorkersPerRequest != 1 {
		t.Errorf("max_workers_per_request = %d, want 1", h.MaxWorkersPerRequest)
	}
}

func TestSetupBadFlag(t *testing.T) {
	if _, _, err := setup([]string{"-catalog", "/nonexistent/catalog.json"}); err == nil {
		t.Fatal("missing catalog file accepted")
	}
}

func TestSetupStoreDisabledByDefault(t *testing.T) {
	if h := healthz(t, nil); h.Store != nil {
		t.Errorf("store gauges present without -store-dir: %+v", h.Store)
	}
}

func TestSetupStoreFlags(t *testing.T) {
	dir := t.TempDir()
	h := healthz(t, []string{"-store-dir", dir, "-store-limit-bytes", "4096"})
	if h.Store == nil {
		t.Fatal("-store-dir set but /healthz has no store section")
	}
	if h.Store.LimitBytes != 4096 {
		t.Errorf("store limit = %d, want 4096", h.Store.LimitBytes)
	}
	// Open created the store layout on disk.
	for _, sub := range []string{"objects", "tmp", "quarantine"} {
		if _, err := os.Stat(filepath.Join(dir, sub)); err != nil {
			t.Errorf("store layout missing %s/: %v", sub, err)
		}
	}
}

func TestSetupStoreBadDir(t *testing.T) {
	// A store rooted where a file already sits must fail setup loudly,
	// not silently run storeless.
	path := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := setup([]string{"-store-dir", path}); err == nil {
		t.Fatal("unusable -store-dir accepted")
	}
}
