package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ccsdsldpc/internal/fleet"
	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"
)

// TestHTTPSurface serves the daemon's /metrics and /healthz over a
// one-code mux and reads them the way their consumers do: a fleet
// router's HTTPProbe must see the instance healthy, then unhealthy from
// the 503 once it drains; /metrics must decode into the mux snapshot;
// profiling stays unexposed without -pprof. The surface is built twice,
// as a process restarting its listener would.
func TestHTTPSurface(t *testing.T) {
	m, err := registry.NewMux(registry.Default(), []registry.ID{registry.C2}, serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Preload(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		var draining atomic.Bool
		ts := httptest.NewServer(serve.HTTPMux("ldpcserver", metrics(m, 18), healthz(m, &draining)))
		probe := fleet.HTTPProbe(ts.URL+"/healthz", time.Second)
		hs, err := probe()
		if err != nil || !hs.Healthy || hs.WindowSecs != 30 {
			t.Errorf("round %d: probe of an idle instance = %+v, %v; want healthy over a 30 s window", round, hs, err)
		}
		draining.Store(true)
		if hs, err := probe(); err != nil || hs.Healthy {
			t.Errorf("round %d: probe while draining = %+v, %v; want unhealthy", round, hs, err)
		}

		var snap registry.MuxSnapshot
		if err := getJSON(ts.URL+"/metrics", &snap); err != nil || len(snap.Codes) != 1 || !snap.Codes[0].Built || snap.DefaultCode != "c2" {
			t.Errorf("round %d: /metrics decoded to %+v, %v", round, snap, err)
		}
		var vars map[string]json.RawMessage
		var published registry.MuxSnapshot
		if err := getJSON(ts.URL+"/debug/vars", &vars); err != nil || json.Unmarshal(vars["ldpcserver"], &published) != nil || published.DefaultCode != "c2" {
			t.Errorf("round %d: /debug/vars carries no mux snapshot: %v", round, err)
		}
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("round %d: /debug/pprof/ status %d without -pprof, want 404", round, resp.StatusCode)
		}
		ts.Close()
	}
}

// getJSON decodes a 200 response body from url into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
