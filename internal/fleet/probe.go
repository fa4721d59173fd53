package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"ccsdsldpc/internal/serve"
)

// Probe asks one backend for its routable state. The poller calls it
// every PollInterval and folds the answer into routing weights: an
// error or Healthy=false drains the backend, Degraded halves its
// weight. Three implementations cover the deployment spectrum —
// HTTPProbe for real instances exposing /healthz, SnapshotProbe for
// in-process instances, DialProbe when only the decode port exists.
type Probe func() (serve.HealthSnapshot, error)

// DialProbe reports a backend healthy while its decode address accepts
// TCP connections — reachability only, no breaker or queue insight.
// It is the fallback probe and the right one for restart detection:
// a killed process refuses the dial, a restarted one accepts it.
func DialProbe(addr string, timeout time.Duration) Probe {
	if timeout <= 0 {
		timeout = time.Second
	}
	return func() (serve.HealthSnapshot, error) {
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return serve.HealthSnapshot{}, err
		}
		nc.Close()
		return serve.HealthSnapshot{Healthy: true}, nil
	}
}

// HTTPProbe polls a /healthz URL serving a serve.HealthSnapshot JSON
// body (what ldpcserver exposes): a 200 with healthy=true is healthy, a
// 503 is a drain signal even if the body parses, and the degraded flag
// rides along to halve the routing weight.
func HTTPProbe(url string, timeout time.Duration) Probe {
	if timeout <= 0 {
		timeout = time.Second
	}
	client := &http.Client{Timeout: timeout}
	return func() (serve.HealthSnapshot, error) {
		resp, err := client.Get(url)
		if err != nil {
			return serve.HealthSnapshot{}, err
		}
		defer resp.Body.Close()
		var hs serve.HealthSnapshot
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			return serve.HealthSnapshot{}, err
		}
		if err := json.Unmarshal(body, &hs); err != nil {
			// A 503 with an unparseable body is still a definitive
			// drain; anything else unparseable is a probe failure.
			if resp.StatusCode == http.StatusServiceUnavailable {
				return serve.HealthSnapshot{Healthy: false}, nil
			}
			return serve.HealthSnapshot{}, fmt.Errorf("fleet: healthz body: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			hs.Healthy = false
		}
		return hs, nil
	}
}

// SnapshotProbe wraps an in-process health source — a serve.Server's or
// registry.Mux's HealthSnapshot method — so a fleet of in-process
// backends (tests, the fleet-mixed benchmark) shares the exact /healthz
// truth without HTTP.
func SnapshotProbe(fn func() serve.HealthSnapshot) Probe {
	return func() (serve.HealthSnapshot, error) {
		return fn(), nil
	}
}
