package fleet

import (
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"ccsdsldpc/internal/registry"
	"ccsdsldpc/internal/serve"
	"ccsdsldpc/internal/station"
)

// serveKeys is serve.Snapshot's key set, also every code's "serve"
// object in registry.MuxSnapshot.
var serveKeys = []string{
	"avg_iterations", "batch_fill", "batch_fill_frac", "batch_fill_mean",
	"batches", "breaker_trips", "degraded", "dispatch_width",
	"frames_crashed", "frames_deadline", "frames_decoded", "frames_in",
	"frames_shed", "in_flight", "iterations", "latency_p50_us",
	"latency_p90_us", "latency_p99_us", "queue_depth", "worker_restarts",
	"workers", "workers[].Frames", "workers[].Iterations",
}

// TestSnapshotKeySets pins the JSON key paths of every snapshot a
// /metrics or /healthz endpoint serves, or fleet.HTTPProbe decodes. Any
// key dropped or renamed — by an embedding that shadows a field, say —
// breaks readers outside the process; fleet.Snapshot's latency
// quantiles are the only keys added since the snapshots shared one
// counter set.
func TestSnapshotKeySets(t *testing.T) {
	muxKeys := []string{
		"bad_frames", "codes", "codes[].built", "codes[].frame_len",
		"codes[].healthy", "codes[].id", "codes[].k", "codes[].n",
		"codes[].name", "codes[].serve", "default_code", "healthy",
		"unknown_code", "v1_frames", "v2_frames",
	}
	for _, k := range serveKeys {
		muxKeys = append(muxKeys, "codes[].serve."+k)
	}
	for _, tc := range []struct {
		name string
		v    any
		want []string
	}{
		{"serve.Snapshot", serve.Snapshot{}, serveKeys},
		{"serve.HealthSnapshot", serve.HealthSnapshot{}, []string{
			"breaker_trips", "degraded", "failure_rate", "frames_crashed",
			"frames_deadline", "frames_decoded", "frames_in", "frames_shed",
			"healthy", "in_flight", "queue_depth", "samples", "window_s",
		}},
		{"registry.MuxSnapshot", registry.MuxSnapshot{}, muxKeys},
		{"fleet.Snapshot", Snapshot{}, []string{
			"active_backends", "backends", "backends[].addr",
			"backends[].conn_errors", "backends[].crashes",
			"backends[].deadlines", "backends[].degraded",
			"backends[].dial_fails", "backends[].drains", "backends[].frames",
			"backends[].last_error", "backends[].name", "backends[].pending",
			"backends[].probe_fails", "backends[].readmits",
			"backends[].sheds", "backends[].state", "backends[].weight",
			"bad_frames", "budget_denied", "frames_completed",
			"frames_deadline", "frames_in", "frames_lost", "frames_routed",
			"healthy", "hedges", "requeues", "retry_budget_spent",
			"retry_budget_tokens", "shed_upstream",
			"unknown_code", "v1_frames", "v2_frames",
			"latency_p50_us", "latency_p90_us", "latency_p99_us",
		}},
		{"station.Snapshot", station.Snapshot{}, []string{
			"cadu_reject_fraction", "cadus_emitted", "cadus_rejected",
			"decode_errors", "flywheel_misses", "frames_aligned",
			"frames_flywheel", "locks", "rotations_resolved", "samples_in",
			"slip_bits_corrected", "slips_corrected", "state", "unlocks",
		}},
	} {
		want := slices.Sorted(slices.Values(tc.want))
		if got := jsonKeys(t, tc.v); !slices.Equal(got, want) {
			t.Errorf("%s keys\n got %q\nwant %q", tc.name, got, want)
		}
	}
}

// populate sets every exported field reachable from v to a non-zero
// value, with one element in each slice, so that no omitempty key is
// left out of the encoding.
func populate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				populate(v.Field(i))
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		populate(v.Index(0))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint8:
		v.SetUint(1)
	case reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString("x")
	}
}

// jsonKeys returns the sorted key paths of a populated value of v's
// type: nested objects join with ".", array elements with "[].".
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	p := reflect.New(reflect.TypeOf(v))
	populate(p.Elem())
	buf, err := json.Marshal(p.Interface())
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	var walk func(prefix string, x any)
	walk = func(prefix string, x any) {
		switch x := x.(type) {
		case map[string]any:
			for k, v := range x {
				keys = append(keys, prefix+k)
				walk(prefix+k+".", v)
			}
		case []any:
			for _, v := range x {
				walk(strings.TrimSuffix(prefix, ".")+"[].", v)
			}
		}
	}
	walk("", doc)
	sort.Strings(keys)
	return keys
}
