package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"ccsdsldpc/ldpcbench/harness"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeEveryWorkload runs every workload briefly, untraced and
// traced, and checks that the run passes its correctness gate and prints
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about a second each")
	}
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the command %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			rc := runConfig{seed: 1, seconds: 500 * time.Millisecond}
			if traced {
				want = spec.PerLayer
				rc.tracer = harness.NewTracer(traceSpans)
			}
			res, err := w.run(rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res.Workload = w.name
			var out bytes.Buffer
			if err := res.Write(&out); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct() {
				t.Errorf("%s traced=%v: correctness gate failed: %v", w.name, traced, res.Violations)
			}
			checkPrinted(t, w.name, traced, out.String(), want)
		}
	}
}

func checkPrinted(t *testing.T, workload string, traced bool, out string, want []struct{ Name, Unit string }) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var summary struct {
		Correct   bool
		Attempted int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("%s traced=%v: last line is not the JSON summary: %v", workload, traced, err)
	}
	if summary.Attempted < 1 {
		t.Errorf("%s traced=%v: %d frames attempted", workload, traced, summary.Attempted)
	}
	units := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == workload {
			units[f[1]] = f[3]
		}
	}
	for _, m := range want {
		if units[m.Name] != m.Unit {
			t.Errorf("%s traced=%v: metric %s printed with unit %q, want %q", workload, traced, m.Name, units[m.Name], m.Unit)
		}
		if got, ok := summary.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s traced=%v: summary has %s = %+v, want unit %q", workload, traced, m.Name, got, m.Unit)
		}
	}
	if len(summary.Metrics) != len(want) {
		t.Errorf("%s traced=%v: summary has %d metrics, BENCHMARK.json names %d", workload, traced, len(summary.Metrics), len(want))
	}
}
