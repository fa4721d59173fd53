// Command ldpcbench is the decoder stack's benchmark. It runs one
// workload per process against the repository's own packages — the
// packed decoder (batch), the decode server (serve), the code registry
// and its TCP mux (registry), the routing tier (fleet) and the ground
// station front end (station) — from inputs generated from --seed, and
// checks every answer against the transmitted codeword.
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer metrics and writes its spans to
// --trace-out. BENCHMARK.json at the repository root lists both sets,
// and README.md in this directory explains each metric and workload.
// Each metric prints as a "workload metric value unit [n=samples]"
// line; diagnostics print as "# " lines; the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is
// nonzero if the run fails or any answer is wrong.
//
// Usage, from the repository root:
//
//	bash ldpcbench/run.sh --workload W --seed N --seconds S --trace 0|1
//
// Without --workload every workload runs, each in its own process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"ccsdsldpc/bench"
	"ccsdsldpc/ldpcbench/harness"
)

// workloads are the benchmark's traffic mixes; BENCHMARK.json records
// why each was chosen.
var workloads = []struct {
	name string
	run  func(runConfig) (*harness.Result, error)
}{
	{"bulk-waterfall", func(rc runConfig) (*harness.Result, error) { return runBulk(rc, bulkWaterfall) }},
	{"bulk-fixed18", func(rc runConfig) (*harness.Result, error) { return runBulk(rc, bulkFixed18) }},
	{"station-link", runStation},
	{"fleet-mixed", runFleet},
}

// maxProcs bounds the scheduler: all load comes from this one process
// on at most two cores, whatever the host has.
const maxProcs = 2

// traceSpans is the in-memory span buffer of a traced run.
const traceSpans = 1 << 18

func main() {
	name := flag.String("workload", "", "workload to run (default: all, each in its own process)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 28, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace/WORKLOAD-seedN.jsonl)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace %d: want 0 or 1", *trace)
	}
	if *seconds <= 0 {
		fatalf("--seconds %v: want > 0", *seconds)
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	var run func(runConfig) (*harness.Result, error)
	for _, w := range workloads {
		if w.name == *name {
			run = w.run
		}
	}
	if run == nil {
		fatalf("unknown workload %q", *name)
	}
	if host, err := json.Marshal(bench.HostEnv()); err == nil {
		fmt.Fprintf(os.Stderr, "ldpcbench: %s on %s\n", *name, host)
	}
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	if *trace == 1 {
		rc.tracer = harness.NewTracer(traceSpans)
	}
	res, err := run(rc)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	res.Workload = *name
	if rc.tracer != nil {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		}
		if err := writeSpans(rc.tracer, path); err != nil {
			fatalf("%s: %v", *name, err)
		}
		res.Note("trace.spans", float64(len(rc.tracer.Spans())), "count", 0)
		res.Note("trace.dropped", float64(rc.tracer.Dropped()), "count", 0)
	}
	if err := res.Write(os.Stdout); err != nil {
		fatalf("%v", err)
	}
	if !res.Correct() {
		os.Exit(1)
	}
}

func writeSpans(tr *harness.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a child process of its own, so each
// one's set-up time and heap are its own, and returns the exit code.
func runAll(seed uint64, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name,
			"--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "ldpcbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ldpcbench: "+format+"\n", args...)
	os.Exit(1)
}
