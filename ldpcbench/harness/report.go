package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Metric is one named measurement. N is the sample count behind a rate
// or a percentile, 0 otherwise.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	N     int64
}

// Result is one run of one workload: the correctness verdict, how many
// frames were attempted and failed, the metrics the run reports, and
// diagnostic notes printed beside them.
type Result struct {
	Workload   string
	Attempted  int64
	Failed     int64
	Metrics    []Metric
	Notes      []Metric
	Violations []string
}

// Add appends a reported metric.
func (r *Result) Add(name string, value float64, unit string, n int64) {
	r.Metrics = append(r.Metrics, Metric{name, value, unit, n})
}

// Note appends a diagnostic that is printed but not reported.
func (r *Result) Note(name string, value float64, unit string, n int64) {
	r.Notes = append(r.Notes, Metric{name, value, unit, n})
}

// Violate records a correctness-gate failure.
func (r *Result) Violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Correct reports whether the correctness gate held.
func (r *Result) Correct() bool { return len(r.Violations) == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// Write prints one "workload metric value unit [n=N]" line per metric
// and note, each violation, and last the JSON summary line
// {"correct", "attempted", "failed", "metrics"}. Values keep every
// digit. A metric that is not a finite number is an error: no value
// stands in for it.
func (r *Result) Write(w io.Writer) error {
	out := jsonResult{
		Correct:   r.Correct(),
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]jsonMetric, len(r.Metrics)),
	}
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, m.Name, m.Value)
		}
		out.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	line := func(prefix string, m Metric) {
		s := fmt.Sprintf("%s%s %s %s %s", prefix, r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if m.N > 0 {
			s += fmt.Sprintf(" n=%d", m.N)
		}
		fmt.Fprintln(w, s)
	}
	for _, m := range r.Metrics {
		line("", m)
	}
	for _, m := range r.Notes {
		line("# ", m)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "# %s VIOLATION %s\n", r.Workload, v)
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}
