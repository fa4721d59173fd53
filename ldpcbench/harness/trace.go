package harness

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one request share
// Frame; Parent is the index of the span that caused this one, or −1.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Frame  int64  `json:"frame"`
}

// Tracer records spans into a preallocated in-memory buffer; nothing is
// written out until the run ends. A nil *Tracer records nothing, so the
// untraced run calls the same code with tracing off. Begin and End are
// safe from any goroutine: each span owns its own slot.
type Tracer struct {
	epoch   time.Time
	spans   []Span
	next    atomic.Int64
	dropped atomic.Int64
}

// NewTracer returns a tracer with room for capacity spans; spans beyond
// it are counted as dropped.
func NewTracer(capacity int) *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, capacity)}
}

// Begin opens a span and returns its handle (−1 when not recorded).
func (t *Tracer) Begin(name string, parent int32, frame int64) int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = Span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Frame: frame}
	return int32(i)
}

// End closes a span opened by Begin.
func (t *Tracer) End(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// Record adds a span whose times are already known, such as a request
// sent by one goroutine and answered on another.
func (t *Tracer) Record(name string, parent int32, frame int64, start, end time.Time) int32 {
	id := t.Begin(name, parent, frame)
	if id >= 0 {
		t.spans[id].Start = int64(start.Sub(t.epoch))
		t.spans[id].End = int64(end.Sub(t.epoch))
	}
	return id
}

// Spans returns the recorded spans. Call it only after every goroutine
// that records has finished.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// Dropped returns the spans lost to a full buffer.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// WriteJSON writes the recorded spans as one JSON object per line.
func (t *Tracer) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SelfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Overlapping children (concurrent
// work caused by one span) are counted once.
func SelfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	children := make(map[int32][][2]int64)
	for i, s := range spans {
		self[i] = s.End - s.Start
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for p, iv := range children {
		lo, hi := spans[p].Start, spans[p].End
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, c := range iv {
			s, e := max(c[0], lo), min(c[1], hi)
			if e <= s {
				continue
			}
			switch {
			case !open:
				curLo, curHi, open = s, e, true
			case s <= curHi:
				curHi = max(curHi, e)
			default:
				covered += curHi - curLo
				curLo, curHi = s, e
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[p] -= covered
	}
	return self
}

// SpanTotals sums durations and self times over the spans with one name.
type SpanTotals struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// Totals aggregates spans by name, with self times from SelfTimes.
func Totals(spans []Span) map[string]SpanTotals {
	self := SelfTimes(spans)
	out := make(map[string]SpanTotals)
	for i, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Total += time.Duration(s.End - s.Start)
		t.Self += time.Duration(self[i])
		out[s.Name] = t
	}
	return out
}
