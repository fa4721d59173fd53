package harness

import (
	"io"
	"math"
	"testing"
	"time"
)

func TestTailCountsFailuresAndKeepsTenBeyond(t *testing.T) {
	// Failures rank above every answered frame.
	now := time.Now()
	l := NewLatencies(1000)
	for i := 0; i < 980; i++ {
		l.Add(now, time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		l.AddFailure(now)
	}
	if q, v := l.Tail(0.99); q != 0.99 || !math.IsInf(v, 1) {
		t.Fatalf("2%% failed: Tail(0.99) = %v, %v; want 0.99, +Inf", q, v)
	}
	if _, v := l.Tail(0.5); v != time.Millisecond.Seconds() {
		t.Fatalf("median %v, want 1ms", v)
	}

	// Samples 1..n seconds: the reported percentile always leaves
	// exactly MinBeyond samples above it, or more.
	for _, n := range []int{11, 100, 500, 999, 1000, 5000} {
		l := NewLatencies(n)
		for i := n; i >= 1; i-- {
			l.Add(now, time.Duration(i)*time.Second)
		}
		q, v := l.Tail(0.99)
		beyond := n - int(v)
		if beyond < MinBeyond {
			t.Errorf("n=%d: p%v = %v leaves %d samples beyond, want >= %d", n, q*100, v, beyond, MinBeyond)
		}
		if n >= 1000 && q != 0.99 {
			t.Errorf("n=%d: reported quantile %v, want 0.99", n, q)
		}
		if n < 1000 && beyond != MinBeyond {
			t.Errorf("n=%d: %d samples beyond the fallback percentile, want exactly %d", n, beyond, MinBeyond)
		}
	}

	small := NewLatencies(10)
	for i := 0; i < 10; i++ {
		small.Add(now, time.Second)
	}
	if q, _ := small.Tail(0.99); q != 0 {
		t.Errorf("10 samples support no percentile with 10 beyond, got q=%v", q)
	}
}

func TestWindowedIgnoresABurstInOneWindow(t *testing.T) {
	start := time.Now()
	l := NewLatencies(4000)
	// Two readers' samples, merged out of time order: windows are cut by
	// when a sample was recorded, not by where it sits.
	for _, odd := range []int{1, 0} {
		for i := odd; i < 4000; i += 2 {
			d := 10 * time.Millisecond
			if i >= 1000 && i < 1050 { // a burst inside the second window
				d = 100 * time.Millisecond
			}
			l.Add(start.Add(time.Duration(i)*time.Millisecond), d)
		}
	}
	if _, whole := l.Tail(0.99); whole != 0.1 {
		t.Fatalf("whole-phase p99 %v, want the burst's 0.1", whole)
	}
	if q, v := l.Windowed(0.99); q != 0.99 || v != 0.01 {
		t.Errorf("Windowed(0.99) = %v, %v; want 0.99, 0.01", q, v)
	}
	if _, v := l.Windowed(0.5); v != 0.01 {
		t.Errorf("Windowed(0.5) = %v, want 0.01", v)
	}

	// A long phase is cut into as many windows as it fills: a slow spell
	// over its first 3000 of 10000 samples reaches 3 of 10 windows, not
	// half of four.
	long := NewLatencies(10000)
	for i := 0; i < 10000; i++ {
		d := 10 * time.Millisecond
		if i < 3000 {
			d = 100 * time.Millisecond
		}
		long.Add(start.Add(time.Duration(i)*time.Millisecond), d)
	}
	if _, v := long.Windowed(0.99); v != 0.01 {
		t.Errorf("10 windows, 3 slow: Windowed(0.99) = %v, want 0.01", v)
	}

	// Too few samples for two windows: one window, the plain tail.
	few := NewLatencies(500)
	for i := 1; i <= 500; i++ {
		few.Add(start, time.Duration(i)*time.Second)
	}
	q, v := few.Windowed(0.99)
	if wq, wv := few.Tail(0.99); q != wq || v != wv {
		t.Errorf("500 samples: Windowed %v, %v; Tail %v, %v", q, v, wq, wv)
	}
}

// TestOpenLoopChargesStallToLaterFrames injects a stall into a fake
// FIFO server. The generator keeps sending on schedule, so the frames
// behind the stall queue, and timing each from its due time charges them
// the wait a closed loop would never have offered them.
func TestOpenLoopChargesStallToLaterFrames(t *testing.T) {
	const (
		sends    = 60
		interval = 2 * time.Millisecond
		service  = 200 * time.Microsecond
		stallAt  = 20
		stall    = 30 * time.Millisecond
	)
	in := make(chan int, sends)
	done := make(chan int, sends)
	go func() { // the fake server
		defer close(done)
		for seq := range in {
			if seq == stallAt {
				time.Sleep(stall)
			}
			time.Sleep(service)
			done <- seq
		}
	}()
	loop := NewOpenLoop(time.Now(), interval, sends)
	gen := NewOpenLoopGenerator(loop, sends, func(seq int) error {
		in <- seq
		return nil
	})
	go func() {
		defer close(in)
		defer close(gen.Out)
		for i := 0; i < sends; i++ {
			_ = gen.Step()
		}
	}()
	lat := make([]time.Duration, sends)
	for rec := range gen.Out {
		if got := <-done; got != rec.Seq {
			t.Fatalf("answer %d for send %d", got, rec.Seq)
		}
		lat[rec.Seq] = time.Since(rec.Due)
	}
	// Every frame sent while the stall's backlog lasts waited for it: at
	// least the stall less the time since the stalled frame was due.
	for seq := stallAt + 1; seq < sends; seq++ {
		owed := stall - time.Duration(seq-stallAt)*(interval-service) - 5*time.Millisecond
		if owed <= 0 {
			break
		}
		if lat[seq] < owed {
			t.Errorf("frame %d latency %v, want >= %v: the stall was not charged to it", seq, lat[seq], owed)
		}
	}
	// The generator itself never waited for the server.
	if _, late := loop.Late.Tail(0.9); late > stall.Seconds()/2 {
		t.Errorf("generator p90 lateness %vs: it stalled with the server", late)
	}
}

func TestMeterReportsMedianWindowRate(t *testing.T) {
	start := time.Unix(1000, 0)
	m := NewMeter(start, time.Second, 5500*time.Millisecond)
	if len(m.bins) != 5 {
		t.Fatalf("%d windows, want the 5 whole ones", len(m.bins))
	}
	m.AddSpan(start, start.Add(4*time.Second), 40)  // 10 a second for 4 s
	m.Add(start.Add(4500*time.Millisecond), 1)      // then a stall
	m.Add(start.Add(6*time.Second), 1000)           // after the last window
	m.AddSpan(start.Add(-time.Second), start, 1000) // before the first
	if r := m.MedianRate(nil); r != 10 {
		t.Errorf("median rate %v, want 10: one slow window must not move it", r)
	}

	// A span straddling windows is split by overlap.
	o := NewMeter(start, time.Second, 2*time.Second)
	o.AddSpan(start.Add(500*time.Millisecond), start.Add(1500*time.Millisecond), 8)
	if o.bins[0] != 4 || o.bins[1] != 4 {
		t.Errorf("bins %v, want [4 4]", o.bins)
	}
}

func TestSpeedScalesEachWindowToRefSpeed(t *testing.T) {
	start := time.Unix(1000, 0)
	ms := time.Millisecond
	sp := NewSpeed(start, time.Second, 3*time.Second)
	sp.add(start.Add(100*ms), RefSpeed/2) // window 0: cores at half speed
	sp.add(start.Add(200*ms), RefSpeed/2)
	sp.add(start.Add(1500*ms), RefSpeed) // window 1: at RefSpeed
	sp.add(start.Add(5*time.Second), 1)  // outside the span
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{{500 * ms, 2}, {1500 * ms, 1}, {2500 * ms, 2}} { // window 2: the span's median
		if f := sp.Factor(start.Add(c.at)); f != c.want {
			t.Errorf("Factor at %v = %v, want %v", c.at, f, c.want)
		}
	}

	// Work done at half speed counts double; processing time half.
	m := NewMeter(start, time.Second, 3*time.Second)
	m.Add(start.Add(500*ms), 5)
	m.Add(start.Add(1500*ms), 10)
	m.Add(start.Add(2500*ms), 5)
	if r, raw := m.MedianRate(sp), m.MedianRate(nil); r != 10 || raw != 5 {
		t.Errorf("median rate %v scaled, %v raw; want 10, 5", r, raw)
	}
	// Only the busy part of a window is scaled: the busy half of window
	// 0, at half speed, takes a quarter of a second at RefSpeed and the
	// rest half a second, so its 5 take 0.75 s. Window 2 is never busy
	// and keeps its raw rate.
	busy := NewMeter(start, time.Second, 3*time.Second)
	busy.AddSpan(start.Add(250*ms), start.Add(750*ms), 0.5)
	busy.Add(start.Add(1500*ms), 0.5)
	if r := m.MedianRatePart(sp, busy); math.Abs(r-5/0.75) > 1e-12 {
		t.Errorf("median rate %v with part of the windows busy, want %v", r, 5/0.75)
	}
	if r := m.MedianRatePart(sp, nil); r != 10 {
		t.Errorf("median rate %v with no busy meter, want 10 as MedianRate", r)
	}
	// A call takes the mean of the speeds around it; a missing sample (0)
	// is left out.
	for _, c := range []struct{ before, after, want float64 }{
		{RefSpeed / 2, RefSpeed / 2, 2},
		{RefSpeed / 2, RefSpeed * 3 / 2, 1},
		{0, RefSpeed / 4, 4},
		{RefSpeed, 0, 1},
		{0, 0, 1},
	} {
		if f := CallFactor(c.before, c.after); f != c.want {
			t.Errorf("CallFactor(%v, %v) = %v, want %v", c.before, c.after, f, c.want)
		}
	}

	if f := NewSpeed(start, time.Second, time.Second).Factor(start); !math.IsNaN(f) {
		t.Errorf("no sample: Factor %v, want NaN", f)
	}
	live := NewSpeed(time.Now(), time.Minute, time.Minute)
	live.Sample()
	stop := live.Run(2, ms)
	time.Sleep(20 * ms)
	stop()
	if n := len(live.all); n < 3 || !(live.Median() > 0) {
		t.Errorf("%d samples, median speed %v; want several, above 0", n, live.Median())
	}
}

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // outlives root
		{Name: "a1", Start: 12, End: 15, Parent: 1},
		{Name: "other", Start: 0, End: 7, Parent: -1},
	}
	want := []int64{100 - 40 - 10, 20 - 3, 30, 30, 3, 7}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	tot := Totals(spans)["root"]
	if tot.Count != 1 || tot.Total != 100 || tot.Self != 50 {
		t.Errorf("root totals %+v", tot)
	}
}

func TestTracerNilAndFull(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.End(nilTracer.Begin("x", -1, 0))
	if nilTracer.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}
	tr := NewTracer(1)
	tr.End(tr.Begin("kept", -1, 0))
	if id := tr.Begin("dropped", -1, 1); id != -1 {
		t.Fatalf("full tracer returned handle %d", id)
	}
	if len(tr.Spans()) != 1 || tr.Dropped() != 1 {
		t.Fatalf("%d spans, %d dropped; want 1, 1", len(tr.Spans()), tr.Dropped())
	}
}

// TestGeneratorSendPathDoesNotAllocate guards the allocation counts the
// benchmark reports: the generator's own send path adds nothing to them.
func TestGeneratorSendPathDoesNotAllocate(t *testing.T) {
	msg := make([]byte, 8178)
	send := func(int) error {
		_, err := io.Discard.Write(msg)
		return err
	}
	closed := NewClosedLoop(4, send)
	if a := testing.AllocsPerRun(1000, func() {
		if err := closed.Step(); err != nil {
			t.Fatal(err)
		}
		<-closed.Out
		closed.Done()
	}); a != 0 {
		t.Errorf("closed loop: %v allocations per send", a)
	}
	// Every send already due: the open loop never sleeps here.
	open := NewOpenLoopGenerator(NewOpenLoop(time.Now().Add(-time.Hour), 0, 2000), 4, send)
	if a := testing.AllocsPerRun(1000, func() {
		if err := open.Step(); err != nil {
			t.Fatal(err)
		}
		<-open.Out
	}); a != 0 {
		t.Errorf("open loop: %v allocations per send", a)
	}
}

func TestInterleaveSharesTimeRoundRobin(t *testing.T) {
	var order []int
	got := make([]time.Duration, 3)
	level := func(i int) func(time.Duration) error {
		return func(d time.Duration) error {
			order = append(order, i)
			got[i] += d
			return nil
		}
	}
	if err := Interleave(12*time.Second, time.Second, level(0), level(1), level(2)); err != nil {
		t.Fatal(err)
	}
	if len(order) != 12 || order[0] != 0 || order[1] != 1 || order[2] != 2 || order[3] != 0 {
		t.Errorf("order %v, want 4 rounds of 0 1 2", order)
	}
	for i, d := range got {
		if d != 4*time.Second {
			t.Errorf("level %d ran %v, want 4s", i, d)
		}
	}
}
