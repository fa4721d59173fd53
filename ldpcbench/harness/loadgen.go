package harness

import "time"

// OpenLoop is a fixed-rate send schedule: send i is due at
// start + i·interval whatever happened to the sends before it. A stall
// in the system under test therefore does not slow the offered load —
// frames keep arriving and queue behind the stall — and timing each
// frame from its due time charges the stall to every frame that waited.
type OpenLoop struct {
	start    time.Time
	interval time.Duration
	// Late records how late the generator itself reached each send. The
	// phase measures the system only while this stays far below the
	// latencies it reports.
	Late *Latencies
}

// NewOpenLoop builds a schedule with room to record maxSends sends
// without allocating.
func NewOpenLoop(start time.Time, interval time.Duration, maxSends int) *OpenLoop {
	return &OpenLoop{start: start, interval: interval, Late: NewLatencies(maxSends)}
}

// Due returns the time send i is due.
func (o *OpenLoop) Due(i int) time.Time { return o.start.Add(time.Duration(i) * o.interval) }

// Wait blocks until send i is due, records how late it woke, and
// returns the due time. On Linux the runtime's timers wake through
// epoll's millisecond timeout, so a sleeper typically wakes up to a
// millisecond late even on an idle machine; that lateness is recorded,
// and charged to the frame's latency, which runs from the due time.
// (Sleeping in nanosleep wakes on time but holds the thread's processor
// until the runtime notices, which on two cores stalls the system under
// test far worse.)
func (o *OpenLoop) Wait(i int) time.Time {
	due := o.Due(i)
	now := time.Now()
	if d := due.Sub(now); d > 0 {
		time.Sleep(d)
		now = time.Now()
	}
	o.Late.Add(now, now.Sub(due))
	return due
}

// Inflight is one send's record, handed from a sender to the receiver
// that will see its answer. Due equals Sent in closed loop.
type Inflight struct {
	Seq       int
	Due, Sent time.Time
}

// Generator drives one sender in open or closed loop. Each Step waits
// for the next send's turn — its due time on an open-loop schedule, or
// a free slot of the in-flight window in closed loop — performs the
// send, and passes its record to the receiver on Out. The receiver
// returns window slots with Done. Nothing on this path allocates, so
// the generator never perturbs the allocation counts it is measuring.
type Generator struct {
	// Out carries send records in send order; its capacity bounds how
	// many records may wait for the receiver.
	Out chan Inflight

	loop   *OpenLoop
	window chan struct{}
	send   func(seq int) error
	next   int
}

// NewClosedLoop returns a generator keeping at most window sends in
// flight.
func NewClosedLoop(window int, send func(seq int) error) *Generator {
	return &Generator{
		Out:    make(chan Inflight, window),
		window: make(chan struct{}, window),
		send:   send,
	}
}

// NewOpenLoopGenerator returns a generator sending on the schedule;
// maxPending bounds the records waiting for the receiver, after which
// the sender blocks and its lateness shows in loop.Late.
func NewOpenLoopGenerator(loop *OpenLoop, maxPending int, send func(seq int) error) *Generator {
	return &Generator{Out: make(chan Inflight, maxPending), loop: loop, send: send}
}

// Step performs the next send.
func (g *Generator) Step() error {
	seq := g.next
	g.next++
	var due time.Time
	if g.loop != nil {
		due = g.loop.Wait(seq)
	} else {
		g.window <- struct{}{}
	}
	sent := time.Now()
	if g.loop == nil {
		due = sent
	}
	if err := g.send(seq); err != nil {
		return err
	}
	g.Out <- Inflight{Seq: seq, Due: due, Sent: sent}
	return nil
}

// Done returns one window slot; a no-op in open loop.
func (g *Generator) Done() {
	if g.window != nil {
		<-g.window
	}
}

// Sent returns the number of sends performed.
func (g *Generator) Sent() int { return g.next }
