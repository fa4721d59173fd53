package harness

import "time"

// Meter accumulates work done over a measured window in fixed-width
// sub-windows, so a rate can be reported as the median over them. On a
// shared host a slow spell then moves the reported rate only when it
// covers half the window, where it drags a plain average along with
// whatever share of the window it covers.
type Meter struct {
	start time.Time
	width time.Duration
	bins  []float64
}

// NewMeter covers [start, start+span) in whole windows of width; work
// done after the last whole window is not counted.
func NewMeter(start time.Time, width, span time.Duration) *Meter {
	return &Meter{start: start, width: width, bins: make([]float64, max(int(span/width), 1))}
}

// Add counts amount as done at t.
func (m *Meter) Add(t time.Time, amount float64) {
	if i := int(t.Sub(m.start) / m.width); i >= 0 && i < len(m.bins) {
		m.bins[i] += amount
	}
}

// AddSpan spreads amount evenly over [from, to), as work done at a
// steady pace through a call.
func (m *Meter) AddSpan(from, to time.Time, amount float64) {
	d := to.Sub(from)
	if d <= 0 {
		m.Add(from, amount)
		return
	}
	lo, hi := from.Sub(m.start), to.Sub(m.start)
	for i := max(int(lo/m.width), 0); i < len(m.bins) && time.Duration(i)*m.width < hi; i++ {
		bs, be := time.Duration(i)*m.width, time.Duration(i+1)*m.width
		overlap := min(be, hi) - max(bs, lo)
		m.bins[i] += amount * float64(overlap) / float64(d)
	}
}

// MedianRate returns the median over the windows of work per second.
// With sp, each window's work is first scaled to RefSpeed by sp's factor
// for it; sp must cover the same windows.
func (m *Meter) MedianRate(sp *Speed) float64 { return m.MedianRatePart(sp, nil) }

// MedianRatePart is MedianRate for work of which only a part runs at the
// speed sp tracks: busy holds the seconds spent in that part in each of
// the same windows, and only they are scaled to RefSpeed; the rest of a
// window counts as it was. A nil busy scales the whole window.
func (m *Meter) MedianRatePart(sp *Speed, busy *Meter) float64 {
	w := m.width.Seconds()
	v := make([]float64, len(m.bins))
	for i, amount := range m.bins {
		t := w
		if sp != nil {
			f := sp.Factor(m.start.Add(time.Duration(i)*m.width + m.width/2))
			b := w
			if busy != nil {
				b = min(busy.bins[i], w)
			}
			t = w - b + b/f
		}
		v[i] = amount / t
	}
	return Median(v)
}
