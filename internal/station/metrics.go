package station

import (
	"sync/atomic"
)

// Metrics is the pipeline's live per-stage instrumentation, updated
// with atomics and reported through the same HTTP surface as the
// decode service (serve.HTTPMux, in ldpcstation -http).
type Metrics struct {
	samplesIn atomic.Int64

	locks     atomic.Int64 // searching → locked transitions
	unlocks   atomic.Int64 // flywheel overruns back to searching
	slips     atomic.Int64 // markers accepted off the expected position
	slipBits  atomic.Int64 // |bits| of framing-clock correction applied
	rotations atomic.Int64 // phase-ambiguity corrections resolved
	flywheel  atomic.Int64 // markers missed and coasted through

	framesAligned  atomic.Int64 // frames the synchronizer emitted
	framesFlywheel atomic.Int64 // of which without marker confirmation

	cadusEmitted  atomic.Int64 // syndrome-verified CADUs delivered
	cadusRejected atomic.Int64 // frames dropped on syndrome failure
	decodeErrors  atomic.Int64 // frames the decode path errored on

	state atomic.Int64 // current State, as a gauge
}

// Snapshot is a point-in-time copy of the metrics, JSON-encodable for a
// /metrics endpoint.
type Snapshot struct {
	SamplesIn int64 `json:"samples_in"`

	State              string  `json:"state"`
	Locks              int64   `json:"locks"`
	Unlocks            int64   `json:"unlocks"`
	SlipsCorrected     int64   `json:"slips_corrected"`
	SlipBitsCorrected  int64   `json:"slip_bits_corrected"`
	RotationsResolved  int64   `json:"rotations_resolved"`
	FlywheelMisses     int64   `json:"flywheel_misses"`
	FramesAligned      int64   `json:"frames_aligned"`
	FramesFlywheel     int64   `json:"frames_flywheel"`
	CadusEmitted       int64   `json:"cadus_emitted"`
	CadusRejected      int64   `json:"cadus_rejected"`
	DecodeErrors       int64   `json:"decode_errors"`
	CaduRejectFraction float64 `json:"cadu_reject_fraction"`
}

// Snapshot captures the current metric values.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		SamplesIn:         m.samplesIn.Load(),
		State:             State(m.state.Load()).String(),
		Locks:             m.locks.Load(),
		Unlocks:           m.unlocks.Load(),
		SlipsCorrected:    m.slips.Load(),
		SlipBitsCorrected: m.slipBits.Load(),
		RotationsResolved: m.rotations.Load(),
		FlywheelMisses:    m.flywheel.Load(),
		FramesAligned:     m.framesAligned.Load(),
		FramesFlywheel:    m.framesFlywheel.Load(),
		CadusEmitted:      m.cadusEmitted.Load(),
		CadusRejected:     m.cadusRejected.Load(),
		DecodeErrors:      m.decodeErrors.Load(),
	}
	if t := s.CadusEmitted + s.CadusRejected; t > 0 {
		s.CaduRejectFraction = float64(s.CadusRejected) / float64(t)
	}
	return s
}

// recordEvent folds a synchronizer transition into the counters.
func (m *Metrics) recordEvent(e Event) {
	switch e.Kind {
	case EventLock:
		m.locks.Add(1)
	case EventUnlock:
		m.unlocks.Add(1)
	case EventSlip:
		m.slips.Add(1)
		d := int64(e.DeltaBits)
		if d < 0 {
			d = -d
		}
		m.slipBits.Add(d)
	case EventRotation:
		m.rotations.Add(1)
	case EventFlywheel:
		m.flywheel.Add(1)
	}
}
