package countq

import (
	"runtime/metrics"
	"time"
)

// Memory as a metric rides on runtime/metrics rather than ReadMemStats:
// reading the three counters below is a cheap sample (no stop-the-world),
// so the driver can take a before/after allocation delta around every
// phase and run a live-heap sampler *during* the phase without perturbing
// the measurement it is reporting on.
const (
	memAllocObjs  = "/gc/heap/allocs:objects"
	memAllocBytes = "/gc/heap/allocs:bytes"
	memLiveBytes  = "/memory/classes/heap/objects:bytes"
)

// memProbe holds a preallocated runtime/metrics sample set so repeated
// reads are allocation-free. A probe is not safe for concurrent use; the
// phase driver and the background sampler each own one.
type memProbe struct {
	samples []metrics.Sample
}

func newMemProbe() *memProbe {
	return &memProbe{samples: []metrics.Sample{
		{Name: memAllocObjs},
		{Name: memAllocBytes},
		{Name: memLiveBytes},
	}}
}

// read returns the cumulative allocated-object and allocated-byte counters
// and the current live-heap size. Metrics the runtime does not know (a
// hypothetical older toolchain) read as zero rather than panicking, which
// degrades the memory columns to zeros instead of taking the run down.
func (p *memProbe) read() (allocObjs, allocBytes, liveBytes uint64) {
	metrics.Read(p.samples)
	vals := [3]uint64{}
	for i := range p.samples {
		if p.samples[i].Value.Kind() == metrics.KindUint64 {
			vals[i] = p.samples[i].Value.Uint64()
		}
	}
	return vals[0], vals[1], vals[2]
}

// memPoint is one live-heap observation: bytes live at off nanoseconds
// after the phase started.
type memPoint struct {
	off   int64
	bytes int64
}

// memSamplerCap bounds the sampler's point buffer. When the buffer fills,
// the sampler thins it (keeping every other point) and doubles its
// interval — so a phase of any duration ends with at most memSamplerCap
// points and the sampler itself never allocates after construction.
const memSamplerCap = 256

// memSamplerInterval is the initial sampling cadence. With the adaptive
// thinning above it fully covers phases up to memSamplerCap×interval
// (~64ms) at this resolution and stretches gracefully beyond.
const memSamplerInterval = 250 * time.Microsecond

// memSampler records the live-heap timeline of one phase on an adaptive
// clock. Start it just before the phase's start barrier opens and stop it
// after the workers join; the folded windows share the phase's span with
// the throughput timeline.
type memSampler struct {
	probe    *memProbe
	start    time.Time
	interval time.Duration
	pts      []memPoint
	stopCh   chan struct{}
	doneCh   chan struct{}
}

// startMemSampler takes one synchronous sample (so even a sub-interval
// phase gets a point) and then samples in the background until stopped.
func startMemSampler(start time.Time) *memSampler {
	s := &memSampler{
		probe:    newMemProbe(),
		start:    start,
		interval: memSamplerInterval,
		pts:      make([]memPoint, 0, memSamplerCap),
		stopCh:   make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
	s.sample()
	// The timer is made here, before the caller's baseline read: made in
	// the goroutine, it lands in the window it measures.
	go s.loop(time.NewTimer(s.interval))
	return s
}

func (s *memSampler) sample() {
	_, _, live := s.probe.read()
	s.pts = append(s.pts, memPoint{off: time.Since(s.start).Nanoseconds(), bytes: int64(live)})
}

func (s *memSampler) loop(t *time.Timer) {
	defer close(s.doneCh)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.sample()
			if len(s.pts) == cap(s.pts) {
				// Thin in place: keep every other point, halve the rate.
				kept := s.pts[:0]
				for i := 0; i < len(s.pts); i += 2 {
					kept = append(kept, s.pts[i])
				}
				s.pts = kept
				s.interval *= 2
			}
			t.Reset(s.interval)
		}
	}
}

// stop joins the sampling goroutine and folds the points into at most
// timelineWindows live-heap windows spanning [startNs, startNs+elapsedNs)
// — the same span and slot count as the phase's throughput timeline.
func (s *memSampler) stop(startNs, elapsedNs int64) []MemWindow {
	close(s.stopCh)
	<-s.doneCh
	return foldMemTimeline(s.pts, startNs, elapsedNs)
}

// foldMemTimeline buckets live-heap points into fixed windows, keeping the
// peak observation per window. Windows without a sample inherit the last
// observed value (live heap is a continuous quantity, so carrying forward
// is more honest than reporting zero), and leading empties take the first.
func foldMemTimeline(pts []memPoint, startNs, elapsedNs int64) []MemWindow {
	if elapsedNs <= 0 || len(pts) == 0 {
		return nil
	}
	n := int64(timelineWindows)
	dur := elapsedNs / n
	if dur <= 0 {
		n, dur = 1, elapsedNs
	}
	win := make([]MemWindow, n)
	seen := make([]bool, n)
	for i := range win {
		win[i].StartNs = startNs + int64(i)*dur
		win[i].EndNs = win[i].StartNs + dur
	}
	win[n-1].EndNs = startNs + elapsedNs
	for _, pt := range pts {
		idx := pt.off / dur
		if idx < 0 {
			idx = 0
		} else if idx >= n {
			idx = n - 1
		}
		if !seen[idx] || pt.bytes > win[idx].PeakBytes {
			win[idx].PeakBytes = pt.bytes
		}
		seen[idx] = true
	}
	first := int64(0)
	for i := range win {
		if seen[i] {
			first = win[i].PeakBytes
			break
		}
	}
	last := first
	for i := range win {
		if seen[i] {
			last = win[i].PeakBytes
		} else {
			win[i].PeakBytes = last
		}
	}
	return win
}

// peakMem returns the largest live-heap observation across windows.
func peakMem(win []MemWindow) int64 {
	var peak int64
	for _, w := range win {
		if w.PeakBytes > peak {
			peak = w.PeakBytes
		}
	}
	return peak
}
