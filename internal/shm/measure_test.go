package shm

import (
	"context"
	"sync"
	"time"

	"repro/countq"
)

// Measurement is one throughput measurement of a counter or queuer.
type Measurement struct {
	Name       string
	Goroutines int
	Ops        int
	Elapsed    time.Duration
}

// NsPerOp reports average nanoseconds per operation.
func (m Measurement) NsPerOp() float64 {
	if m.Ops == 0 {
		return 0
	}
	return float64(m.Elapsed.Nanoseconds()) / float64(m.Ops)
}

// MeasureCounter runs goroutines×opsPerG increments against the counter and
// validates that the counts form a permutation of 1..total.
func MeasureCounter(name string, c Counter, goroutines, opsPerG int) (Measurement, error) {
	total := goroutines * opsPerG
	results := make([][]int64, goroutines)
	var wg sync.WaitGroup
	start := time.Now()
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			vals := make([]int64, opsPerG)
			for i := range vals {
				vals[i] = c.Inc()
			}
			results[gi] = vals
		}(gi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []int64
	for _, vs := range results {
		all = append(all, vs...)
	}
	// Counters that lease count blocks to shards surrender the unused
	// remainder here, so the no-gaps check sees the full range.
	if d, ok := c.(countq.Drainer); ok {
		all = append(all, d.Drain()...)
	}
	if err := ValidateCounts(all); err != nil {
		return Measurement{}, err
	}
	return Measurement{Name: name, Goroutines: goroutines, Ops: total, Elapsed: elapsed}, nil
}

// measureSessions runs goroutines×opsPerG increments, each goroutine on
// its own session of st, and validates the counts once every session has
// closed.
func measureSessions(st countq.Structure, goroutines, opsPerG int) error {
	sessions := make([]countq.Session, goroutines)
	for gi := range sessions {
		s, err := st.NewSession()
		if err != nil {
			return err
		}
		sessions[gi] = s
	}
	results := make([][]int64, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for gi, s := range sessions {
		wg.Add(1)
		go func(gi int, s countq.Session) {
			defer wg.Done()
			vals := make([]int64, opsPerG)
			for i := range vals {
				if vals[i], errs[gi] = s.Inc(context.Background()); errs[gi] != nil {
					return
				}
			}
			results[gi] = vals
			errs[gi] = s.Close()
		}(gi, s)
	}
	wg.Wait()
	var all []int64
	for gi, vs := range results {
		if errs[gi] != nil {
			return errs[gi]
		}
		all = append(all, vs...)
	}
	if d, ok := st.(countq.Drainer); ok {
		all = append(all, d.Drain()...)
	}
	return ValidateCounts(all)
}

// MeasureQueuer runs goroutines×opsPerG enqueues with globally unique ids
// and validates the resulting total order.
func MeasureQueuer(name string, q Queuer, goroutines, opsPerG int) (Measurement, error) {
	total := goroutines * opsPerG
	ids := make([][]int64, goroutines)
	preds := make([][]int64, goroutines)
	var wg sync.WaitGroup
	start := time.Now()
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			myIDs := make([]int64, opsPerG)
			myPreds := make([]int64, opsPerG)
			for i := range myIDs {
				id := int64(gi*opsPerG + i)
				myIDs[i] = id
				myPreds[i] = q.Enqueue(id)
			}
			ids[gi] = myIDs
			preds[gi] = myPreds
		}(gi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var allIDs, allPreds []int64
	for gi := range ids {
		allIDs = append(allIDs, ids[gi]...)
		allPreds = append(allPreds, preds[gi]...)
	}
	if err := ValidateOrder(allIDs, allPreds); err != nil {
		return Measurement{}, err
	}
	return Measurement{Name: name, Goroutines: goroutines, Ops: total, Elapsed: elapsed}, nil
}
