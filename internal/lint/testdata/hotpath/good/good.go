// Package good mirrors the real hot-path idioms the analyzer must accept:
// appends into capacity reserved by a deliberately-unannotated amortized
// helper, fmt on the cold return/panic paths, an audited clock budget, and
// allocation-heavy code in functions that simply are not annotated.
package good

import (
	"errors"
	"fmt"
	"time"
)

type lane struct {
	buf []int
}

// reserve is the amortized slow path: unannotated on purpose, so it may
// allocate freely — the same split countq's laneRunner uses.
func (l *lane) reserve(n int) {
	if cap(l.buf)-len(l.buf) < n {
		grown := make([]int, len(l.buf), 2*cap(l.buf)+n)
		copy(grown, l.buf)
		l.buf = grown
	}
}

//countq:hotpath
func (l *lane) push(v int) error {
	if cap(l.buf) == len(l.buf) {
		return fmt.Errorf("lane full at %d", len(l.buf)) // cold path: feeds the return
	}
	l.buf = append(l.buf, v) // append into reserved capacity is fine
	return nil
}

//countq:hotpath
func (l *lane) at(i int) int {
	if i >= len(l.buf) {
		panic(fmt.Sprintf("index %d out of %d", i, len(l.buf))) // cold path: feeds a panic
	}
	return l.buf[i]
}

//countq:hotpath clocks=2
func (l *lane) stamp() time.Duration {
	begin := time.Now()
	l.buf = append(l.buf, 0)
	return time.Since(begin) // second clock site, declared by clocks=2
}

type point struct{ x, y int }

//countq:hotpath
func mid(a, b point) point {
	p := point{x: (a.x + b.x) / 2, y: (a.y + b.y) / 2} // stays concrete: no boxing
	return p
}

// unannotated code allocates however it likes.
func batch(vs []int) func() []lane {
	return func() []lane {
		out := make([]lane, 0, len(vs))
		for range vs {
			out = append(out, lane{})
		}
		return out
	}
}

// constJoin is folded at compile time: no runtime concatenation happens.
//
//countq:hotpath
func constJoin() string {
	const prefix = "count" + "q"
	return prefix
}

//countq:hotpath
func coldJoin(l *lane, what string) error {
	if cap(l.buf) == len(l.buf) {
		return errors.New("lane full: " + what) // cold path: feeds the return
	}
	l.buf = append(l.buf, 0)
	return nil
}

//countq:hotpath
func coldJoinPanic(l *lane, what string) {
	if cap(l.buf) == len(l.buf) {
		panic("lane full: " + what) // cold path: feeds a panic
	}
	l.buf = append(l.buf, 0)
}

// spreadCold batches however it likes — it is an unannotated amortized
// helper.
func spreadCold(l *lane, vals []int) {
	l.reserve(len(vals))
	l.buf = append(l.buf, vals...)
}

var hits int

func bumpInt(p *int) { *p++ }

// addrConcrete takes addresses the compiler keeps where they are: a local
// passed as a concrete *int, a package-level variable boxed into an
// interface (it is static already), and an element of a slice the caller
// owns.
//
//countq:hotpath
func addrConcrete(l *lane, sink func(any)) int {
	n := len(l.buf)
	bumpInt(&n)
	sink(&hits)
	bumpInt(&l.buf[0])
	return n
}
