// Package bad seeds one violation of every construct the hotpath analyzer
// bans, so the test proves each rule fires. Everything here typechecks —
// the point is that `go build` and vet accept all of it.
package bad

import (
	"fmt"
	"sync"
	"time"
)

type ring struct {
	buf  []int
	vals map[string]int
}

var sink interface{}

func work() {}

//countq:hotpath
func hotClosure() int {
	inc := func(x int) int { return x + 1 } // want "closure in a //countq:hotpath function"
	return inc(1)
}

//countq:hotpath
func hotDefer() {
	defer work() // want "defer in a //countq:hotpath function"
}

//countq:hotpath
func hotGo() {
	go work() // want "go statement in a //countq:hotpath function"
}

//countq:hotpath
func hotMapRange(r *ring) int {
	t := 0
	for _, v := range r.vals { // want "map iteration in a //countq:hotpath function"
		t += v
	}
	return t
}

//countq:hotpath
func hotMake() {
	c := make(chan int, 1) // want `make\(channel\) in a //countq:hotpath function`
	_ = c
	m := make(map[string]int) // want `make\(map\) in a //countq:hotpath function`
	_ = m
	s := make([]int, 8) // want `make\(slice\) in a //countq:hotpath function`
	_ = s
	p := new(ring) // want `new\(\.\.\.\) in a //countq:hotpath function`
	_ = p
}

//countq:hotpath
func hotAddr() *ring {
	return &ring{} // want "&composite literal in a //countq:hotpath function"
}

//countq:hotpath
func hotBox() {
	sink = ring{} // want "composite literal escapes to interface"
}

var pool sync.Pool

// hotRepool hands the pool a pointer to a local and to a parameter: both
// escape through the interface argument, so both move to the heap.
//
//countq:hotpath
func hotRepool(shard int) {
	idx := shard + 1
	pool.Put(&idx) // want "&idx escapes to interface any in a //countq:hotpath function"
	sink = &shard  // want "&shard escapes to interface interface\\{\\} in a //countq:hotpath function"
}

//countq:hotpath
func hotFmt(n int) string {
	s := fmt.Sprintf("n=%d", n) // want `fmt\.Sprintf outside a return/panic`
	return s
}

//countq:hotpath
func hotClocks() time.Duration {
	a := time.Now()
	b := time.Now() // want `time\.Now call site 2 exceeds the //countq:hotpath clock budget of 1`
	return b.Sub(a)
}

//countq:hotpath clocks=2 spin=4
func hotBadArg() {} // want `unknown //countq:hotpath argument "spin=4"`

//countq:hotpath clocks=zero
func hotBadBudget() {} // want "malformed //countq:hotpath clock budget"

//countq:hotpath
func hotBodyless() int // want "//countq:hotpath on a bodyless declaration"

func cold() {
	//countq:hotpath want "misplaced //countq:hotpath"
	_ = 1
}

//countq:hotpath
func hotSpread(r *ring, vals []int) {
	r.buf = append(r.buf, vals...) // want `append\(s, v\.\.\.\) in a //countq:hotpath function`
}

//countq:hotpath
func hotConcat(a, b string) string {
	joined := a + b // want "string concatenation in a //countq:hotpath function"
	return joined
}

//countq:hotpath
func hotConcatChain(a, b, c string) string {
	joined := a + b + c // want "string concatenation in a //countq:hotpath function"
	return joined
}

//countq:hotpath
func hotConcatAssign(tag string) string {
	out := tag
	out += "!" // want `string \+= concatenation in a //countq:hotpath function`
	return out
}
