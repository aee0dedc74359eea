package shm

import (
	"testing"
	"unsafe"
)

// TestHotWordLayout holds every single-hot-word structure to the
// `_ [56]byte` convention: the words written on every operation start a
// full cache line into the struct and have at least 56 bytes of guard
// after them. A heap object is at least 8-byte aligned, so no neighbouring
// object — another structure built for the same run included — can share
// their line.
func TestHotWordLayout(t *testing.T) {
	var (
		ac AtomicCounter
		mc MutexCounter
		fc FunnelCounter
		sq SwapQueue
		mq MutexQueue
		lq ListQueue
	)
	for _, c := range []struct {
		name       string
		first, end uintptr // the hot words' byte range within the struct
		size       uintptr
	}{
		{"AtomicCounter", unsafe.Offsetof(ac.v), unsafe.Offsetof(ac.v) + unsafe.Sizeof(ac.v), unsafe.Sizeof(ac)},
		{"MutexCounter", unsafe.Offsetof(mc.mu), unsafe.Offsetof(mc.v) + unsafe.Sizeof(mc.v), unsafe.Sizeof(mc)},
		{"FunnelCounter", unsafe.Offsetof(fc.v), unsafe.Offsetof(fc.v) + unsafe.Sizeof(fc.v), unsafe.Offsetof(fc.layers)},
		{"SwapQueue", unsafe.Offsetof(sq.tail), unsafe.Offsetof(sq.tail) + unsafe.Sizeof(sq.tail), unsafe.Sizeof(sq)},
		{"MutexQueue", unsafe.Offsetof(mq.mu), unsafe.Offsetof(mq.tail) + unsafe.Sizeof(mq.tail), unsafe.Sizeof(mq)},
		{"ListQueue", unsafe.Offsetof(lq.tail), unsafe.Offsetof(lq.tail) + unsafe.Sizeof(lq.tail), unsafe.Sizeof(lq)},
	} {
		if c.first < 64 {
			t.Errorf("%s: hot word at offset %d, want ≥ 64", c.name, c.first)
		}
		if after := c.size - c.end; after < 56 {
			t.Errorf("%s: %d bytes after the hot word, want ≥ 56", c.name, after)
		}
	}
}
