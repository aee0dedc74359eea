package sim

import (
	"testing"
	"unsafe"
)

// TestMessageLayout holds Message to six words. With the receiver and the
// two node arguments, six words are what fills the nine integer argument
// registers of Go's amd64 calling convention, so Send and Deliver take a
// message without touching the stack. A seventh field would put every
// message of every send and delivery back on it; engine-private state
// belongs in envelope instead.
func TestMessageLayout(t *testing.T) {
	const word = unsafe.Sizeof(uintptr(0))
	if got := unsafe.Sizeof(Message{}); got != 6*word {
		t.Errorf("Message is %d bytes, want 6 words (%d bytes): Send and Deliver would no longer pass it in registers", got, 6*word)
	}
}

// TestBridgeLayout holds Bridge at 264 bytes on 64-bit hosts, in the 288-byte allocation
// size class. The star9 synchronous round trip moved by 4–13 % when Bridge
// or graph.Graph changed size class, with no hot path touched: where the
// heap puts the objects allocated after them decides which of them share a
// cache line. A field added here is a change to star9-sync-counter; measure
// it, then move this figure.
func TestBridgeLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the figure is for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Bridge{}); got != 264 {
		t.Errorf("Bridge is %d bytes, want 264", got)
	}
}

// TestBridgeOpLayout holds bridgeOp to four words on 64-bit hosts. Every
// operation's record crosses its session's lane, the pump's sweep buffer
// and the grant table; the Op a Completion echoes waits in the session's
// slot table instead, so a field added here is paid three times per
// operation.
func TestBridgeOpLayout(t *testing.T) {
	const word = unsafe.Sizeof(uintptr(0))
	if word != 8 {
		t.Skip("the figure is for 64-bit hosts")
	}
	if got := unsafe.Sizeof(bridgeOp{}); got != 4*word {
		t.Errorf("bridgeOp is %d bytes, want 4 words (%d bytes)", got, 4*word)
	}
}
