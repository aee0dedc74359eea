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
