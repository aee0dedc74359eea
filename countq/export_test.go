package countq

// CheckParamsRead exports checkParamsRead to the external conformance
// suite, which holds the real backends' entries to their declarations.
var CheckParamsRead = checkParamsRead

// AllocsPerOp gives the external conformance suite's cost gate the same
// exact allocation count as the runner's gates.
var AllocsPerOp = allocsPerOp

// DropRecycled empties the stores that recycle runs' logs, as two
// collections do.
func DropRecycled() {
	logStore.mu.Lock()
	logStore.free = nil
	logStore.mu.Unlock()
	scratchStore.mu.Lock()
	scratchStore.free = nil
	scratchStore.mu.Unlock()
}
