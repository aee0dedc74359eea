package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestHotPathBad proves every banned construct fires: closures, defer, go,
// map ranges, make/new, escaping composites, &local into an interface,
// non-cold fmt, clock-budget overruns, malformed directives, misplaced
// directives. vet and
// staticcheck accept all of the fixture — the allocations are invisible to
// them because they are not bugs, just costs.
func TestHotPathBad(t *testing.T) {
	linttest.Run(t, "testdata/hotpath/bad", lint.HotPathAnalyzer)
}

// TestHotPathGood proves the real hot-path idioms stay clean: appends into
// reserved capacity, fmt feeding returns and panics, audited clocks=N
// budgets, and unannotated amortized helpers.
func TestHotPathGood(t *testing.T) {
	linttest.Run(t, "testdata/hotpath/good", lint.HotPathAnalyzer)
}
