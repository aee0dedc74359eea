package core

import (
	"strings"
	"testing"
)

func TestRenderBasic(t *testing.T) {
	tl := &Timeline{Title: "demo"}
	tl.Add("op0", 0, 10)
	tl.Add("op1", 5, 20, Mark{Round: 15, Rune: '*'})
	out := tl.Render(40)
	for _, want := range []string{"demo (rounds 0–20)", "op0", "op1", "*", "├", "┤"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// op0 sorts first (earlier start).
	if strings.Index(out, "op0") > strings.Index(out, "op1") {
		t.Error("rows not sorted by start")
	}
}

func TestRenderZeroLengthSpan(t *testing.T) {
	tl := &Timeline{}
	tl.Add("instant", 3, 3)
	out := tl.Render(20)
	if !strings.Contains(out, "│") {
		t.Errorf("zero-length span should render as │:\n%s", out)
	}
}

func TestRenderEmptyTimeline(t *testing.T) {
	tl := &Timeline{Title: "empty"}
	out := tl.Render(20)
	if !strings.Contains(out, "0") {
		t.Errorf("ruler missing:\n%s", out)
	}
}

func TestRenderClampsWidth(t *testing.T) {
	tl := &Timeline{}
	tl.Add("x", 0, 100)
	out := tl.Render(1) // clamped to 10
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if n := len([]rune(lines[0])); n > 15 {
		t.Errorf("width clamp failed: %d columns in %q", n, lines[0])
	}
}

func TestMaxRoundIncludesMarks(t *testing.T) {
	tl := &Timeline{}
	tl.Add("x", 0, 5, Mark{Round: 9, Rune: '!'})
	if tl.MaxRound() != 9 {
		t.Errorf("MaxRound = %d, want 9", tl.MaxRound())
	}
}

func TestScaleMonotone(t *testing.T) {
	tl := &Timeline{}
	tl.Add("a", 0, 1000)
	tl.Add("b", 500, 700)
	out := tl.Render(60)
	// Column of b's start must be to the right of a's start and left of
	// the chart end; approximate by checking rune positions.
	lines := strings.Split(out, "\n")
	var aLine, bLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "a ") {
			aLine = l
		}
		if strings.HasPrefix(l, "b ") {
			bLine = l
		}
	}
	if aLine == "" || bLine == "" {
		t.Fatalf("rows missing:\n%s", out)
	}
	if strings.IndexRune(bLine, '├') <= strings.IndexRune(aLine, '├') {
		t.Error("later span does not start further right")
	}
}
