package core

import (
	"fmt"
	"sort"
	"strings"
)

// Timelines of simulator runs render as text Gantt charts — one row per
// operation, scaled to rounds — so protocol behavior (chasing, batching,
// token serialisation) can be inspected directly from the terminal.

// Span is one operation's visible lifetime: issued at Start, completed at
// End (inclusive bounds in rounds), with optional phase marks in between.
type Span struct {
	Label      string
	Start, End int
	Marks      []Mark // optional instants inside the span
}

// Mark is a labeled instant within a span, drawn with its own rune.
type Mark struct {
	Round int
	Rune  rune
}

// Timeline is a collection of spans to be rendered together.
type Timeline struct {
	Title string
	Spans []Span
}

// Add appends a span.
func (tl *Timeline) Add(label string, start, end int, marks ...Mark) {
	tl.Spans = append(tl.Spans, Span{Label: label, Start: start, End: end, Marks: marks})
}

// MaxRound returns the largest round across all spans.
func (tl *Timeline) MaxRound() int {
	max := 0
	for _, s := range tl.Spans {
		if s.End > max {
			max = s.End
		}
		for _, m := range s.Marks {
			if m.Round > max {
				max = m.Round
			}
		}
	}
	return max
}

// Render draws the timeline with the given chart width in characters
// (minimum 10). Rows are sorted by start round; each row shows
// `label |––––█|` with '·' before issue, '─' during the span, and mark
// runes at their instants. A round ruler is printed underneath.
func (tl *Timeline) Render(width int) string {
	if width < 10 {
		width = 10
	}
	maxRound := tl.MaxRound()
	if maxRound == 0 {
		maxRound = 1
	}
	scale := func(round int) int {
		col := round * (width - 1) / maxRound
		if col >= width {
			col = width - 1
		}
		return col
	}
	spans := append([]Span(nil), tl.Spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })

	labelWidth := 0
	for _, s := range spans {
		if len(s.Label) > labelWidth {
			labelWidth = len(s.Label)
		}
	}
	var b strings.Builder
	if tl.Title != "" {
		fmt.Fprintf(&b, "%s (rounds 0–%d)\n", tl.Title, maxRound)
	}
	for _, s := range spans {
		row := make([]rune, width)
		for i := range row {
			row[i] = ' '
		}
		from, to := scale(s.Start), scale(s.End)
		for i := from; i <= to; i++ {
			row[i] = '─'
		}
		row[from] = '├'
		row[to] = '┤'
		if from == to {
			row[from] = '│'
		}
		for _, m := range s.Marks {
			row[scale(m.Round)] = m.Rune
		}
		fmt.Fprintf(&b, "%-*s %s\n", labelWidth, s.Label, string(row))
	}
	// Ruler.
	ruler := make([]rune, width)
	for i := range ruler {
		ruler[i] = '.'
	}
	b.WriteString(strings.Repeat(" ", labelWidth+1))
	b.WriteString(string(ruler))
	b.WriteByte('\n')
	b.WriteString(strings.Repeat(" ", labelWidth+1))
	fmt.Fprintf(&b, "0%*d\n", width-1, maxRound)
	return b.String()
}
