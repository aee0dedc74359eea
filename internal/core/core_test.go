package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/tree"
)

// TestAllExperimentsQuick runs the entire experiment suite in quick mode.
// Each experiment validates its own paper-derived invariants internally
// (measured ≥ lower bound, arrow ≤ 2·NNTSP, counting > queuing on the
// separating topologies, quadratic star, …) and returns an error on any
// violation, so this is the end-to-end reproduction check.
func TestAllExperimentsQuick(t *testing.T) {
	for _, spec := range Experiments() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			tbl, err := spec.Run(Config{Quick: true, Seed: 1})
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: empty table", spec.ID)
			}
			if tbl.ID != spec.ID {
				t.Errorf("table ID %q != spec ID %q", tbl.ID, spec.ID)
			}
			out := tbl.Render()
			if !strings.Contains(out, spec.ID) {
				t.Errorf("render missing ID: %s", out)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Errorf("%s: row width %d != %d columns", spec.ID, len(row), len(tbl.Columns))
				}
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if Lookup("e3") == nil || Lookup("E3") == nil {
		t.Error("case-insensitive lookup failed")
	}
	if Lookup("E99") != nil {
		t.Error("phantom experiment found")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID: "T", Title: "test", Ref: "ref",
		Columns: []string{"a", "long-column"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("wide-cell", "3")
	tbl.AddNote("note %d", 42)
	out := tbl.Render()
	for _, want := range []string{"T — test (ref)", "long-column", "wide-cell", "note: note 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestCompareOnDeterministic renders the queuing-versus-counting table that
// `countq topo` prints twenty times: one row per counting protocol, in the
// same order every time.
func TestCompareOnDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 20; i++ {
		tbl, err := CompareOn(graph.Mesh(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		out := tbl.Render()
		if i == 0 {
			first = out
		} else if out != first {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", i, out, first)
		}
	}
}

// TestCompareOnCountsFromTheCentre pins what rooting the counting tree at
// a centre buys `countq topo`: the best counter's total delay with every
// node requesting, from node 0 (an end of the list, a corner of the mesh)
// and from the centre tree.ForCounting picks.
func TestCompareOnCountsFromTheCentre(t *testing.T) {
	for _, c := range []struct {
		g              *graph.Graph
		corner, centre string
	}{
		{graph.Path(64), "6048", "3104"},
		{graph.Mesh(8, 8), "1393", "945"},
	} {
		bfs0, err := tree.BFSTree(c.g, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, total, _, err := countingPortfolio(c.g, bfs0, allRequests(c.g.N()))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(total); got != c.corner {
			t.Errorf("%s from node 0: best C_C %s, want %s", c.g.Name(), got, c.corner)
		}
		tbl, err := CompareOn(c.g)
		if err != nil {
			t.Fatal(err)
		}
		best := ""
		for _, row := range tbl.Rows {
			if strings.HasPrefix(row[0], "C_C best") {
				best = row[1]
			}
		}
		if best != c.centre {
			t.Errorf("%s: CompareOn's best C_C %q, want %s", c.g.Name(), best, c.centre)
		}
	}
}

func TestWorkloadHelpers(t *testing.T) {
	req := allRequests(5)
	if len(requestList(req)) != 5 {
		t.Error("allRequests not all")
	}
}
