package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
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

func TestWorkloadHelpers(t *testing.T) {
	req := allRequests(5)
	if len(requestList(req)) != 5 {
		t.Error("allRequests not all")
	}
	ht := heapTree(10)
	if ht.N() != 10 || ht.MaxDegree() > 3 {
		t.Errorf("heap tree shape: n=%d deg=%d", ht.N(), ht.MaxDegree())
	}
	pt := identityPathTree(6)
	if pt.Height() != 5 {
		t.Errorf("path tree height = %d", pt.Height())
	}
}
