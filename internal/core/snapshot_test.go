package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateSnapshots = flag.Bool("update", false, "rewrite the quick-table snapshots")

// TestQuickTablesSnapshot pins the rendered -quick table of every
// deterministic experiment byte for byte: a refactor of the protocols or
// the engine under them must print the same numbers. E11 times goroutines
// on the host and is excluded. Snapshots are append-only; regenerate with
//
//	go test ./internal/core -run TestQuickTablesSnapshot -update
//
// only after an intentional, reviewed change to an experiment.
func TestQuickTablesSnapshot(t *testing.T) {
	for _, spec := range Experiments() {
		spec := spec
		if spec.ID == "E11" {
			continue
		}
		t.Run(spec.ID, func(t *testing.T) {
			tbl, err := spec.Run(Config{Quick: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			got := tbl.Render()
			path := filepath.Join("testdata", "quick", spec.ID+".txt")
			if *updateSnapshots {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing snapshot (run with -update to capture): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s -quick table changed:\n--- got\n%s--- want\n%s", spec.ID, got, want)
			}
		})
	}
}
