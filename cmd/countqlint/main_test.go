package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestList prints every analyzer with its doc, and pins the exact set:
// each analyzer stays only while it is the sole gate on some seeded
// violation (DESIGN.md, "Static invariants"), so dropping or adding one
// must show up as a diff here.
func TestList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		name, doc, ok := strings.Cut(line, ": ")
		if !ok || doc == "" {
			t.Errorf("-list line %q is not \"name: doc\"", line)
		}
		names = append(names, name)
	}
	want := "hotpath,ringrole,simdet"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("-list analyzers = %s, want %s", got, want)
	}
}

// TestCleanPackage exits 0 with empty output on a package that holds every
// invariant — this very command.
func TestCleanPackage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"."}, &out, &errb); code != 0 {
		t.Fatalf("exited %d on a clean package: %s%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("expected no findings, got:\n%s", out.String())
	}
}

// TestJSONOutput emits a well-formed (possibly empty) findings array.
func TestJSONOutput(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "."}, &out, &errb); code != 0 {
		t.Fatalf("exited %d: %s", code, errb.String())
	}
	var findings []lint.Finding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not a findings array: %v\n%s", err, out.String())
	}
	if len(findings) != 0 {
		t.Errorf("expected no findings, got %d", len(findings))
	}
}

// TestOnlySelects runs just the named analyzers: a selection that
// excludes every analyzer with findings on the target must exit 0.
func TestOnlySelects(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "hotpath,simdet", "."}, &out, &errb); code != 0 {
		t.Fatalf("-only exited %d: %s%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("expected no findings, got:\n%s", out.String())
	}
}

// TestOnlyUnknown rejects an unknown name.
func TestOnlyUnknown(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "nope", "."}, &out, &errb); code != 2 {
		t.Fatalf("expected exit 2 for unknown analyzer, got %d", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr missing explanation: %s", errb.String())
	}
}

// TestUnknownAnalyzer is a usage error, distinct from lint failure, even
// when it follows a known name: the selection is refused, not truncated.
func TestUnknownAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "hotpath,nope", "."}, &out, &errb); code != 2 {
		t.Fatalf("expected exit 2 for unknown analyzer, got %d", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr missing explanation: %s", errb.String())
	}
}

// TestLoadFailure surfaces unloadable patterns as exit 2.
func TestLoadFailure(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"./does-not-exist"}, &out, &errb); code != 2 {
		t.Fatalf("expected exit 2 for a bad pattern, got %d", code)
	}
}
