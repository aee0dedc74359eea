// Package lint is countqlint: a suite of repo-specific static analyzers
// that prove, at compile time, invariants no other gate (go vet, -race,
// the goldens, the AllocsPerRun checks, the conformance suite) catches on
// its own — hot-path allocation and clock budgets, the producer/consumer
// roles of the lock-free rings and their park/re-check protocol, exactly
// one grant per issued operation, and determinism of the simulator.
// Each analyzer earned its place by being the only gate to fail on a
// seeded violation; DESIGN.md's "Static invariants" table records which.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so each analyzer's Run is a drop-in go/analysis pass;
// the façade exists because this repository builds with the standard
// library alone. Packages are loaded the way unitchecker drives go vet:
// `go list -export -deps -json` enumerates the import graph and hands us
// gc export data for every dependency, and only the target packages are
// parsed and typechecked from source (see load.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant checker, shaped like
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in findings and -only selections.
	Name string
	// Doc is the one-paragraph description `countqlint -list` prints.
	Doc string
	// Run reports the analyzer's findings for one package via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one typechecked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding before position resolution.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is one resolved finding, the unit of human-readable and -json
// output (file/line/analyzer/message, machine-consumable like the
// benchjson artifacts).
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzers returns the countqlint suite in its canonical order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		HotPathAnalyzer,
		RingRoleAnalyzer,
		GrantLifeAnalyzer,
		SimDetAnalyzer,
	}
}

// Run applies each analyzer to each package and returns every finding,
// sorted by file, line, column and analyzer name.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			pass.report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				out = append(out, Finding{
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: a.Name,
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}
