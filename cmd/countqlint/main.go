// Command countqlint runs the repo's custom static analyzer suite
// (internal/lint) over the packages matching the given patterns.
//
// Usage:
//
//	countqlint [-json] [-list] [-only a,b] [patterns ...]
//
// Patterns default to ./... so the bare invocation audits the whole
// module, the way CI runs it between staticcheck and the build. -only
// restricts the run to the named analyzers. Exit status: 0 when every
// invariant holds, 1 when there are findings, 2 when the tree does not
// load (a package fails to compile, a pattern matches nothing).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("countqlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array of {file,line,col,analyzer,message}")
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := lint.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := all
	if *only != "" {
		byName := make(map[string]*lint.Analyzer, len(all))
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "countqlint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "countqlint: %v\n", err)
		return 2
	}
	findings, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "countqlint: %v\n", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "countqlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
