package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles prints, for every workload two -out files share and every
// end-to-end metric, both medians, how much worse (+) or better (−) the
// second is as a share of the first, and the metric's bound. It is the tool
// for "two sets of runs of the same code agree" and for parent-versus-change
// runs.
//
// A row is REGRESSED when the second median is worse by more than the
// bound, and unresolved when it is not but the repeats of either side
// spread (interquartile range over median) wider than the bound — then the
// sets cannot tell a change of that size from none. The exit code is 1 when
// any row regressed, 0 otherwise.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var reps [2]*report
	for i, path := range []string{pathA, pathB} {
		var err error
		if reps[i], err = readReport(path); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	return compareReports(reps[0], reps[1], stdout)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func compareReports(a, b *report, stdout io.Writer) int {
	if a.Host.SpinScore > 0 && math.Abs(b.Host.SpinScore/a.Host.SpinScore-1) > 0.1 {
		fmt.Fprintf(stdout, "warning: host spin scores differ (%.1f vs %.1f Miter/s): the two sets may come from different machines\n",
			a.Host.SpinScore, b.Host.SpinScore)
	}
	fmt.Fprintf(stdout, "%-20s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	regressed, rows := 0, 0
	for _, ra := range a.Workloads {
		var rb *result
		for i := range b.Workloads {
			if b.Workloads[i].Name == ra.Name {
				rb = &b.Workloads[i]
			}
		}
		if rb == nil {
			continue
		}
		for _, def := range endToEnd {
			va, vb := ra.Metrics[def.Name], rb.Metrics[def.Name]
			worse, verdict := judge(def, va, vb)
			if verdict == "REGRESSED" {
				regressed++
			}
			rows++
			fmt.Fprintf(stdout, "%-20s %-20s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				ra.Name, def.Name, va.Value, vb.Value, 100*worse, 100*def.Bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "%d rows, %d regressed\n", rows, regressed)
	if rows == 0 || regressed > 0 {
		return 1
	}
	return 0
}

// judge returns how much worse b reads than a, as a share of a (negative
// when b is better), and the row's verdict.
func judge(def metricDef, a, b metricValue) (worse float64, verdict string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / math.Abs(a.Value)
	}
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > def.Bound:
		return worse, "REGRESSED"
	case spread(a.Repeats) > def.Bound || spread(b.Repeats) > def.Bound:
		return worse, "unresolved"
	}
	return worse, "ok"
}
