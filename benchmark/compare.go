package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readRuns loads the untraced records of an -out file and groups each
// end-to-end metric's values by workload.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s: a %s run was not correct (%d of %d failed): nothing to compare", path, rec.Workload, rec.Failed, rec.Attempted)
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = make(map[string][]float64)
		}
		for name, v := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], v.Value)
		}
	}
	return runs, sc.Err()
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, the change as a share of the base (the first file's median),
// each side's quartile spread as a share of its median, and a verdict.
//
//	worse       the second median is worse than the first by more than the bound
//	unresolved  a side's spread is wider than the bound, so a change of the
//	            bound's size could hide in it — unless every run of the
//	            second file reads better than every run of the first
//	ok          otherwise
//
// It reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base = median of %s; change = (second - base) / base\n", pathA)
	fmt.Fprintf(w, "%-12s %-14s %4s %14s %14s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "n", "base", "second", "change", "spreadA", "spreadB", "bound", "verdict")
	anyWorse := false
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a[wl.name][d.Name], b[wl.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			change := (mb - ma) / ma
			worsening := change
			if d.Better == "higher" {
				worsening = -change
			}
			spreadA, spreadB := (q3a-q1a)/ma, (q3b-q1b)/mb
			verdict := "ok"
			switch {
			case worsening > d.Bound:
				verdict = "worse"
				anyWorse = true
			case math.Max(spreadA, spreadB) > d.Bound && !allBetter(va, vb, d.Better):
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-12s %-14s %2d/%-2d %14.4f %14.4f %+8.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				wl.name, d.Name, len(va), len(vb), ma, mb, change*100, spreadA*100, spreadB*100, d.Bound*100, verdict)
		}
	}
	return anyWorse, nil
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(a, b []float64, better string) bool {
	minA, maxA := math.Inf(1), math.Inf(-1)
	for _, v := range a {
		minA, maxA = math.Min(minA, v), math.Max(maxA, v)
	}
	for _, v := range b {
		if better == "higher" && v <= maxA || better == "lower" && v >= minA {
			return false
		}
	}
	return true
}
