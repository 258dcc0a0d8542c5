package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns writes one -out file of kv_read runs whose ops_s and lc_tail_ratio
// take the given values and whose other metrics are constant.
func writeRuns(t *testing.T, name string, ops, p99 []float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	for i := range ops {
		rec := record{Workload: "kv_read", result: result{Correct: true, Attempted: 1, Metrics: map[string]value{}}}
		for _, d := range endToEnd {
			rec.Metrics[d.Name] = value{Value: 100, Unit: d.Unit}
		}
		rec.Metrics["ops_s"] = value{Value: ops[i], Unit: "ops/s"}
		rec.Metrics["lc_tail_ratio"] = value{Value: p99[i], Unit: "ratio"}
		if err := appendLine(path, mustJSON(rec)); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	base := writeRuns(t, "base", []float64{1000, 1010, 990, 1005, 995}, steady)
	verdict := func(out, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] == "kv_read" && f[1] == metric {
				return f[len(f)-1]
			}
		}
		t.Fatalf("no row for %s in:\n%s", metric, out)
		return ""
	}
	for _, c := range []struct {
		name     string
		ops, p99 []float64
		wantOps  string
		wantP99  string
		anyWorse bool
	}{
		{"same", []float64{1001, 1009, 992, 1004, 996}, steady, "ok", "ok", false},
		// Higher is better for ops_s: 30 % lower is worse, 20 % higher is not.
		{"slower", []float64{700, 705, 695, 702, 698}, steady, "worse", "ok", true},
		{"faster", []float64{1200, 1210, 1190, 1205, 1195}, steady, "ok", "ok", false},
		// Lower is better for lc_tail_ratio, and a spread wider than the bound
		// with overlapping runs resolves nothing.
		{"noisy tail", steady10(1000), []float64{60, 140, 100, 150, 70}, "ok", "unresolved", false},
		// The same wide spread, but every run better than every base run.
		{"noisy but all better", steady10(1000), []float64{30, 60, 45, 70, 35}, "ok", "ok", false},
	} {
		var buf bytes.Buffer
		worse, err := compareFiles(&buf, base, writeRuns(t, "second", c.ops, c.p99))
		if err != nil {
			t.Fatal(err)
		}
		if got := verdict(buf.String(), "ops_s"); got != c.wantOps {
			t.Errorf("%s: ops_s verdict %s, want %s\n%s", c.name, got, c.wantOps, buf.String())
		}
		if got := verdict(buf.String(), "lc_tail_ratio"); got != c.wantP99 {
			t.Errorf("%s: lc_tail_ratio verdict %s, want %s\n%s", c.name, got, c.wantP99, buf.String())
		}
		if worse != c.anyWorse {
			t.Errorf("%s: any worse = %v, want %v", c.name, worse, c.anyWorse)
		}
	}
}

func steady10(v float64) []float64 { return []float64{v, v + 1, v - 1, v + 2, v - 2} }

func TestCompareRefusesIncorrectRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad")
	rec := record{Workload: "kv_read", result: result{Correct: false, Attempted: 10, Failed: 1}}
	if err := appendLine(path, mustJSON(rec)); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(&bytes.Buffer{}, path, path); err == nil {
		t.Fatal("compared a file holding an incorrect run")
	}
}
