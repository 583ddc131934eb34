package main

import (
	"math"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Values of Python's statistics.quantiles(xs, n=4), the spread the
	// benchmark's acceptance is computed with.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25}, 0.6875, 4.0625},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSummarize(t *testing.T) {
	out := `provenance {"workload":"perm","seed":1,"seconds":20,"traced":false,"commit":"abc","dirty":"false","cpu_model":"X","nproc":2,"gomaxprocs":2,"go_version":"go1.24.0","serial_sha256":"d1","host_steal_frac":0.1}
campaign_s 2 s
{"correct":true,"attempted":6,"failed":0,"metrics":{"campaign_s":{"value":2,"unit":"s"}}}
provenance {"workload":"perm","seed":2,"seconds":20,"traced":false,"serial_sha256":"d2","host_steal_frac":0.3}
{"correct":true,"attempted":6,"failed":0,"metrics":{"campaign_s":{"value":4,"unit":"s"}}}
provenance {"workload":"perm","seed":1,"seconds":20,"traced":true,"serial_sha256":"d1"}
{"correct":true,"attempted":3,"failed":1,"metrics":{"sut.acquire_us":{"value":15,"unit":"us"}}}
`
	b, err := summarize(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if b.Commit != "abc" || b.Seconds != 20 || b.Machine["cpu_model"] != "X" {
		t.Errorf("descriptor = %+v", b)
	}
	w := b.Workloads["perm"]
	if w == nil {
		t.Fatal("no perm summary")
	}
	if w.Attempted != 15 || w.Failed != 1 || len(w.Seeds) != 2 {
		t.Errorf("counts = %d attempted, %d failed, seeds %v", w.Attempted, w.Failed, w.Seeds)
	}
	s := w.EndToEnd["campaign_s"]
	if s.N != 2 || s.Median != 3 || s.Unit != "s" || s.Q1 != 1.5 || s.Q3 != 4.5 || s.Spread != 1 {
		t.Errorf("campaign_s summary = %+v", s)
	}
	if v := w.PerLayer["sut.acquire_us"]; v.Value != 15 || v.Unit != "us" {
		t.Errorf("per-layer summary = %+v", v)
	}
	if math.Abs(w.HostStealFrac-0.2) > 1e-12 {
		t.Errorf("host steal = %v, want the median 0.2 of the untraced runs", w.HostStealFrac)
	}
	if len(w.Digests) != 2 || w.Digests["1"] != "d1" || w.Digests["2"] != "d2" {
		t.Errorf("digests = %v", w.Digests)
	}
	for _, bad := range []string{
		// Two runs of one seed disagree.
		`provenance {"workload":"perm","seed":1,"serial_sha256":"d1"}
{"correct":true,"attempted":1,"failed":0,"metrics":{}}
provenance {"workload":"perm","seed":1,"traced":true,"serial_sha256":"d9"}
{"correct":true,"attempted":1,"failed":0,"metrics":{}}`,
	} {
		if _, err := summarize(strings.NewReader(bad)); err == nil {
			t.Errorf("summarize accepted disagreeing digests:\n%s", bad)
		}
	}
	if _, err := summarize(strings.NewReader(`{"correct":true,"attempted":1,"failed":0,"metrics":{}}`)); err == nil {
		t.Error("a result without provenance was accepted")
	}
	if _, err := summarize(strings.NewReader("nothing here\n")); err == nil {
		t.Error("an input without results was accepted")
	}
}
