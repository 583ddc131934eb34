package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/traceview"
)

// spanStats is what one traced invocation's span log says about its
// campaigns. Durations are the program's span durations (whole ms).
type spanStats struct {
	Campaigns int
	PlanMs    float64
	ReduceMs  float64
	ExecMs    float64 // summed execute-span wall
	BusyMs    float64 // summed shard-span durations
	TailMs    float64 // summed time at the end of each execute span with a worker idle
	Runs      int     // runs attributed to shard spans
	ShardMs   []float64
	// Partition of the campaign round with the most runs.
	ShardsNonempty int
	MaxOverMean    float64
	// Subprocess or fleet dispatch only.
	DispatchShards int
	QueueMs        float64
	ExecShardMs    float64
	NetMs          float64
	GoldenHits     int
}

// analyzeSpans reads an -events-out log. workers is the invocation's
// worker count; the tail of an execute span starts when the
// workers-th latest shard ends, after which at most workers−1 shards
// are still running. A cut final line (a killed writer) is skipped.
func analyzeSpans(r io.Reader, workers int) (spanStats, error) {
	var st spanStats
	a, err := traceview.Parse(r)
	if err != nil {
		return st, err
	}
	bestRuns := -1
	for _, root := range a.Roots {
		if root.Name != "campaign" {
			continue
		}
		st.Campaigns++
		for _, ph := range root.Children {
			switch ph.Name {
			case "plan":
				st.PlanMs += float64(ph.DurMs)
			case "reduce":
				st.ReduceMs += float64(ph.DurMs)
			case "execute":
				runs, err := st.addExecute(ph, workers)
				if err != nil {
					return st, err
				}
				if runs > bestRuns {
					bestRuns = runs
					st.ShardsNonempty, st.MaxOverMean = partition(ph)
				}
			}
		}
	}
	for _, s := range a.Spans {
		if s.Name == "worker.exec" {
			st.GoldenHits += atoiAttr(s, "golden_hits")
		}
	}
	for _, p := range traceview.Stragglers(a) {
		st.DispatchShards++
		st.QueueMs += float64(p.QueueMs)
		st.ExecShardMs += float64(p.ExecMs)
		st.NetMs += float64(p.NetMs)
	}
	if st.Campaigns == 0 {
		return st, fmt.Errorf("span log holds no campaign span (%d lines, %d skipped)", a.Lines, a.Skipped)
	}
	return st, nil
}

// isShard reports whether s is one shard's execution: an in-process
// shard or a dispatched one.
func isShard(s *traceview.Span) bool { return s.Name == "shard" || s.Name == "dispatch.shard" }

// addExecute accumulates one execute span and its shards, returning the
// runs they executed.
func (st *spanStats) addExecute(ex *traceview.Span, workers int) (int, error) {
	st.ExecMs += float64(ex.DurMs)
	var ends []int64
	runs := 0
	for _, sh := range ex.Children {
		if !isShard(sh) {
			continue
		}
		n, err := strconv.Atoi(sh.Attrs["runs"])
		if err != nil {
			return 0, fmt.Errorf("shard span %d: runs attribute %q", sh.Span, sh.Attrs["runs"])
		}
		runs += n
		st.BusyMs += float64(sh.DurMs)
		st.ShardMs = append(st.ShardMs, float64(sh.DurMs))
		ends = append(ends, sh.End())
	}
	st.Runs += runs
	sort.Slice(ends, func(i, j int) bool { return ends[i] > ends[j] })
	if len(ends) >= workers {
		st.TailMs += float64(ex.End() - ends[workers-1])
	} else {
		st.TailMs += float64(ex.DurMs)
	}
	return runs, nil
}

// partition counts an execute span's non-empty shards and the ratio of
// the largest shard's runs to the mean.
func partition(ex *traceview.Span) (nonempty int, maxOverMean float64) {
	total, most := 0, 0
	for _, sh := range ex.Children {
		if !isShard(sh) {
			continue
		}
		n := atoiAttr(sh, "runs")
		if n == 0 {
			continue
		}
		nonempty++
		total += n
		if n > most {
			most = n
		}
	}
	if nonempty == 0 {
		return 0, 0
	}
	return nonempty, float64(most) / (float64(total) / float64(nonempty))
}

// atoiAttr reads an integer span attribute, 0 when absent.
func atoiAttr(s *traceview.Span, key string) int {
	n, _ := strconv.Atoi(s.Attrs[key])
	return n
}
