package main

import (
	"math"
	"strings"
	"syscall"
	"testing"
	"time"
)

const benchFixture = `{
  "seed": 3,
  "workers": 2,
  "campaigns": [
    {"campaign": "internal-coverage", "runs": 725, "wall_s": 1.5, "runs_per_sec": 483.3,
     "runs_planned": 1125, "runs_executed": 725, "runs_saved": 400, "shard_p50_ms": 16, "shard_p99_ms": 239.36},
    {"campaign": "permeability", "runs": 1300, "wall_s": 2.5, "runs_per_sec": 520,
     "runs_planned": 1300, "runs_executed": 1300, "runs_saved": 0, "shard_retries": 2}
  ],
  "golden_cache": {"size": 25, "hits": 0, "misses": 25, "hit_rate": 0}
}`

func TestParseBench(t *testing.T) {
	b, err := parseBench(strings.NewReader(benchFixture))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.wallS(); got != 4 {
		t.Errorf("wallS = %v, want 4", got)
	}
	if got := b.runsExecuted(); got != 2025 {
		t.Errorf("runsExecuted = %d, want 2025", got)
	}
	if b.GoldenCache.Misses != 25 || b.Campaigns[0].ShardP99Ms != 239.36 || b.Campaigns[1].ShardRetries != 2 {
		t.Errorf("fields not decoded: %+v", b)
	}
	if row := largestRow(b); row.Campaign != "permeability" {
		t.Errorf("largestRow = %s, want permeability", row.Campaign)
	}
}

func TestParseBenchRejects(t *testing.T) {
	for name, doc := range map[string]string{
		"malformed":   `{"campaigns": [`,
		"no rows":     `{"campaigns": []}`,
		"zero wall":   `{"campaigns": [{"campaign": "x", "wall_s": 0, "runs_executed": 5}]}`,
		"no runs":     `{"campaigns": [{"campaign": "x", "wall_s": 1, "runs_executed": 0}]}`,
		"not an obj":  `[1, 2]`,
		"empty input": ``,
	} {
		if _, err := parseBench(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: parseBench accepted %q", name, doc)
		}
	}
}

func TestParseRusage(t *testing.T) {
	ru := &syscall.Rusage{
		Utime:  syscall.Timeval{Sec: 2, Usec: 250000},
		Stime:  syscall.Timeval{Sec: 0, Usec: 500000},
		Maxrss: 204800, // KiB
	}
	u := parseRusage(ru)
	if u.CPU != 2750*time.Millisecond {
		t.Errorf("CPU = %v, want 2.75s", u.CPU)
	}
	if u.RSSMB != 200 {
		t.Errorf("RSSMB = %v, want 200", u.RSSMB)
	}
}

func TestInvocationDerived(t *testing.T) {
	b, err := parseBench(strings.NewReader(benchFixture))
	if err != nil {
		t.Fatal(err)
	}
	v := invocation{WallS: 4.25, Bench: b}
	if got := v.setupS(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("setupS = %v, want 0.25", got)
	}
	if got := v.runsPerS(); math.Abs(got-2025.0/4) > 1e-9 {
		t.Errorf("runsPerS = %v, want %v", got, 2025.0/4)
	}
}

// spanFixture is an -events-out log of one in-process campaign at two
// workers plus one dispatched round, ending in a line cut mid-write.
const spanFixture = `{"ts_ms":100,"kind":"span","name":"plan","span":2,"parent":1,"dur_ms":1}
{"ts_ms":101,"kind":"span","name":"shard","span":4,"parent":3,"dur_ms":600,"attrs":{"runs":"300","shard":"0"}}
{"ts_ms":101,"kind":"span","name":"shard","span":5,"parent":3,"dur_ms":300,"attrs":{"runs":"100","shard":"1"}}
{"ts_ms":401,"kind":"span","name":"shard","span":6,"parent":3,"dur_ms":200,"attrs":{"runs":"200","shard":"2"}}
{"ts_ms":101,"kind":"span","name":"execute","span":3,"parent":1,"dur_ms":620,"attrs":{"runs":"600"}}
{"ts_ms":721,"kind":"span","name":"reduce","span":7,"parent":1,"dur_ms":2}
{"ts_ms":100,"kind":"span","name":"campaign","span":1,"dur_ms":623,"attrs":{"campaign":"permeability@0"}}
{"ts_ms":800,"kind":"event","name":"dispatch.spawn","attrs":{"pid":"1"}}
{"ts_ms":810,"kind":"span","name":"worker.exec","span":13,"parent":12,"dur_ms":80,"attrs":{"golden_hits":"3","runs":"50"}}
{"ts_ms":805,"kind":"span","name":"worker.shard","span":12,"parent":11,"dur_ms":90,"attrs":{"runs":"50"}}
{"ts_ms":801,"kind":"span","name":"dispatch.shard","span":11,"parent":10,"dur_ms":100,"attrs":{"exec_ms":"90","net_ms":"4","queue_ms":"6","runs":"50","worker":"subprocess"}}
{"ts_ms":800,"kind":"span","name":"execute","span":10,"parent":9,"dur_ms":110,"attrs":{"runs":"50"}}
{"ts_ms":800,"kind":"span","name":"campaign","span":9,"dur_ms":111,"attrs":{"campaign":"permeability@1"}}
{"ts_ms":950,"kind":"span","name":"campaign","span":20,"dur_ms":`

func TestAnalyzeSpans(t *testing.T) {
	st, err := analyzeSpans(strings.NewReader(spanFixture), 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Campaigns != 2 {
		t.Errorf("Campaigns = %d, want 2 (the cut line is skipped)", st.Campaigns)
	}
	if st.PlanMs != 1 || st.ReduceMs != 2 {
		t.Errorf("plan/reduce = %v/%v, want 1/2", st.PlanMs, st.ReduceMs)
	}
	if st.ExecMs != 730 || st.BusyMs != 1200 || st.Runs != 650 {
		t.Errorf("exec/busy/runs = %v/%v/%d, want 730/1200/650", st.ExecMs, st.BusyMs, st.Runs)
	}
	// Round 0 ends at 721; its second-latest shard ends at 601, so the
	// tail is 120 ms. Round 1 has fewer shards than workers: a worker
	// idles throughout its 110 ms execute span.
	if st.TailMs != 230 {
		t.Errorf("TailMs = %v, want 230", st.TailMs)
	}
	if len(st.ShardMs) != 4 {
		t.Errorf("ShardMs = %v, want 4 durations", st.ShardMs)
	}
	if st.ShardsNonempty != 3 || st.MaxOverMean != 1.5 {
		t.Errorf("partition = %d shards, max/mean %v; want 3, 1.5", st.ShardsNonempty, st.MaxOverMean)
	}
	if st.DispatchShards != 1 || st.QueueMs != 6 || st.ExecShardMs != 90 || st.NetMs != 4 || st.GoldenHits != 3 {
		t.Errorf("dispatch = %+v", st)
	}
}

func TestAnalyzeSpansNeedsCampaign(t *testing.T) {
	log := `{"ts_ms":1,"kind":"event","name":"dispatch.spawn"}` + "\n" + `{"ts_ms":2,"kind":"span","name":"plan","span":2,"parent":1}`
	if _, err := analyzeSpans(strings.NewReader(log), 1); err == nil {
		t.Error("a log without a campaign span was accepted")
	}
	bad := `{"ts_ms":1,"kind":"span","name":"shard","span":3,"parent":2,"attrs":{"runs":"x"}}
{"ts_ms":1,"kind":"span","name":"execute","span":2,"parent":1}
{"ts_ms":1,"kind":"span","name":"campaign","span":1}`
	if _, err := analyzeSpans(strings.NewReader(bad), 1); err == nil {
		t.Error("a shard span with a malformed runs attribute was accepted")
	}
}
