package experiment

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/sut"
	"repro/internal/target"
)

// benchInjectionOpts is a single-case configuration so the benchmark
// isolates the per-run cost rather than campaign orchestration.
func benchInjectionOpts() Options {
	opts := DefaultOptions(1)
	opts.Cases = []sut.Case{{ID: 1, P1: 12000, P2: 65}}
	opts.Workers = 1
	return opts
}

// BenchmarkInjectionRun pins the cost of one permeability injection run —
// the unit the ~39 000-run full-size campaigns multiply. ReportAllocs
// makes allocation regressions on the inner loop visible in CI;
// sim_ms/op is the scheduler time a run simulates after its fork.
func BenchmarkInjectionRun(b *testing.B) {
	opts := benchInjectionOpts()
	t, err := resolvedTarget(opts)
	if err != nil {
		b.Fatal(err)
	}
	golds, err := goldens(context.Background(), opts, t)
	if err != nil {
		b.Fatal(err)
	}
	sys := target.SharedSystem()
	mod, ok := sys.Module(target.ModDistS)
	if !ok {
		b.Fatal("DIST_S missing")
	}
	port := model.PortRef{Module: mod.ID, Dir: model.DirIn, Index: 1}
	b.ReportAllocs()
	b.ResetTimer()
	var simMs int64
	for i := 0; i < b.N; i++ {
		_, st, err := permeabilityRun(opts, t, golds[0], mod, port, target.SigPACNT, i)
		if err != nil {
			b.Fatal(err)
		}
		simMs += st.simMs
	}
	b.ReportMetric(float64(simMs)/float64(b.N), "sim_ms/op")
}

// BenchmarkInjectionRunCases walks the runs of a quick (-quick sized)
// Table 1 campaign in the adaptive plan's case-interleaved order:
// consecutive runs use different test cases and so different golden
// checkpoints, plant seeds and flip seeds. It shows the per-run set-up
// a campaign pays, which BenchmarkInjectionRun's single case hides.
func BenchmarkInjectionRunCases(b *testing.B) {
	opts := DefaultOptions(1)
	opts.Workers = 1
	c, err := newPermeabilityCampaign(context.Background(), opts, 100)
	if err != nil {
		b.Fatal(err)
	}
	streams := c.streams()
	jobs := c.roundJobs(streams, make([]int, len(streams)), make([]bool, len(streams)), c.perCase()*len(opts.Cases))
	b.ReportAllocs()
	b.ResetTimer()
	var simMs int64
	for i := 0; i < b.N; i++ {
		j := jobs[i%len(jobs)]
		_, st, err := permeabilityRun(opts, c.t, c.golds[j.caseIdx], j.mod, j.port, j.sig, j.seq)
		if err != nil {
			b.Fatal(err)
		}
		simMs += st.simMs
	}
	b.ReportMetric(float64(simMs)/float64(b.N), "sim_ms/op")
}

// BenchmarkGoldenRun pins the cost of one fault-free reference run with
// the full 14-signal trace attached.
func BenchmarkGoldenRun(b *testing.B) {
	opts := benchInjectionOpts()
	t, err := resolvedTarget(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var simMs int64
	for i := 0; i < b.N; i++ {
		g, err := runGolden(opts, t, opts.Cases[0])
		if err != nil {
			b.Fatal(err)
		}
		simMs += g.horizonMs
	}
	b.ReportMetric(float64(simMs)/float64(b.N), "sim_ms/op")
}
