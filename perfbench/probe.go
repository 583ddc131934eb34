package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/fi"
	"repro/internal/model"
	"repro/internal/physics"
	"repro/internal/sut"
	"repro/internal/trace"
)

// The layer probe times calls into the program's public packages on
// the arrestment target, the same way the campaigns make them. It reads
// the clock only around whole calls, never inside the 1 ms slot loop:
// a per-slot hook's cost is its marginal cost, the same seeded run
// timed with and without the hook attached, per simulated ms.

// probeReps is how many times each hook variant runs over every case;
// the marginal cost is the median over these paired repetitions.
const probeReps = 9

// goldenRef is the probe's reference run of one case, made the way the
// experiment package makes its golden runs.
type goldenRef struct {
	tc        sut.Case
	trace     *trace.Trace
	arrestMs  int64
	horizonMs int64
}

// prober holds the target and reference runs the probe measures on.
type prober struct {
	t       sut.Target
	seed    int64
	def     sut.Defaults
	goldens []goldenRef
	vals    map[string]float64
}

// probeCampaign measures the layers of the perm workload and returns
// them by per-layer metric name, together with the EA bank and failure
// classification layers, which the internal-coverage campaign runs and
// a permeability run does not. Layers it does not measure are left out
// (the caller reports them as 0).
func probeCampaign(seed int64, workers int) (map[string]float64, error) {
	t, err := sut.Lookup(sut.DefaultTarget)
	if err != nil {
		return nil, err
	}
	p := &prober{t: t, seed: seed, def: t.Defaults(), vals: map[string]float64{}}
	if err := p.runGoldens(); err != nil {
		return nil, err
	}
	if err := p.acquire(); err != nil {
		return nil, err
	}
	p.physics()
	if err := p.permLayers(); err != nil {
		return nil, err
	}
	if err := p.bankLayers(); err != nil {
		return nil, err
	}
	if err := p.entryPoint(workers); err != nil {
		return nil, err
	}
	return p.vals, nil
}

// runGoldens makes the reference run of every case, timing each.
func (p *prober) runGoldens() error {
	var ms, bytes []float64
	signals := p.t.AllSignals()
	for _, tc := range p.t.DefaultCases() {
		start := time.Now()
		rig, err := p.t.Acquire(tc, p.t.CaseSeed(p.seed, tc), sut.Variant{})
		if err != nil {
			return err
		}
		rec := trace.NewRecorder(rig.Bus(), signals, 1, p.def.MaxRunMs)
		rig.Sched().OnPostSlot(rec.Hook)
		done, err := rig.RunUntilDone(p.def.MaxRunMs)
		if err == nil && !done {
			err = fmt.Errorf("golden run of case %d did not complete", tc.ID)
		}
		if err != nil {
			p.t.Release(rig)
			return err
		}
		g := goldenRef{tc: tc, arrestMs: rig.Sched().NowMs()}
		if err := rig.RunFor(p.def.TailMs); err != nil {
			p.t.Release(rig)
			return err
		}
		g.horizonMs = rig.Sched().NowMs()
		g.trace = rec.Trace()
		p.t.Release(rig)
		ms = append(ms, float64(time.Since(start).Microseconds())/1000)
		bytes = append(bytes, float64(len(signals)*g.trace.Len()*8)) // model.Word is 8 bytes
		p.goldens = append(p.goldens, g)
	}
	p.vals["experiment.golden_ms"] = median(ms)
	p.vals["experiment.golden_trace_bytes"] = mean(bytes)
	return nil
}

// acquire times pooled rig Acquire+Release (the pool resets the rig).
func (p *prober) acquire() error {
	const n = 400
	start := time.Now()
	for i := 0; i < n; i++ {
		tc := p.goldens[i%len(p.goldens)].tc
		rig, err := p.t.Acquire(tc, p.t.CaseSeed(p.seed, tc), sut.Variant{})
		if err != nil {
			return err
		}
		p.t.Release(rig)
	}
	p.vals["sut.acquire_us"] = float64(time.Since(start).Nanoseconds()) / 1000 / n
	return nil
}

// physics times Plant.StepMs(1) alone, in blocks of one simulated
// arrestment's length.
func (p *prober) physics() {
	const blocks, steps = 40, 4000
	var total time.Duration
	tc := p.goldens[0].tc
	params := physics.DefaultParams(tc.P1, tc.P2, p.seed)
	pl := physics.New(params)
	for b := 0; b < blocks; b++ {
		pl.Reset(params)
		start := time.Now()
		for i := 0; i < steps; i++ {
			pl.StepMs(1)
		}
		total += time.Since(start)
	}
	p.vals["physics.step_ns"] = float64(total.Nanoseconds()) / (blocks * steps)
}

// variantTimes accumulates, per repetition, the host time spent inside
// RunFor/RunUntilDone and the simulated ms it covered.
type variantTimes struct{ ns, simMs []float64 }

func (v *variantTimes) add(rep int, d time.Duration, simMs int64) {
	for len(v.ns) <= rep {
		v.ns = append(v.ns, 0)
		v.simMs = append(v.simMs, 0)
	}
	v.ns[rep] += float64(d.Nanoseconds())
	v.simMs[rep] += float64(simMs)
}

func (v *variantTimes) perSimMs() float64 {
	var per []float64
	for i := range v.ns {
		per = append(per, v.ns[i]/v.simMs[i])
	}
	return median(per)
}

// permStream is one (module, input) stream of the permeability plan,
// with the signals a run of it records.
type permStream struct {
	port  model.PortRef
	sig   model.SignalID
	outs  []model.SignalID
	other []model.SignalID // the module's other pure inputs (cutoff signals)
}

func permStreams(sys *model.System) []permStream {
	var out []permStream
	for _, mod := range sys.Modules() {
		isOut := map[model.SignalID]bool{}
		var outs []model.SignalID
		for _, o := range mod.Outputs {
			isOut[o.Signal] = true
			outs = append(outs, o.Signal)
		}
		for _, in := range mod.Inputs {
			s := permStream{port: model.PortRef{Module: mod.ID, Dir: model.DirIn, Index: in.Index}, sig: in.Signal, outs: outs}
			seen := map[model.SignalID]bool{}
			for _, o := range mod.Inputs {
				if o.Signal != in.Signal && !isOut[o.Signal] && !seen[o.Signal] {
					seen[o.Signal] = true
					s.other = append(s.other, o.Signal)
				}
			}
			out = append(out, s)
		}
	}
	return out
}

// watch is the recorded signal set of a run of the stream.
func (s permStream) watch() []model.SignalID {
	seen := map[model.SignalID]bool{}
	var w []model.SignalID
	for _, sig := range append(append([]model.SignalID(nil), s.outs...), s.other...) {
		if !seen[sig] {
			seen[sig] = true
			w = append(w, sig)
		}
	}
	return w
}

// permLayers measures the permeability run's layers: the bare rig, the
// ReadFlip injector and the trace recorder by marginal cost, and the
// golden comparison by timing FirstDifference calls.
func (p *prober) permLayers() error {
	sys := p.t.System()
	streams := permStreams(sys)
	var bare, withFI, withRec variantTimes
	var rec *trace.Recorder
	var compareNs float64
	runs := 0
	for rep := 0; rep < probeReps; rep++ {
		for ci, g := range p.goldens {
			s := streams[(ci+rep)%len(streams)]
			sig, _ := sys.Signal(s.sig)
			rng := rand.New(rand.NewSource(sut.HashSeed(p.seed, "perfbench", rep*len(p.goldens)+ci)))
			bit := uint8(rng.Intn(int(sig.Type.Width)))
			from := rng.Int63n(p.t.InjectWindow(g.arrestMs))
			// Rotate the variant order so drift over a repetition
			// does not favour one variant.
			for k := 0; k < 3; k++ {
				v := (k + rep) % 3
				rig, err := p.t.Acquire(g.tc, p.t.CaseSeed(p.seed, g.tc), sut.Variant{})
				if err != nil {
					return err
				}
				var flip *fi.ReadFlip
				if v == 1 {
					flip = &fi.ReadFlip{Port: s.port, Bit: bit, FromMs: from}
					inj := fi.NewInjector(flip)
					rig.Sched().OnPreSlot(inj.Hook)
					rig.Bus().OnRead(inj.ReadHook())
				}
				if v == 2 {
					if rec == nil {
						rec = trace.NewRecorder(rig.Bus(), s.watch(), 1, g.horizonMs)
					} else {
						rec.ResetFor(rig.Bus(), s.watch(), 1, g.horizonMs)
					}
					rig.Sched().OnPostSlot(rec.Hook)
				}
				start := time.Now()
				err = rig.RunFor(g.horizonMs)
				d := time.Since(start)
				p.t.Release(rig)
				if err != nil {
					return err
				}
				[]*variantTimes{&bare, &withFI, &withRec}[v].add(rep, d, g.horizonMs)
			}
			// The comparison a run makes against its golden trace,
			// on the fault-free recording just taken: every cutoff
			// and output column is scanned to the end.
			const cmpReps = 20
			start := time.Now()
			for i := 0; i < cmpReps; i++ {
				for _, sig := range s.other {
					trace.FirstDifference(g.trace, rec.Trace(), sig)
				}
				for _, sig := range s.outs {
					trace.FirstDifference(g.trace, rec.Trace(), sig)
				}
			}
			compareNs += float64(time.Since(start).Nanoseconds()) / cmpReps
			runs++
		}
	}
	horizon := 0.0
	for _, g := range p.goldens {
		horizon += float64(g.horizonMs)
	}
	p.vals["sched.sim_ms_per_run"] = horizon / float64(len(p.goldens))
	p.vals["sched.host_ns_per_sim_ms"] = bare.perSimMs()
	p.vals["fi.hook_ns_per_sim_ms"] = marginal(withFI.ns, withFI.simMs, bare.ns, bare.simMs)
	p.vals["trace.record_ns_per_sim_ms"] = marginal(withRec.ns, withRec.simMs, bare.ns, bare.simMs)
	p.vals["trace.compare_us_per_run"] = compareNs / 1000 / float64(runs)
	return nil
}

// bankLayers measures the layers the internal-coverage campaign adds
// to a bare run: the EH assertion bank by marginal cost, and failure
// classification by timing Rig.Failed at the end of the bank's runs.
func (p *prober) bankLayers() error {
	var bare, withBank variantTimes
	var classifyNs float64
	runs := 0
	for rep := 0; rep < probeReps; rep++ {
		for _, g := range p.goldens {
			for k := 0; k < 2; k++ {
				v := (k + rep) % 2
				rig, err := p.t.Acquire(g.tc, p.t.CaseSeed(p.seed, g.tc), sut.Variant{})
				if err != nil {
					return err
				}
				if v == 1 {
					bank, err := sut.NewBank(p.t, rig, p.t.EHSet())
					if err != nil {
						p.t.Release(rig)
						return err
					}
					rig.Sched().OnPostSlot(bank.Hook)
				}
				start := time.Now()
				done, err := rig.RunUntilDone(g.horizonMs + p.def.GraceMs)
				d := time.Since(start)
				if err != nil {
					p.t.Release(rig)
					return err
				}
				[]*variantTimes{&bare, &withBank}[v].add(rep, d, rig.Sched().NowMs())
				if v == 1 {
					const clsReps = 200
					start := time.Now()
					for i := 0; i < clsReps; i++ {
						rig.Failed(done)
					}
					classifyNs += float64(time.Since(start).Nanoseconds()) / clsReps
					runs++
				}
				p.t.Release(rig)
			}
		}
	}
	p.vals["ea.bank_ns_per_sim_ms"] = marginal(withBank.ns, withBank.simMs, bare.ns, bare.simMs)
	p.vals["failure.classify_us"] = classifyNs / 1000 / float64(runs)
	return nil
}

// entryPoint reads runtime/metrics around one in-process call of the
// permeability entry point, at the perm CLI's configuration, from a
// cold golden cache.
func (p *prober) entryPoint(workers int) error {
	experiment.ClearGoldenCache()
	runtime.GC()
	opts := experiment.DefaultOptions(p.seed)
	opts.Workers = workers
	opts.Adaptive = true // as the perm CLI's defaults say
	opts.Timings = campaign.NewCollector()
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	read := func() []float64 {
		metrics.Read(samples)
		out := make([]float64, len(samples))
		for i, s := range samples {
			switch s.Value.Kind() {
			case metrics.KindUint64:
				out[i] = float64(s.Value.Uint64())
			case metrics.KindFloat64:
				out[i] = s.Value.Float64()
			}
		}
		return out
	}
	before := read()
	if _, err := experiment.EstimatePermeability(context.Background(), opts, 100); err != nil {
		return err
	}
	after := read()
	runs := 0
	for _, row := range opts.Timings.Rows() {
		runs += row.RunsExecuted
	}
	if runs == 0 {
		return fmt.Errorf("the permeability entry point executed no runs")
	}
	p.vals["experiment.allocs_per_run"] = (after[0] - before[0]) / float64(runs)
	p.vals["experiment.alloc_bytes_per_run"] = (after[1] - before[1]) / float64(runs)
	if cpu := after[3] - before[3]; cpu > 0 {
		p.vals["experiment.gc_cpu_frac"] = (after[2] - before[2]) / cpu
	}
	return nil
}
