package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fi"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/sut"
)

// PermeabilityResult is the outcome of the Table 1 campaign: the
// estimated permeability matrix plus the raw counts behind every entry.
type PermeabilityResult struct {
	// Matrix holds the estimates P^M_{i,k} = direct deviations / active
	// injections.
	Matrix *core.Permeability
	// Samples holds the per-edge counts (successes = direct output
	// deviations, trials = active injections of that input).
	Samples map[model.Edge]stats.Proportion
	// ActiveRuns and TotalRuns account for the campaign volume.
	ActiveRuns, TotalRuns int
	// PlannedRuns is the exact-grid size the campaign stands for; it
	// exceeds TotalRuns when adaptive early stopping ended streams
	// before the grid was exhausted.
	PlannedRuns int
}

// permJob is one permeability injection run: a bit-flip at one module
// input, evaluated against one test case's golden run. seq is the run's
// position in the exact (full-grid) plan and keys all run randomness,
// so an adaptive round executing a subset of the grid reproduces the
// exact campaign's trials bit for bit.
type permJob struct {
	mod     *model.ModuleDecl
	port    model.PortRef
	sig     model.SignalID
	caseIdx int
	seq     int
}

// permOutcome is one run's evaluation: whether the injection was active
// and which module outputs deviated directly. Fields are exported with
// JSON tags so the outcome can cross the dispatcher's wire codec.
type permOutcome struct {
	Active bool         `json:"active"`
	Direct map[int]bool `json:"direct,omitempty"` // output index -> deviated directly
}

// permeabilityCampaign is the Table 1 campaign on the engine. The
// embedded JSONWire makes its results dispatchable to worker processes.
type permeabilityCampaign struct {
	campaign.JSONWire[permOutcome]
	opts     Options
	t        sut.Target
	perInput int
	golds    []*golden
	sys      *model.System
}

func (c *permeabilityCampaign) Name() string { return "permeability" }

// perCase is how many injections each (module input, test case) pair
// receives in the exact grid.
func (c *permeabilityCampaign) perCase() int {
	perCase := c.perInput / len(c.opts.Cases)
	if perCase < 1 {
		perCase = 1
	}
	return perCase
}

// permStream is one (module, input) sampling stream: the unit at which
// adaptive early stopping decides. base is the stream's first index in
// the exact plan.
type permStream struct {
	mod  *model.ModuleDecl
	port model.PortRef
	sig  model.SignalID
	base int
}

// streams lists the campaign's sampling streams in exact-plan order.
func (c *permeabilityCampaign) streams() []permStream {
	block := c.perCase() * len(c.opts.Cases)
	var out []permStream
	for _, mod := range c.sys.Modules() {
		for _, in := range mod.Inputs {
			out = append(out, permStream{
				mod:  mod,
				port: model.PortRef{Module: mod.ID, Dir: model.DirIn, Index: in.Index},
				sig:  in.Signal,
				base: len(out) * block,
			})
		}
	}
	return out
}

func (c *permeabilityCampaign) Plan() ([]permJob, error) {
	perCase := c.perCase()
	var plan []permJob
	for _, s := range c.streams() {
		for ci := range c.opts.Cases {
			for k := 0; k < perCase; k++ {
				plan = append(plan, permJob{mod: s.mod, port: s.port, sig: s.sig, caseIdx: ci, seq: len(plan)})
			}
		}
	}
	return plan, nil
}

// roundJobs emits the next batch of each unfinished stream's trials.
// Trials advance in case-interleaved order (consecutive trials visit
// consecutive cases) so a stream stopped early has sampled every case
// evenly; seq maps each trial back to its exact-plan slot, preserving
// the run's seed. Pure function of its arguments — the parent driver
// and shard workers derive identical round plans from the shipped
// cursor state.
func (c *permeabilityCampaign) roundJobs(streams []permStream, cursors []int, done []bool, batch int) []permJob {
	numCases := len(c.opts.Cases)
	perCase := c.perCase()
	total := perCase * numCases
	var jobs []permJob
	for si, s := range streams {
		if done[si] {
			continue
		}
		end := cursors[si] + batch
		if end > total {
			end = total
		}
		for t := cursors[si]; t < end; t++ {
			ci := t % numCases
			k := t / numCases
			jobs = append(jobs, permJob{
				mod: s.mod, port: s.port, sig: s.sig,
				caseIdx: ci, seq: s.base + ci*perCase + k,
			})
		}
	}
	return jobs
}

// round builds the executable campaign of one adaptive round. Both the
// parent driver and worker processes construct rounds through this
// path, so plans and plan hashes agree by construction.
func (c *permeabilityCampaign) round(name string, st AdaptiveRound) (*roundCampaign[permJob, permOutcome], error) {
	streams := c.streams()
	if len(st.Cursors) != len(streams) || len(st.Done) != len(streams) {
		return nil, fmt.Errorf("experiment: round %s has %d cursors for %d streams", name, len(st.Cursors), len(streams))
	}
	return &roundCampaign[permJob, permOutcome]{
		name: name,
		jobs: c.roundJobs(streams, st.Cursors, st.Done, st.Batch),
		exec: c.Execute,
		key:  c.ShardKey,
		desc: c.Describe,
	}, nil
}

func (c *permeabilityCampaign) Execute(_ context.Context, j permJob, _ int) (permOutcome, error) {
	out, _, err := permeabilityRun(c.opts, c.t, c.golds[j.caseIdx], j.mod, j.port, j.sig, j.seq)
	return out, err
}

func (c *permeabilityCampaign) Reduce(plan []permJob, results []permOutcome) (*PermeabilityResult, error) {
	res := &PermeabilityResult{
		Matrix:  core.NewPermeability(c.sys),
		Samples: make(map[model.Edge]stats.Proportion),
	}
	for i, job := range plan {
		out := results[i]
		res.TotalRuns++
		if !out.Active {
			continue
		}
		res.ActiveRuns++
		for _, op := range job.mod.Outputs {
			e := model.Edge{
				Module: job.mod.ID, In: job.port.Index, Out: op.Index,
				From: job.sig, To: op.Signal,
			}
			p := res.Samples[e]
			p.Add(out.Direct[op.Index])
			res.Samples[e] = p
		}
	}
	res.PlannedRuns = res.TotalRuns
	for e, p := range res.Samples {
		if err := res.Matrix.SetEdge(e, p.Estimate()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (c *permeabilityCampaign) ShardKey(j permJob, _ int) uint64 {
	return shardKeyFor(c.opts, c.opts.Cases[j.caseIdx])
}

func (c *permeabilityCampaign) Describe(j permJob, _ int) string {
	return describeRun(c.t, c.opts, "perm", j.seq, j.caseIdx) + " signal=" + string(j.sig)
}

// EstimatePermeability runs the Section 5.3 campaign on the
// reimplemented target: for every module input, inject single transient
// bit-flips at the module's reads (spread over the test cases and over
// run time), compare every module output against the golden run, and
// count only direct errors — output deviations observed before any other
// input of the module deviates, so errors that loop back through
// downstream modules are excluded.
//
// perInput is the total number of injections per module input across all
// test cases (the paper used 2000 per target signal).
//
// With opts.Adaptive set, each (module, input) stream is sampled in
// rounds and stops as soon as every outgoing edge's Wilson interval is
// tighter than the stopping rule demands; executed trials are an
// exact-plan subset, so adaptive estimates are prefix averages of the
// exact campaign's trials.
func EstimatePermeability(ctx context.Context, opts Options, perInput int) (*PermeabilityResult, error) {
	if opts.Adaptive {
		return estimatePermeabilityAdaptive(ctx, opts, perInput)
	}
	c, err := newPermeabilityCampaign(ctx, opts, perInput)
	if err != nil {
		return nil, err
	}
	return campaign.Execute[permJob, permOutcome, *PermeabilityResult](ctx, c, opts.executor(), opts.Timings)
}

// newPermeabilityCampaign validates and builds the campaign; worker
// processes rebuild the identical campaign through this same path.
func newPermeabilityCampaign(ctx context.Context, opts Options, perInput int) (*permeabilityCampaign, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if perInput < 1 {
		return nil, fmt.Errorf("experiment: perInput %d must be >= 1", perInput)
	}
	t, err := resolvedTarget(opts)
	if err != nil {
		return nil, err
	}
	golds, err := goldens(ctx, opts, t)
	if err != nil {
		return nil, err
	}
	return &permeabilityCampaign{opts: opts, t: t, perInput: perInput, golds: golds, sys: t.System()}, nil
}

// sampleRow is one edge of the samples document WriteSamples emits.
type sampleRow struct {
	Module    model.ModuleID `json:"module"`
	In        int            `json:"in"`
	Out       int            `json:"out"`
	From      model.SignalID `json:"from"`
	To        model.SignalID `json:"to"`
	Successes int            `json:"successes"`
	Trials    int            `json:"trials"`
}

type samplesDoc struct {
	PlannedRuns int         `json:"planned_runs"`
	TotalRuns   int         `json:"total_runs"`
	ActiveRuns  int         `json:"active_runs"`
	Edges       []sampleRow `json:"edges"`
}

// WriteSamples writes the campaign's per-edge counts as JSON, edges in
// deterministic order — the raw material cmd/adaptcheck uses to verify
// that exact and adaptive campaigns agree within their Wilson
// intervals.
func (r *PermeabilityResult) WriteSamples(path string) error {
	doc := samplesDoc{
		PlannedRuns: r.PlannedRuns,
		TotalRuns:   r.TotalRuns,
		ActiveRuns:  r.ActiveRuns,
	}
	for e, p := range r.Samples {
		doc.Edges = append(doc.Edges, sampleRow{
			Module: e.Module, In: e.In, Out: e.Out, From: e.From, To: e.To,
			Successes: p.Successes, Trials: p.Trials,
		})
	}
	sort.Slice(doc.Edges, func(i, j int) bool {
		a, b := doc.Edges[i], doc.Edges[j]
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		if a.In != b.In {
			return a.In < b.In
		}
		return a.Out < b.Out
	})
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// permExit says why a forked permeability run stopped. Every exit
// fires only once the run's outcome can no longer change; see
// docs/performance.md, Mechanism 6, for the soundness argument.
type permExit int

const (
	// exitHorizon: the run reached the golden horizon.
	exitHorizon permExit = iota
	// exitInactive: the flip had not applied by the golden arrest time,
	// so the injection is inactive whatever happens later.
	exitInactive
	// exitCutoff: another input of the module deviated; output
	// deviations after this sample are not direct errors.
	exitCutoff
	// exitAllDiverged: every module output already deviated directly.
	exitAllDiverged
	// exitMasked: after the flip, the whole rig state equalled the
	// golden checkpoint; the rest of the run is the golden run.
	exitMasked
)

func (e permExit) String() string {
	return [...]string{"horizon", "inactive", "cutoff", "all-diverged", "masked"}[e]
}

// permRunStats describes how a forked run was executed.
type permRunStats struct {
	exit  permExit
	simMs int64 // scheduler time simulated after the fork
}

// permWatch splits a module's watched signals for the direct-errors
// rule: its outputs, and the cutoff signals — its other pure inputs
// (not the injected signal, not also an output), whose deviation ends
// the window in which output deviations count as direct.
func permWatch(mod *model.ModuleDecl, sig model.SignalID) (outputs, cutoffs []model.SignalID) {
	isOut := make(map[model.SignalID]bool, len(mod.Outputs))
	for _, op := range mod.Outputs {
		outputs = append(outputs, op.Signal)
		isOut[op.Signal] = true
	}
	for _, in := range mod.Inputs {
		if in.Signal == sig || isOut[in.Signal] {
			continue
		}
		cutoffs = append(cutoffs, in.Signal)
	}
	return outputs, dedupSignals(cutoffs)
}

// permFlip draws run index's flip — bit and injection instant — from
// the run's seed.
func permFlip(opts Options, t sut.Target, g *golden, sys *model.System, port model.PortRef, sig model.SignalID, index int) *fi.ReadFlip {
	rng := runRand(t.RunSeed(opts.Seed, "perm", index))
	return readFlip(rng, sys, port, sig, t.InjectWindow(g.arrestMs))
}

// watched is one signal compared online against its golden column.
type watched struct {
	idx  int          // dense bus index
	gold []model.Word // golden samples
}

// permeabilityRun executes one injection run and evaluates direct
// output deviations against the golden run. Up to the injection instant
// an injection run is the golden run, so the run starts from the golden
// checkpoint at or before that instant. After each slot it compares the
// watched signals with the golden samples of the same slot and stops as
// soon as its outcome is fixed (see permExit).
func permeabilityRun(opts Options, t sut.Target, g *golden, mod *model.ModuleDecl, port model.PortRef, sig model.SignalID, index int) (permOutcome, permRunStats, error) {
	var out permOutcome
	var st permRunStats
	rig, err := t.Acquire(g.tc, t.CaseSeed(opts.Seed, g.tc), sut.Variant{})
	if err != nil {
		return out, st, err
	}
	defer t.Release(rig)

	flip := permFlip(opts, t, g, rig.System(), port, sig, index)
	cps := g.checkpoints
	fork := cps[g.forkPoint(flip.FromMs)]
	if err := rig.Restore(fork); err != nil {
		return out, st, err
	}
	start := fork.NowMs()

	inj := fi.NewInjector(flip)
	rig.Sched().OnPreSlot(inj.Hook)
	rig.Bus().OnRead(inj.ReadHook())

	resolve := func(sigs []model.SignalID) []watched {
		ws := make([]watched, len(sigs))
		for i, s := range sigs {
			ws[i].idx, _ = rig.System().SignalIndex(s)
			ws[i].gold = g.trace.View(s)
		}
		return ws
	}
	outSigs, cutSigs := permWatch(mod, sig)
	outputs, cutoffs := resolve(outSigs), resolve(cutSigs)
	deviated := make([]bool, len(outputs))
	diverged := 0
	bus, sch := rig.Bus(), rig.Sched()

	settled := func() bool {
		now := sch.NowMs()
		applied, at := flip.Applied()
		if !applied || at >= g.arrestMs {
			// Until the flip applies the run is the golden run, and
			// once arrestMs passes the run can only be inactive.
			if now >= g.arrestMs {
				st.exit = exitInactive
				return true
			}
			return false
		}
		k := now - 1 // the sample this slot produced
		for i, w := range outputs {
			if !deviated[i] && bus.PeekIdx(w.idx) != w.gold[k] {
				deviated[i] = true
				diverged++
			}
		}
		for _, w := range cutoffs {
			if bus.PeekIdx(w.idx) != w.gold[k] {
				st.exit = exitCutoff
				return true
			}
		}
		if diverged == len(outputs) {
			st.exit = exitAllDiverged
			return true
		}
		if now%checkpointEveryMs == 0 {
			if i := int(now / checkpointEveryMs); i < len(cps) && cps[i].NowMs() == now && rig.AtCheckpoint(cps[i]) {
				st.exit = exitMasked
				return true
			}
		}
		return false
	}
	if _, err := sch.RunUntil(settled, g.horizonMs-start); err != nil {
		return out, st, err
	}
	st.simMs = sch.NowMs() - start

	applied, at := flip.Applied()
	out.Active = applied && at < g.arrestMs
	out.Direct = make(map[int]bool, len(mod.Outputs))
	if !out.Active {
		return out, st, nil
	}
	// The run stops at the first cutoff sample, after comparing the
	// outputs of that sample, so every recorded deviation is direct.
	for i, op := range mod.Outputs {
		out.Direct[op.Index] = deviated[i]
	}
	return out, st, nil
}

func dedupSignals(in []model.SignalID) []model.SignalID {
	seen := make(map[model.SignalID]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
