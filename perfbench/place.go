package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/paper"
)

// The place workload makes placement decisions in-process, on the paper
// Table 1 matrix, an analytic.Grid and systems generated from the seed
// at varied size, fan-in and with or without feedback cycles. A
// decision is a cold analytic profile, the EH/PA/extended selections, a
// module × factor sweep and one warm re-analysis after ScaleModule. A
// batch is one decision per system; batches alternate between one
// decider and nproc deciders, in a closed loop, until the run's time is
// up. The campaign metrics map onto decisions: campaign_s is the wall
// time of an nproc batch and runs_per_s its decisions per second.

// placeSystem is one system a decision is made on.
type placeSystem struct {
	name   string
	p      *core.Permeability
	mods   []model.ModuleID // swept modules
	cyclic bool
}

// generatedSystems is how many systems the seed generates per run.
const generatedSystems = 24

var placeFactors = []float64{0, 0.5}

// genSystems builds the decision inputs of a seed. The shapes are
// fixed, so every seed asks for the same amount of work; the seed
// draws the wiring and the permeabilities.
func genSystems(seed int64) ([]placeSystem, error) {
	rng := rand.New(rand.NewSource(seed))
	out := []placeSystem{{name: "paper", p: paper.Table1()}}
	_, gp := analytic.Grid(8, 6)
	out = append(out, placeSystem{name: "grid-8x6", p: gp})
	for i := 0; i < generatedSystems; i++ {
		s, err := genSystem(rng, i)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	for i := range out {
		ids := out[i].p.System().ModuleIDs()
		out[i].mods = ids[:min(3, len(ids))]
	}
	return out, nil
}

// genSystem generates system i: layers ranks of width signals, each
// non-input signal produced by one module reading fanIn signals of the
// rank below. Shapes cycle through 3–7 ranks, 2–6 signals per rank and
// fan-in 1–3; every third system with at least four ranks gets a
// feedback edge that closes a cycle through ranks 1 and 2.
func genSystem(rng *rand.Rand, i int) (placeSystem, error) {
	layers, width, fanIn := 3+i%5, 2+(2*i)%5, min(1+i%3, 2+(2*i)%5)
	cyclic := i%3 == 2 && layers >= 4
	name := fmt.Sprintf("gen-%d-%dx%d-f%d", i, layers, width, fanIn)
	b := model.NewBuilder(name)
	sig := func(l, j int) model.SignalID { return model.SignalID(fmt.Sprintf("s%d_%d", l, j)) }
	for l := 0; l < layers; l++ {
		for j := 0; j < width; j++ {
			switch l {
			case 0:
				b.AddSignal(sig(l, j), model.Uint(16), model.AsSystemInput())
			case layers - 1:
				b.AddSignal(sig(l, j), model.Uint(16), model.AsSystemOutput(float64(j+1)/float64(width)))
			default:
				b.AddSignal(sig(l, j), model.Uint(16))
			}
		}
	}
	for l := 1; l < layers; l++ {
		for j := 0; j < width; j++ {
			var ins []model.SignalID
			for _, k := range rng.Perm(width)[:fanIn] {
				ins = append(ins, sig(l-1, k))
			}
			if cyclic && j == 0 {
				switch l {
				case 1:
					ins = append(ins, sig(2, 0))
				case 2:
					if !contains(ins, sig(1, 0)) {
						ins = append(ins, sig(1, 0))
					}
				}
			}
			b.AddModule(model.ModuleID(fmt.Sprintf("M%d_%d", l, j)), ins, []model.SignalID{sig(l, j)})
		}
	}
	sys, err := b.Build()
	if err != nil {
		return placeSystem{}, err
	}
	p := core.NewPermeability(sys)
	for _, e := range sys.Edges() {
		if err := p.SetEdge(e, 0.05+0.9*rng.Float64()); err != nil {
			return placeSystem{}, err
		}
	}
	return placeSystem{name: name, p: p, cyclic: cyclic}, nil
}

func contains(xs []model.SignalID, x model.SignalID) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// placeSetup generates the systems and constructs one engine per
// system, compiling it with Diagnose; the engine's acyclicity verdict
// must match how the system was generated.
func placeSetup(seed int64) ([]placeSystem, error) {
	systems, err := genSystems(seed)
	if err != nil {
		return nil, err
	}
	for _, s := range systems {
		d, err := analytic.New().Diagnose(s.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		if s.name != "paper" && d.Acyclic == s.cyclic {
			return nil, fmt.Errorf("%s: engine reports acyclic=%v, generated cyclic=%v", s.name, d.Acyclic, s.cyclic)
		}
	}
	return systems, nil
}

// stageTimes splits one decision's wall time by layer.
type stageTimes struct {
	profile, selection, sweep, incremental time.Duration
	hits, misses                           uint64
}

// decide makes one placement decision and returns the digest of
// everything it decided. With timed set it also splits the time by
// stage.
func decide(s placeSystem, timed bool) (uint64, stageTimes, error) {
	var st stageTimes
	mark := time.Now()
	lap := func(d *time.Duration) {
		if timed {
			now := time.Now()
			*d += now.Sub(mark)
			mark = now
		}
	}
	h := fnv.New64a()
	e := analytic.New()
	pr, err := e.Profile(s.p)
	if err != nil {
		return 0, st, err
	}
	lap(&st.profile)
	th := core.DefaultThresholds()
	eh := core.SelectEH(s.p.System())
	pa := core.SelectPA(pr, th)
	ext := core.SelectExtended(pr, th)
	lap(&st.selection)
	sw, err := analytic.Sweep(e, s.p, s.mods, placeFactors, 1)
	if err != nil {
		return 0, st, err
	}
	lap(&st.sweep)
	scaled, err := s.p.ScaleModule(s.mods[0], 0.5)
	if err != nil {
		return 0, st, err
	}
	pr2, err := e.Profile(scaled)
	if err != nil {
		return 0, st, err
	}
	lap(&st.incremental)
	fmt.Fprintln(h, eh.Selected(), pa.Selected(), ext.Selected())
	writeRanking(h, pr)
	writeRanking(h, pr2)
	for _, c := range sw.Cells {
		fmt.Fprintf(h, "%s %g %.12g %s\n", c.Module, c.Factor, c.TotalCriticality, c.Top)
	}
	es := e.Stats()
	st.hits, st.misses = es.Hits, es.Misses
	return h.Sum64(), st, nil
}

func writeRanking(w io.Writer, pr *core.Profile) {
	for _, sp := range pr.Ranked(core.ByCriticality) {
		fmt.Fprintf(w, "%s %.12g %.12g %.12g\n", sp.Signal, sp.Exposure, sp.Impact, sp.Criticality)
	}
}

// paperOracle checks the paper matrix decision: PA selects 4 signals,
// EH 7 and the extended approach 7, and the analytic profile ranks
// every metric exactly as the core.BuildProfile oracle does.
func paperOracle() error {
	p := paper.Table1()
	pr, err := analytic.New().Profile(p)
	if err != nil {
		return err
	}
	oracle, err := core.BuildProfile(p)
	if err != nil {
		return err
	}
	th := core.DefaultThresholds()
	for _, c := range []struct {
		name string
		got  int
		want int
	}{
		{"PA", len(core.SelectPA(pr, th).Selected()), 4},
		{"EH", len(core.SelectEH(p.System()).Selected()), 7},
		{"extended", len(core.SelectExtended(pr, th).Selected()), 7},
	} {
		if c.got != c.want {
			return fmt.Errorf("paper matrix: %s selects %d signals, want %d", c.name, c.got, c.want)
		}
	}
	for _, m := range []core.Metric{core.ByExposure, core.ByImpact, core.ByCriticality} {
		a, o := pr.Ranked(m), oracle.Ranked(m)
		if len(a) != len(o) {
			return fmt.Errorf("paper matrix %v ranking: %d signals, oracle %d", m, len(a), len(o))
		}
		for i := range a {
			if a[i].Signal != o[i].Signal {
				return fmt.Errorf("paper matrix %v ranking differs from the BuildProfile oracle at rank %d: %s vs %s",
					m, i+1, a[i].Signal, o[i].Signal)
			}
		}
	}
	return nil
}

// placeReport is what the place subprocess reports to its parent.
type placeReport struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Decisions int      `json:"decisions"`
	// Digest is the SHA-256 of the 1-decider reference decisions.
	Digest string             `json:"digest"`
	Values map[string]float64 `json:"values"`
}

// placeSetups is how many times a run repeats set-up; setup_s is the
// median.
const placeSetups = 25

// runPlace measures the place workload for the given time.
func runPlace(seed int64, seconds int, workers int, traced bool) (placeReport, error) {
	rep := placeReport{Values: map[string]float64{}}
	var setups []float64
	var systems []placeSystem
	for i := 0; i < placeSetups; i++ {
		start := time.Now()
		s, err := placeSetup(seed)
		if err != nil {
			return rep, err
		}
		setups = append(setups, time.Since(start).Seconds())
		systems = s
	}

	ref := make([]uint64, len(systems))
	fail := func(format string, args ...any) {
		rep.Failed++
		if len(rep.Problems) < 5 {
			rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
		}
	}
	var mu sync.Mutex
	var stages stageTimes
	// batch makes one decision per system on n deciders, returning its
	// wall time and each decision's latency.
	batch := func(n int, first bool) (time.Duration, []float64) {
		lat := make([]float64, len(systems))
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(systems) {
						return
					}
					t0 := time.Now()
					dig, st, err := decide(systems[i], traced)
					lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
					mu.Lock()
					rep.Attempted++
					switch {
					case err != nil:
						fail("%s: %v", systems[i].name, err)
					case first:
						ref[i] = dig
					case dig != ref[i]:
						fail("%s: decision digest %x differs from the 1-decider reference %x", systems[i].name, dig, ref[i])
					}
					stages.profile += st.profile
					stages.selection += st.selection
					stages.sweep += st.sweep
					stages.incremental += st.incremental
					stages.hits += st.hits
					stages.misses += st.misses
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return time.Since(start), lat
	}

	var cpu0 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &cpu0); err != nil {
		return rep, err
	}
	var wallN, rps, rps1, eff, latN []float64
	for pace, pair := newPacer(seconds), 0; pace.more(pair >= minRounds); pair++ {
		d1, _ := batch(1, pair == 0)
		dn, lat := batch(workers, false)
		n := float64(len(systems))
		wallN = append(wallN, dn.Seconds())
		rps = append(rps, n/dn.Seconds())
		rps1 = append(rps1, n/d1.Seconds())
		eff = append(eff, d1.Seconds()/(float64(workers)*dn.Seconds()))
		latN = append(latN, lat...)
		if rep.Failed > 0 {
			break
		}
	}
	var cpu1 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &cpu1); err != nil {
		return rep, err
	}
	h := sha256.New()
	for _, r := range ref {
		fmt.Fprintf(h, "%016x\n", r)
	}
	rep.Digest = hex.EncodeToString(h.Sum(nil))
	rep.Attempted++
	if err := paperOracle(); err != nil {
		fail("%v", err)
	}
	rep.Decisions = 2 * len(systems) * len(wallN)
	cpu := parseRusage(&cpu1).CPU - parseRusage(&cpu0).CPU
	v := rep.Values
	v["campaign_s"] = median(wallN)
	v["runs_per_s"] = median(rps)
	v["runs_per_s_w1"] = median(rps1)
	v["scaling_eff"] = median(eff)
	v["setup_s"] = median(setups)
	v["cpu_ms_per_run"] = float64(cpu.Microseconds()) / 1000 / float64(rep.Decisions)
	v["decision_p50_ms"] = median(latN)
	v["decision_p99_ms"] = nearestRank(latN, 0.99)
	v["decision_samples"] = float64(len(latN))
	if traced {
		d := float64(rep.Decisions)
		v["analytic.profile_ms"] = float64(stages.profile.Nanoseconds()) / 1e6 / d
		v["analytic.incremental_ms"] = float64(stages.incremental.Nanoseconds()) / 1e6 / d
		v["analytic.sweep_ms"] = float64(stages.sweep.Nanoseconds()) / 1e6 / d
		v["core.select_us"] = float64(stages.selection.Nanoseconds()) / 1e3 / d
		if stages.hits+stages.misses > 0 {
			v["analytic.row_hit_ratio"] = float64(stages.hits) / float64(stages.hits+stages.misses)
		}
	}
	return rep, nil
}

// runPlaceWorkload runs the place workload in a child process, so its
// peak RSS is the decision engine's alone.
func (d *runner) runPlaceWorkload(ctx context.Context, traced bool) (result, []string, error) {
	args := []string{"-seconds", fmt.Sprint(d.seconds)}
	if traced {
		args = append(args, "-traced")
	}
	out, use, err := d.child(ctx, "place", args...)
	if err != nil {
		return result{}, nil, err
	}
	var rep placeReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return result{}, nil, fmt.Errorf("place output: %w", err)
	}
	d.gate.check("reference decisions", rep.Digest, nil)
	notes := append([]string{fmt.Sprintf("decisions: %d; decision percentiles over %.0f nproc-batch decisions",
		rep.Decisions, rep.Values["decision_samples"])}, append(rep.Problems, d.gate.problems...)...)
	vals := rep.Values
	defs := endToEnd
	if traced {
		vals = zeroLayers()
		for k, v := range rep.Values {
			if _, ok := vals[k]; ok {
				vals[k] = v
			}
		}
		defs = perLayer
	} else {
		vals["peak_rss_mb"] = use.RSSMB
	}
	metrics, err := collect(defs, vals)
	if err != nil {
		return result{}, notes, err
	}
	failed := rep.Failed + d.gate.failed
	return result{Correct: failed == 0, Attempted: rep.Attempted + d.gate.attempted, Failed: failed, Metrics: metrics}, notes, nil
}
