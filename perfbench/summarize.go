package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The summarize mode turns the standard output of many benchmark runs
// (see baseline.sh) into a baseline document: per workload, the median
// and quartiles of every end-to-end metric over the untraced runs, and
// the per-layer metrics of the traced runs, under the machine and build
// descriptor the runs recorded.

// metricSummary is one end-to-end metric over a workload's runs.
type metricSummary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3 − Q1) / Median.
	Spread float64 `json:"spread"`
}

// workloadSummary is one workload's part of a baseline.
type workloadSummary struct {
	Sizes     string                   `json:"sizes"`
	Seeds     []int64                  `json:"seeds"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	EndToEnd  map[string]metricSummary `json:"end_to_end"`
	PerLayer  map[string]metricValue   `json:"per_layer"`
	// Digests maps each seed to the digest of its Serial output (stdout
	// SHA-256 on the campaign workloads, the reference decisions on
	// place); later runs at that seed must reproduce it.
	Digests map[string]string `json:"serial_sha256"`
	// HostStealFrac is the median over the untraced runs of the host's
	// steal share (see hostTicks): how contended the host was.
	HostStealFrac float64 `json:"host_steal_frac"`
}

// baseline is the summarize output.
type baseline struct {
	Machine   map[string]any              `json:"machine"`
	Commit    string                      `json:"commit"`
	Dirty     string                      `json:"dirty"`
	Seconds   int                         `json:"run_seconds"`
	Workloads map[string]*workloadSummary `json:"workloads"`
}

// provenanceLine is the part of a run's provenance line summarize reads.
type provenanceLine struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   int     `json:"seconds"`
	Traced    bool    `json:"traced"`
	Sizes     string  `json:"sizes"`
	Commit    string  `json:"commit"`
	Dirty     string  `json:"dirty"`
	CPU       string  `json:"cpu_model"`
	NProc     int     `json:"nproc"`
	MaxProcs  int     `json:"gomaxprocs"`
	GoVersion string  `json:"go_version"`
	Digest    string  `json:"serial_sha256"`
	Steal     float64 `json:"host_steal_frac"`
}

// summarize reads run outputs from r.
func summarize(r io.Reader) (*baseline, error) {
	b := &baseline{Workloads: map[string]*workloadSummary{}}
	e2e := map[string]map[string][]float64{}
	steal := map[string][]float64{}
	layers := map[string]map[string][]float64{}
	var prov provenanceLine
	haveProv := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "provenance "); ok {
			prov = provenanceLine{}
			if err := json.Unmarshal([]byte(rest), &prov); err != nil {
				return nil, fmt.Errorf("provenance line: %w", err)
			}
			haveProv = true
			continue
		}
		if !strings.HasPrefix(line, `{"correct"`) {
			continue
		}
		if !haveProv {
			return nil, fmt.Errorf("result line before any provenance line")
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, fmt.Errorf("result line: %w", err)
		}
		if b.Machine == nil {
			b.Machine = map[string]any{"cpu_model": prov.CPU, "nproc": prov.NProc, "gomaxprocs": prov.MaxProcs, "go_version": prov.GoVersion}
			b.Commit, b.Dirty, b.Seconds = prov.Commit, prov.Dirty, prov.Seconds
		}
		w := b.Workloads[prov.Workload]
		if w == nil {
			w = &workloadSummary{Sizes: prov.Sizes, EndToEnd: map[string]metricSummary{}, PerLayer: map[string]metricValue{}, Digests: map[string]string{}}
			b.Workloads[prov.Workload] = w
			e2e[prov.Workload] = map[string][]float64{}
			layers[prov.Workload] = map[string][]float64{}
		}
		w.Attempted += res.Attempted
		if prov.Digest != "" {
			seed := strconv.FormatInt(prov.Seed, 10)
			if d, ok := w.Digests[seed]; ok && d != prov.Digest {
				return nil, fmt.Errorf("%s seed %s: Serial digests %.12s and %.12s differ between runs", prov.Workload, seed, d, prov.Digest)
			}
			w.Digests[seed] = prov.Digest
		}
		w.Failed += res.Failed
		dst := e2e[prov.Workload]
		if prov.Traced {
			dst = layers[prov.Workload]
		} else {
			w.Seeds = append(w.Seeds, prov.Seed)
			steal[prov.Workload] = append(steal[prov.Workload], prov.Steal)
		}
		for name, v := range res.Metrics {
			dst[name] = append(dst[name], v.Value)
			if prov.Traced {
				w.PerLayer[name] = metricValue{Unit: v.Unit}
			} else {
				w.EndToEnd[name] = metricSummary{Unit: v.Unit}
			}
		}
		haveProv = false
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(b.Workloads) == 0 {
		return nil, fmt.Errorf("no benchmark results in the input")
	}
	for name, w := range b.Workloads {
		if xs := steal[name]; len(xs) > 0 {
			w.HostStealFrac = median(xs)
		}
		for m, xs := range e2e[name] {
			s := w.EndToEnd[m]
			s.N, s.Median = len(xs), median(xs)
			s.Q1, s.Q3 = quartiles(xs)
			s.Spread = (s.Q3 - s.Q1) / s.Median
			w.EndToEnd[m] = s
		}
		for m, xs := range layers[name] {
			v := w.PerLayer[m]
			v.Value = median(xs)
			w.PerLayer[m] = v
		}
	}
	return b, nil
}

// quartiles returns the first and third quartiles by the exclusive
// method (that of Python's statistics.quantiles(xs, n=4)); with fewer
// than two samples both are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
