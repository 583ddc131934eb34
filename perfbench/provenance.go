package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// workloadSizes states each workload's input size.
var workloadSizes = map[string]string{
	"perm":  "reproduce -mode measured -artifact table1 -quick: 13 inputs x 100 (1300 runs), 25 cases; traced run adds -dispatch passes",
	"place": fmt.Sprintf("paper Table 1 + analytic.Grid(8,6) + %d generated systems; sweep 3 modules x %d factors", generatedSystems, len(placeFactors)),
}

// provenance describes the machine, build and inputs of a run.
func provenance(d *runner, workload string, traced bool) map[string]any {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      d.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"dirty":      dirty,
		"workload":   workload,
		"sizes":      workloadSizes[workload],
		"seed":       d.seed,
		"seconds":    d.seconds,
		"traced":     traced,
	}
}

// hostTicks reads the steal and the total CPU time of the machine from
// the first line of /proc/stat, in clock ticks. Steal is time a
// hypervisor gave the machine's virtual CPUs to someone else; its share
// over a run says how contended the host was while the run measured.
func hostTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// after them are already inside user.
	for i, v := range fields[1:9] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stealFrac is the host's steal share between two hostTicks readings,
// or -1 when /proc/stat could not be read.
func stealFrac(steal0, total0, steal1, total1 uint64) float64 {
	if total1 <= total0 {
		return -1
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
