// Command perfbench is the repository's benchmark. It builds nothing
// itself: perfbench/run.sh builds it together with cmd/reproduce from
// the checkout under test and then runs
//
//	perfbench -root <checkout> -bin <binaries> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workload perm drives the campaign CLI from outside (see campaign.go);
// place makes placement decisions in a child process (see place.go).
// With --trace 0 a run prints every end-to-end metric, with --trace 1
// every per-layer metric, each by name and unit, followed by a last
// line holding one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// "perfbench summarize" reads the output of many runs on standard input
// and writes the baseline document (see baseline.sh).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"perm", "place"}

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && (os.Args[1] == "probe" || os.Args[1] == "place"):
		err = childMain(os.Args[1], os.Args[2:])
	case len(os.Args) == 2 && os.Args[1] == "summarize":
		err = summarizeMain()
	default:
		err = run(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func summarizeMain() error {
	b, err := summarize(os.Stdin)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "checkout root")
	bin := fs.String("bin", "", "directory holding the built reproduce binary")
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed, passed to the program as -seed")
	seconds := fs.Int("seconds", 50, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || *bin == "" {
		return fmt.Errorf("usage: -bin <dir> --workload <name> --seed <n> --seconds <s≥1> --trace <0|1>")
	}
	if err := validateDefs(append(append([]metricDef(nil), endToEnd...), perLayer...)); err != nil {
		return err
	}
	if err := checkDeclared(*root); err != nil {
		return err
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (have %v)", *workload, workloadNames)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	work, err := newWorkDir(*root)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	pinned, err := pinnedDigest(*root, *workload, *seed)
	if err != nil {
		return err
	}
	d := &runner{bin: *bin, work: work, seed: *seed, seconds: *seconds, nproc: runtime.NumCPU(),
		gate: &gate{pinned: pinned}}

	prov := provenance(d, *workload, *traceFlag == 1)
	steal0, total0 := hostTicks()
	var res result
	var notes []string
	switch {
	case *workload == "place":
		res, notes, err = d.runPlaceWorkload(ctx, *traceFlag == 1)
	case *traceFlag == 1:
		res, notes, err = d.traceCampaign(ctx)
	default:
		res, notes, err = d.runCampaign(ctx)
	}
	if err != nil {
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, n)
		}
		return err
	}
	prov["serial_sha256"] = d.gate.ref
	steal1, total1 := hostTicks()
	prov["host_steal_frac"] = stealFrac(steal0, total0, steal1, total1)
	return printResult(prov, notes, res)
}

// printResult prints the provenance, every metric by name and unit,
// the notes, and last the result object.
func printResult(prov map[string]any, notes []string, res result) error {
	p, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", p)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range notes {
		fmt.Println("#", n)
	}
	fmt.Printf("correct %v, %d operations, %d failed (failed_frac %.4g)\n",
		res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// childMain runs one of the in-process sub-modes the benchmark starts as
// child processes and prints its JSON report.
func childMain(mode string, args []string) error {
	fs := flag.NewFlagSet(mode, flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 50, "place: how long to measure")
	traced := fs.Bool("traced", false, "place: split decision time by layer")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var out any
	var err error
	if mode == "probe" {
		out, err = probeCampaign(*seed, runtime.NumCPU())
	} else {
		out, err = runPlace(*seed, *seconds, runtime.NumCPU(), *traced)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}
