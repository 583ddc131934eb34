package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// invokeTimeout bounds one CLI invocation, so a hung campaign fails the
// benchmark run instead of outliving it.
const invokeTimeout = 120 * time.Second

// benchRow is one campaign row of the -bench-out report.
type benchRow struct {
	Campaign     string  `json:"campaign"`
	WallS        float64 `json:"wall_s"`
	RunsPlanned  int     `json:"runs_planned"`
	RunsExecuted int     `json:"runs_executed"`
	RunsSaved    int     `json:"runs_saved"`
	ShardRetries int64   `json:"shard_retries"`
	ShardP50Ms   float64 `json:"shard_p50_ms"`
	ShardP99Ms   float64 `json:"shard_p99_ms"`
}

// benchReport is the -bench-out document of one invocation.
type benchReport struct {
	Campaigns   []benchRow `json:"campaigns"`
	GoldenCache struct {
		Misses int64 `json:"misses"`
	} `json:"golden_cache"`
}

// parseBench decodes a -bench-out report and checks that it describes
// at least one campaign with a positive wall time.
func parseBench(r io.Reader) (benchReport, error) {
	var b benchReport
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return b, fmt.Errorf("bench report: %w", err)
	}
	if len(b.Campaigns) == 0 {
		return b, fmt.Errorf("bench report lists no campaigns")
	}
	for _, c := range b.Campaigns {
		if c.WallS <= 0 || c.RunsExecuted <= 0 {
			return b, fmt.Errorf("bench report row %s: wall %v s, %d runs", c.Campaign, c.WallS, c.RunsExecuted)
		}
	}
	return b, nil
}

// wallS is the summed campaign wall time of the report.
func (b benchReport) wallS() float64 {
	s := 0.0
	for _, c := range b.Campaigns {
		s += c.WallS
	}
	return s
}

// runsExecuted is the summed executed-run count of the report.
func (b benchReport) runsExecuted() int {
	n := 0
	for _, c := range b.Campaigns {
		n += c.RunsExecuted
	}
	return n
}

// usage is the resource use of a finished process and the descendants
// it waited for.
type usage struct {
	CPU   time.Duration // user + system
	RSSMB float64       // largest resident set of the process or one descendant
}

// parseRusage converts a wait4 rusage. Linux reports ru_maxrss in KiB,
// and wait4 folds in every descendant the child reaped, so CPU covers a
// dispatcher's workers and RSS is the larger of the parent and its
// largest worker.
func parseRusage(ru *syscall.Rusage) usage {
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{
		CPU:   tv(ru.Utime) + tv(ru.Stime),
		RSSMB: float64(ru.Maxrss) / 1024,
	}
}

// digest is the hex SHA-256 of a program output.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// invocation is one finished run of a campaign CLI.
type invocation struct {
	WallS     float64 // process wall time
	Use       usage
	Digest    string // of standard output
	Bench     benchReport
	EventsLog string // NDJSON span log, when traced
}

// campaignS is the summed campaign wall time.
func (v invocation) campaignS() float64 { return v.Bench.wallS() }

// runsPerS is executed runs per second of campaign wall time.
func (v invocation) runsPerS() float64 { return float64(v.Bench.runsExecuted()) / v.campaignS() }

// setupS is the process wall time outside the campaigns.
func (v invocation) setupS() float64 { return v.WallS - v.campaignS() }

// runCLI runs bin with args in dir, collecting standard output (for the
// digest), the -bench-out report and resource usage. traced adds an
// -events-out span log. A non-zero exit, a timeout or a missing report
// is an error.
func runCLI(ctx context.Context, dir, bin string, args []string, traced bool) (invocation, error) {
	var inv invocation
	benchPath := filepath.Join(dir, "bench.json")
	args = append(append([]string(nil), args...), "-bench-out", benchPath)
	if traced {
		inv.EventsLog = filepath.Join(dir, "events.ndjson")
		args = append(args, "-events-out", inv.EventsLog)
		os.Remove(inv.EventsLog)
	}
	os.Remove(benchPath)

	var stdout, stderr bytes.Buffer
	start := time.Now()
	use, err := runProcess(ctx, dir, bin, args, &stdout, &stderr)
	inv.WallS = time.Since(start).Seconds()
	if err != nil {
		return inv, fmt.Errorf("%s %v: %w\n%s", filepath.Base(bin), args, err, tail(stderr.Bytes(), 2000))
	}
	inv.Use = use
	inv.Digest = digest(stdout.Bytes())
	f, err := os.Open(benchPath)
	if err != nil {
		return inv, err
	}
	defer f.Close()
	if inv.Bench, err = parseBench(f); err != nil {
		return inv, fmt.Errorf("%s %v: %w", filepath.Base(bin), args, err)
	}
	return inv, nil
}

// runProcess runs bin in its own process group and waits for it,
// returning its resource usage. On timeout or cancellation the whole
// group is killed, so no worker it spawned outlives it.
func runProcess(ctx context.Context, dir, bin string, args []string, stdout, stderr io.Writer) (usage, error) {
	ctx, cancel := context.WithTimeout(ctx, invokeTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return usage{}, err
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}, fmt.Errorf("%s: no rusage", filepath.Base(bin))
	}
	return parseRusage(ru), nil
}

// tail returns at most the last n bytes of b.
func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}
