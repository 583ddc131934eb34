package dispatch

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// DefaultShardTimeout is the per-shard deadline when Subprocess leaves
// ShardTimeout zero. A worker that has not answered a shard within it
// is declared hung, killed, and the shard is re-dispatched.
const DefaultShardTimeout = 5 * time.Minute

// helloTimeout bounds how long a freshly spawned worker may take to
// announce itself before the spawn counts as failed.
const helloTimeout = 30 * time.Second

// Subprocess is a campaign.PayloadExecutor that ships whole shards to
// worker processes over stdin/stdout frames. The plan is partitioned
// exactly like campaign.Sharded — run i lands in shard keys[i]%Shards,
// a pure function of campaign identity — so output is byte-identical
// to in-process execution.
//
// The seam is hardened end-to-end:
//
//   - a worker that crashes (any exit, including SIGKILL) or hangs past
//     ShardTimeout is killed and its shard retried on a fresh worker,
//     with capped exponential backoff and deterministic jitter; the
//     failed worker is never reused;
//   - every response is integrity-checked (FNV-1a over the shard id and
//     payloads, computed worker-side); a mismatch is treated as a
//     corrupted result and the shard re-run;
//   - campaign-level failures reported by a worker (a run returning an
//     error, or panicking) are deterministic and abort immediately —
//     retrying cannot heal them;
//   - when Checkpoint names a journal, each completed shard is synced
//     to it, and a later invocation of the same campaign resumes by
//     replaying journaled shards and dispatching only the missing ones;
//   - when Command is empty, or spawning the first worker fails,
//     execution degrades gracefully to in-process shard execution
//     (same partition, same checkpointing) instead of failing.
type Subprocess struct {
	// Command is the argv (binary plus args) that starts one worker —
	// typically the current binary re-exec'd with a hidden worker flag.
	// Empty selects in-process execution.
	Command []string
	// Env is appended to the parent environment of every worker.
	Env []string
	// WorkerStderr receives worker stderr (nil discards it).
	WorkerStderr io.Writer
	// Workers bounds how many shards are in flight at once (>= 1); in
	// subprocess mode it is also the ceiling on live worker processes.
	Workers int
	// Shards is the partition width (0 selects campaign.DefaultShards).
	Shards int
	// ShardTimeout is the per-shard deadline (0 selects
	// DefaultShardTimeout).
	ShardTimeout time.Duration
	// Retries is how many times a failed shard is re-dispatched after
	// its first attempt (0 selects campaign.DefaultAttempts-1; negative
	// disables retries).
	Retries int
	// BackoffBase and BackoffCap shape the retry backoff (zero selects
	// the campaign package defaults).
	BackoffBase, BackoffCap time.Duration
	// Seed feeds the deterministic backoff jitter.
	Seed int64
	// Checkpoint, when non-empty, names the shard journal enabling
	// crash/resume.
	Checkpoint string
	// Log receives dispatcher diagnostics — retries, degradation,
	// resume accounting (nil discards them).
	Log io.Writer

	logMu sync.Mutex
	seq   atomic.Uint64
}

func (s *Subprocess) workers() int {
	if s.Workers < 1 {
		return 1
	}
	return s.Workers
}

func (s *Subprocess) shards() int {
	if s.Shards < 1 {
		return campaign.DefaultShards
	}
	return s.Shards
}

func (s *Subprocess) shardTimeout() time.Duration {
	if s.ShardTimeout <= 0 {
		return DefaultShardTimeout
	}
	return s.ShardTimeout
}

// attempts returns the total tries per shard.
func (s *Subprocess) attempts() int {
	switch {
	case s.Retries < 0:
		return 1
	case s.Retries == 0:
		return campaign.DefaultAttempts
	default:
		return s.Retries + 1
	}
}

func (s *Subprocess) Name() string {
	mode := "subprocess"
	if len(s.Command) == 0 {
		mode = "subprocess-inproc"
	}
	return fmt.Sprintf("%s(workers=%d,shards=%d)", mode, s.workers(), s.shards())
}

func (s *Subprocess) logf(format string, args ...any) {
	if s.Log == nil {
		return
	}
	s.logMu.Lock()
	fmt.Fprintf(s.Log, format+"\n", args...)
	s.logMu.Unlock()
}

// Run is the plain executor path, used when a campaign has no wire
// codec: nothing can cross a process boundary, so it executes on the
// in-process sharded pool with the same partition.
func (s *Subprocess) Run(ctx context.Context, n int, keys []uint64, fn func(i int) error) error {
	return campaign.Sharded{Workers: s.workers(), Shards: s.Shards}.Run(ctx, n, keys, fn)
}

// task is one shard of work: its bucket, deterministic id and plan
// indices (ascending).
type task struct {
	bucket  int
	id      uint64
	indices []int
}

// permanentError marks failures retrying cannot heal (campaign-level
// run errors, plan mismatches): the dispatcher aborts instead of
// burning the retry budget.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// RunPayload executes the campaign's plan shard by shard: resume
// journaled shards, then dispatch the rest to workers (or run them in
// process when degraded), retrying infrastructure failures per shard.
func (s *Subprocess) RunPayload(ctx context.Context, job campaign.PayloadJob) error {
	tasks := partition(job, s.shards())
	markShardsPlanned(len(tasks))

	var j *journal
	if s.Checkpoint != "" {
		var err error
		if j, err = openJournal(s.Checkpoint); err != nil {
			return err
		}
		defer j.close()
	}

	pool := &workerPool{s: s}
	defer pool.closeAll()
	tel := obs.Active()
	degraded := len(s.Command) == 0
	if !degraded {
		// Probe: if the very first worker cannot be spawned (missing
		// binary, fork limits, sandbox), degrade to in-process
		// execution rather than failing the campaign.
		if w, err := pool.spawn(); err != nil {
			s.logf("dispatch: cannot spawn workers (%v); degrading to in-process execution", err)
			degraded = true
		} else {
			pool.release(w)
		}
	}
	if tel != nil && degraded {
		tel.Degraded.Set(1)
		tel.Events.Emit("dispatch.degraded", map[string]string{"campaign": job.Campaign})
		defer tel.Degraded.Set(0)
	}

	pending := resumeJournaled(job, tasks, j, s.Checkpoint, s.logf)
	if len(pending) == 0 {
		return ctx.Err()
	}
	return runShardSlots(ctx, pending, s.workers(), func(ctx context.Context, t task) error {
		return s.runShard(ctx, job, t, j, pool, degraded)
	})
}

// markShardsPlanned records a dispatcher's shard plan in telemetry.
func markShardsPlanned(n int) {
	if tel := obs.Active(); tel != nil {
		tel.DispatchShards.Add(int64(n))
		tel.ShardsPlanned.Add(int64(n))
		tel.Progress.SetShards(n)
		tel.Live.SetShards(n)
	}
}

// resumeJournaled replays every journaled shard of the plan and
// returns the pending remainder in plan order. The journal is keyed by
// (campaign, plan hash, shard id) — pure functions of campaign
// identity — so a checkpoint written under one dispatcher resumes
// under any other.
func resumeJournaled(job campaign.PayloadJob, tasks []task, j *journal, checkpoint string, logf func(string, ...any)) []task {
	if j == nil {
		return tasks
	}
	tel := obs.Active()
	pending := tasks[:0]
	resumed := 0
	for _, t := range tasks {
		if payloads, ok := j.lookup(job.Campaign, hex64(job.PlanHash), hex64(t.id)); ok {
			if replayShard(job, t, payloads) {
				resumed++
				if tel != nil {
					tel.DispatchResumed.Inc()
					tel.DispatchDone.Inc()
					tel.ShardsDone.Inc()
					tel.Progress.ShardDone()
				}
				continue
			}
			logf("dispatch: journaled shard %s failed to replay; re-running it", hex64(t.id))
		}
		pending = append(pending, t)
	}
	if resumed > 0 {
		logf("dispatch: resumed %d/%d shards of %s from checkpoint %s", resumed, len(tasks), job.Campaign, checkpoint)
		if tel != nil {
			tel.Events.Emit("dispatch.resume", map[string]string{
				"campaign": job.Campaign,
				"shards":   strconv.Itoa(resumed),
			})
		}
	}
	return pending
}

// runShardSlots drives the pending shards through `slots` concurrent
// workers, stopping at the first shard failure.
func runShardSlots(ctx context.Context, pending []task, slots int, run func(ctx context.Context, t task) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	work := make(chan task)
	var wg sync.WaitGroup
	if slots > len(pending) {
		slots = len(pending)
	}
	wg.Add(slots)
	for w := 0; w < slots; w++ {
		go func() {
			defer wg.Done()
			for t := range work {
				if ctx.Err() != nil {
					return
				}
				if err := run(ctx, t); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
feed:
	for _, t := range pending {
		select {
		case work <- t:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}

// partition buckets the plan exactly like campaign.Sharded: run i in
// bucket keys[i] % shards, ascending plan order within a bucket.
func partition(job campaign.PayloadJob, shards int) []task {
	buckets := make([][]int, shards)
	for i := 0; i < job.N; i++ {
		k := uint64(i)
		if job.Keys != nil {
			k = job.Keys[i]
		}
		b := int(k % uint64(shards))
		buckets[b] = append(buckets[b], i)
	}
	var tasks []task
	for b, indices := range buckets {
		if len(indices) == 0 {
			continue
		}
		tasks = append(tasks, task{bucket: b, id: shardID(job.PlanHash, b, indices), indices: indices})
	}
	return tasks
}

// replayShard stores a journaled shard's payloads; false means the
// entry could not be replayed (corrupt payload) and the shard must be
// re-run. A partial replay is harmless: the re-run overwrites every
// index-owned slot.
func replayShard(job campaign.PayloadJob, t task, payloads []runPayload) bool {
	if !indicesMatch(payloads, t.indices) {
		return false
	}
	for _, rp := range payloads {
		if err := job.Store(rp.Index, rp.Payload); err != nil {
			return false
		}
	}
	return true
}

func indicesMatch(payloads []runPayload, indices []int) bool {
	if len(payloads) != len(indices) {
		return false
	}
	for k, rp := range payloads {
		if rp.Index != indices[k] {
			return false
		}
	}
	return true
}

// runShard drives one shard to completion: dispatch (or execute in
// process), verify, store, journal — retrying infrastructure failures
// with backoff on a fresh worker until the attempt budget is gone.
func (s *Subprocess) runShard(ctx context.Context, job campaign.PayloadJob, t task, j *journal, pool *workerPool, degraded bool) error {
	rt := retrier{
		attempts: s.attempts(),
		base:     s.BackoffBase,
		cap:      s.BackoffCap,
		seed:     s.Seed,
		logf:     s.logf,
	}
	return rt.runShard(ctx, job, t, j, func(ctx context.Context) ([]runPayload, error) {
		if degraded {
			return runShardInProcess(ctx, job, t, j != nil)
		}
		return s.runShardOnWorker(ctx, job, t, pool)
	})
}

// retrier is the per-shard retry policy shared by the subprocess and
// fleet dispatchers: attempt budget, capped exponential backoff with
// deterministic jitter, permanent-vs-retryable classification, journal
// append on success.
type retrier struct {
	attempts  int
	base, cap time.Duration
	seed      int64
	logf      func(string, ...any)
}

// runShard drives one shard through attempt() until it succeeds, fails
// permanently, or the budget is gone.
func (rt retrier) runShard(ctx context.Context, job campaign.PayloadJob, t task, j *journal, try func(ctx context.Context) ([]runPayload, error)) error {
	attempts := rt.attempts
	tel := obs.Active()
	var shardStart time.Time
	if tel != nil {
		shardStart = time.Now()
	}
	var lastErr error
	classified := false
	for attempt := 1; attempt <= attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		payloads, err := try(ctx)
		if err == nil {
			if j != nil {
				if aerr := j.append(job.Campaign, hex64(job.PlanHash), hex64(t.id), payloads); aerr != nil {
					return aerr
				}
			}
			if attempt > 1 {
				rt.logf("dispatch: shard %s (%d runs) completed on attempt %d/%d", hex64(t.id), len(t.indices), attempt, attempts)
			}
			if tel != nil {
				tel.ObserveShard(time.Since(shardStart).Seconds())
				tel.DispatchDone.Inc()
				tel.ShardsDone.Inc()
				tel.Progress.ShardDone()
				tel.Live.ShardDone()
			}
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			// Classification is logged exactly once per failure, here:
			// permanent failures never reach the retry loop below.
			rt.logf("dispatch: shard %s: permanent failure (campaign-level error; re-dispatch cannot heal it): %v", hex64(t.id), err)
			if tel != nil {
				tel.DispatchPermanent.Inc()
				tel.Events.Emit("dispatch.permanent", map[string]string{
					"shard": hex64(t.id), "error": err.Error(),
				})
			}
			return fmt.Errorf("dispatch: shard %s: %w", hex64(t.id), err)
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		lastErr = err
		if attempt < attempts {
			d := campaign.BackoffDelay(rt.base, rt.cap, rt.seed, t.id, attempt)
			// The retryable classification (with the error) is logged on
			// the shard's first failure only; later attempts log the
			// bare retry so a flapping shard cannot flood the log.
			if !classified {
				classified = true
				rt.logf("dispatch: shard %s attempt %d/%d failed: %v (classified retryable); retrying on a fresh worker in %s",
					hex64(t.id), attempt, attempts, err, d)
			} else {
				rt.logf("dispatch: shard %s attempt %d/%d failed; retrying in %s", hex64(t.id), attempt, attempts, d)
			}
			if tel != nil {
				tel.DispatchRetries.Inc()
				tel.Progress.Retry()
				tel.Live.UpdateShard(obs.ShardStatus{
					ID: hex64(t.id), State: "retrying",
					Runs: len(t.indices), Attempts: attempt,
				})
				tel.Events.Emit("dispatch.retry", map[string]string{
					"shard":      hex64(t.id),
					"attempt":    strconv.Itoa(attempt),
					"backoff_ms": strconv.FormatInt(d.Milliseconds(), 10),
					"error":      err.Error(),
				})
			}
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return fmt.Errorf("dispatch: shard %s failed after %d attempts: %w", hex64(t.id), attempts, lastErr)
}

// runShardInProcess is the degraded path: execute the shard's runs in
// this process (results land via job.Exec) and, when journaling,
// encode them for the checkpoint. Campaign errors are permanent.
func runShardInProcess(ctx context.Context, job campaign.PayloadJob, t task, journaling bool) ([]runPayload, error) {
	tel := obs.Active()
	var sp *obs.Span
	var start time.Time
	if tel != nil {
		start = time.Now()
		sp = obs.SpanFromContext(ctx).Child("dispatch.shard", map[string]string{
			"shard": hex64(t.id), "worker": "inproc",
			"runs": strconv.Itoa(len(t.indices)),
		})
		defer sp.End()
	}
	var payloads []runPayload
	for _, i := range t.indices {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := job.Exec(i); err != nil {
			return nil, &permanentError{err}
		}
		if journaling {
			p, err := job.Encode(i)
			if err != nil {
				return nil, &permanentError{err}
			}
			payloads = append(payloads, runPayload{Index: i, Payload: p})
		}
	}
	if tel != nil {
		wall := time.Since(start).Milliseconds()
		sp.SetAttr("exec_ms", strconv.FormatInt(wall, 10))
		tel.Live.UpdateShard(obs.ShardStatus{
			ID: hex64(t.id), Worker: "inproc", State: "done",
			Runs: len(t.indices), WallMs: wall, ExecMs: wall,
		})
	}
	return payloads, nil
}

// runShardOnWorker dispatches the shard to a pooled worker process and
// stores the verified payloads. Transport failures (crash, hang,
// corruption) are retryable; the worker that produced one is destroyed
// so the retry lands on a fresh process.
func (s *Subprocess) runShardOnWorker(ctx context.Context, job campaign.PayloadJob, t task, pool *workerPool) ([]runPayload, error) {
	tel := obs.Active()
	trace := obs.TraceFromContext(ctx)
	var sp *obs.Span
	var start time.Time
	if tel != nil {
		start = time.Now()
		sp = obs.SpanFromContext(ctx).Child("dispatch.shard", map[string]string{
			"shard": hex64(t.id), "worker": "subprocess",
			"runs": strconv.Itoa(len(t.indices)),
		})
		defer sp.End()
	}
	w, err := pool.acquire()
	if err != nil {
		return nil, fmt.Errorf("spawning worker: %w", err)
	}
	queueMs := int64(0)
	if tel != nil {
		queueMs = time.Since(start).Milliseconds()
	}
	req := request{
		Seq:      s.seq.Add(1),
		Campaign: job.Campaign,
		PlanHash: hex64(job.PlanHash),
		Shard:    hex64(t.id),
		Indices:  t.indices,
		Trace:    trace,
		Span:     sp.ID(),
	}
	tripStart := time.Now()
	resp, err := w.roundTrip(ctx, req, s.shardTimeout())
	if err != nil {
		pool.destroy(w)
		return nil, err
	}
	payloads, err := verifyAndStore(job, t, resp)
	if err != nil {
		// A worker-reported campaign error is deterministic — the worker
		// itself is healthy; anything else produced a corrupt result and
		// the worker is not trusted again.
		var perm *permanentError
		if errors.As(err, &perm) {
			pool.release(w)
		} else {
			pool.destroy(w)
		}
		return nil, err
	}
	if tel != nil {
		// Attribute the shard's wall time: queue (waiting for a worker
		// slot), exec (the worker's own measurement, from its returned
		// root span), net (round trip minus exec — framing, pipes and
		// scheduling).
		tripMs := time.Since(tripStart).Milliseconds()
		execMs := obs.RootDurMs(resp.Spans)
		netMs := tripMs - execMs
		if netMs < 0 {
			netMs = 0
		}
		sp.SetAttr("queue_ms", strconv.FormatInt(queueMs, 10))
		sp.SetAttr("exec_ms", strconv.FormatInt(execMs, 10))
		sp.SetAttr("net_ms", strconv.FormatInt(netMs, 10))
		tel.Events.FoldSpans(sp, trace, resp.Spans)
		tel.TraceWorkerSpans.Add(int64(len(resp.Spans)))
		tel.Live.UpdateShard(obs.ShardStatus{
			ID: hex64(t.id), Worker: workerID(w.cmd.Process.Pid),
			State: "done", Runs: len(t.indices),
			WallMs:  time.Since(start).Milliseconds(),
			QueueMs: queueMs, ExecMs: execMs, NetMs: netMs,
		})
	}
	pool.release(w)
	return payloads, nil
}

// workerID names a subprocess worker in live views and span attributes.
func workerID(pid int) string { return fmt.Sprintf("pid:%d", pid) }

// verifyAndStore checks one shard response end to end — worker-side
// campaign error, index set, integrity hash — and stores its payloads.
// A campaign-level error comes back as a permanentError; any mismatch
// or decode failure is a retryable corruption. Shared by the
// subprocess and fleet dispatchers so both enforce identical trust in
// worker results.
func verifyAndStore(job campaign.PayloadJob, t task, resp response) ([]runPayload, error) {
	if resp.Error != "" {
		return nil, &permanentError{fmt.Errorf("worker reported: %s", resp.Error)}
	}
	if !indicesMatch(resp.Results, t.indices) || resp.Hash != hex64(payloadHash(t.id, resp.Results)) {
		if tel := obs.Active(); tel != nil {
			tel.DispatchIntegrity.Inc()
			tel.Events.Emit("dispatch.integrity", map[string]string{"shard": hex64(t.id)})
		}
		return nil, fmt.Errorf("corrupted shard result (integrity check failed for shard %s)", hex64(t.id))
	}
	for _, rp := range resp.Results {
		if serr := job.Store(rp.Index, rp.Payload); serr != nil {
			if tel := obs.Active(); tel != nil {
				tel.DispatchIntegrity.Inc()
				tel.Events.Emit("dispatch.integrity", map[string]string{"shard": hex64(t.id)})
			}
			return nil, fmt.Errorf("corrupted shard result (run %d failed to decode): %w", rp.Index, serr)
		}
	}
	return resp.Results, nil
}

// workerPool hands out live worker processes to shard slots. A slot
// returns a healthy worker with release (reused for the next shard)
// and a suspect one with destroy (killed and reaped; the replacement
// is spawned fresh). At most Workers processes are alive at once
// because each slot holds at most one.
type workerPool struct {
	s    *Subprocess
	mu   sync.Mutex
	idle []*workerProc
}

func (p *workerPool) acquire() (*workerProc, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return w, nil
	}
	p.mu.Unlock()
	return p.spawn()
}

func (p *workerPool) release(w *workerProc) {
	p.mu.Lock()
	p.idle = append(p.idle, w)
	p.mu.Unlock()
}

func (p *workerPool) destroy(w *workerProc) { w.kill() }

func (p *workerPool) closeAll() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, w := range idle {
		w.kill()
	}
}

func (p *workerPool) spawn() (*workerProc, error) {
	s := p.s
	cmd := exec.Command(s.Command[0], s.Command[1:]...)
	cmd.Env = append(os.Environ(), s.Env...)
	cmd.Stderr = s.WorkerStderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting worker %q: %w", s.Command[0], err)
	}
	w := &workerProc{
		cmd:     cmd,
		stdin:   stdin,
		frames:  make(chan response, 1),
		helloOK: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go w.read(stdout)
	select {
	case <-w.helloOK:
		if tel := obs.Active(); tel != nil {
			tel.WorkerSpawns.Inc()
			tel.Events.Emit("dispatch.spawn", map[string]string{"pid": strconv.Itoa(cmd.Process.Pid)})
			tel.Live.WorkerJoin(workerID(cmd.Process.Pid), cmd.Process.Pid)
		}
		return w, nil
	case <-w.done:
		w.kill()
		return nil, fmt.Errorf("worker exited before hello: %v", w.err)
	case <-time.After(helloTimeout):
		w.kill()
		return nil, fmt.Errorf("worker did not announce itself within %s", helloTimeout)
	}
}

// workerProc is one live worker process plus its frame reader.
type workerProc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	frames  chan response
	helloOK chan struct{}
	done    chan struct{}
	killed  atomic.Bool
	err     error
	token   string
}

// read drains the worker's stdout: the hello frame first, then one
// response per request, delivered on w.frames. Any read error (EOF
// from a crash, garbage framing) ends the loop; w.err keeps the cause.
func (w *workerProc) read(stdout io.Reader) {
	defer close(w.done)
	br := bufio.NewReader(stdout)
	var h hello
	if err := readFrame(br, &h); err != nil {
		w.err = fmt.Errorf("reading hello: %w", err)
		return
	}
	if h.Proto != protoVersion {
		w.err = fmt.Errorf("worker speaks protocol %d, want %d", h.Proto, protoVersion)
		return
	}
	w.token = h.Token
	close(w.helloOK)
	for {
		var env envelope
		if err := readFrame(br, &env); err != nil {
			if err != io.EOF {
				w.err = err
			}
			return
		}
		// Telemetry frames are merged as they arrive (the worker sends
		// them ahead of the response they describe); only responses are
		// handed to the shard slot. A worker sharing this process (its
		// hello carried our own token) already counted its movement in
		// our registry — merging it again would double count.
		if env.Metrics != nil && w.token != obs.ProcessToken() {
			if tel := obs.Active(); tel != nil {
				tel.Reg.Merge(env.Metrics)
			}
		}
		if env.Resp != nil {
			w.frames <- *env.Resp
		}
	}
}

// roundTrip sends one shard request and waits for its response within
// the deadline. A worker that crashes mid-shard surfaces here as a
// closed frame stream ("worker crashed"); one that hangs surfaces as a
// deadline overrun. Either way the caller destroys the worker.
func (w *workerProc) roundTrip(ctx context.Context, req request, deadline time.Duration) (response, error) {
	if err := writeFrame(w.stdin, req); err != nil {
		return response{}, fmt.Errorf("worker crashed (request write failed: %v)", err)
	}
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case resp := <-w.frames:
		if resp.Seq != req.Seq || resp.Shard != req.Shard {
			return response{}, fmt.Errorf("corrupted shard result (response for seq %d shard %s, want seq %d shard %s)",
				resp.Seq, resp.Shard, req.Seq, req.Shard)
		}
		return resp, nil
	case <-w.done:
		state := "stream ended"
		if ps := w.cmd.ProcessState; ps != nil {
			state = ps.String()
		}
		if w.err != nil {
			return response{}, fmt.Errorf("worker crashed mid-shard (%v)", w.err)
		}
		return response{}, fmt.Errorf("worker crashed mid-shard (%s)", state)
	case <-timer.C:
		return response{}, fmt.Errorf("worker hung (no response within %s)", deadline)
	case <-ctx.Done():
		return response{}, ctx.Err()
	}
}

// kill tears the worker down hard and reaps it. Closing stdin first
// lets a healthy worker exit on EOF; the Kill covers the rest.
func (w *workerProc) kill() {
	if w.killed.CompareAndSwap(false, true) {
		if tel := obs.Active(); tel != nil {
			tel.WorkerKills.Inc()
			if w.cmd.Process != nil {
				tel.Live.WorkerLost(workerID(w.cmd.Process.Pid))
			}
		}
	}
	w.stdin.Close()
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
	<-w.done
	w.cmd.Wait()
}
