package dispatch

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	dnet "repro/internal/campaign/dispatch/net"
	"repro/internal/obs"
)

// DefaultShardTimeout is the per-shard deadline when a Fleet leaves
// ShardTimeout zero. A worker that has not answered a shard within it
// is declared hung, dropped, and the shard is re-dispatched.
const DefaultShardTimeout = 5 * time.Minute

// DefaultConnectWait bounds how long a Fleet waits for its first
// remote worker before degrading to spawned workers or local execution.
const DefaultConnectWait = 10 * time.Second

// Fleet is a campaign.PayloadExecutor that ships whole shards to worker
// processes. The plan is partitioned exactly like campaign.Sharded —
// run i lands in shard keys[i]%Shards, a pure function of campaign
// identity — so output is byte-identical to in-process execution, and
// a checkpoint journal written under one endpoint kind resumes under
// any other.
//
// Workers are reached through three kinds of endpoint, all speaking
// the same handshake and frame protocol: dialed agents (Addrs),
// registering agents (Listen), and worker processes spawned from
// Command and served over their stdin/stdout. The degradation ladder
// runs remote fleet → spawned workers → in-process: with no endpoint
// configured shards run in-process at once; a remote fleet still empty
// after ConnectWait falls back to spawning workers; a first spawn that
// fails falls back to in-process execution at once.
//
// The seam is hardened end to end:
//
//   - a worker whose connection dies (crash, SIGKILL, EOF) or that
//     misses three heartbeats (stopped, partitioned) is dropped and its
//     shard retried on another worker, with capped exponential backoff
//     and deterministic jitter; dialed endpoints are re-dialed and
//     spawned workers killed, reaped and respawned;
//   - a shard unanswered past ShardTimeout is declared hung; one still
//     unanswered after StragglerAfter is duplicated to an idle worker,
//     and the first integrity-checked result wins;
//   - every response is integrity-checked (FNV-1a over the shard id and
//     payloads, computed worker-side); a mismatch is a corrupted result
//     and the shard re-runs;
//   - campaign-level failures reported by a worker (a run returning an
//     error, or panicking) are deterministic and abort immediately;
//   - when Checkpoint names a journal, each completed shard is synced
//     to it, and a later invocation of the same campaign resumes by
//     replaying journaled shards and dispatching only the missing ones;
//   - when every worker is gone mid-campaign and none returns, each
//     waiting shard runs in-process rather than stalling the campaign.
type Fleet struct {
	// Addrs lists worker agent endpoints to dial (host:port).
	Addrs []string
	// Listen, when non-empty, also accepts incoming worker
	// registrations (DialAndServe agents) on this address.
	Listen string
	// Command is the argv (binary plus args) that starts one worker
	// process — typically the current binary re-exec'd with a hidden
	// worker flag that runs ServeStdio. Spawned workers serve the
	// campaign when no remote endpoint is configured or reachable.
	Command []string
	// Env is appended to the parent environment of every spawned worker.
	Env []string
	// WorkerStderr receives spawned workers' stderr (nil discards it).
	WorkerStderr io.Writer
	// Spec is the opaque campaign spec shipped to every worker at
	// handshake (the experiment layer's encoded WorkerSpec).
	Spec string
	// TLS wraps dialed worker connections when non-nil; ListenTLS the
	// accepted ones.
	TLS, ListenTLS *tls.Config
	// Tap, when non-nil, intercepts every frame on every connection —
	// the chaos seam.
	Tap dnet.Tap
	// Workers bounds how many shards are in flight at once (>= 1); it is
	// also the ceiling on live spawned worker processes.
	Workers int
	// Shards is the partition width (0 selects campaign.DefaultShards).
	Shards int
	// ShardTimeout is the per-shard deadline (0 selects
	// DefaultShardTimeout).
	ShardTimeout time.Duration
	// Heartbeat is the worker ping interval (0 selects
	// DefaultHeartbeat; negative disables heartbeats and dead-peer
	// read deadlines).
	Heartbeat time.Duration
	// StragglerAfter is how long a shard may stay unanswered before a
	// duplicate is dispatched to another worker (0 selects half the
	// shard deadline; negative disables straggler re-dispatch).
	StragglerAfter time.Duration
	// Retries is how many times a failed shard is re-dispatched after
	// its first attempt (0 selects campaign.DefaultAttempts-1;
	// negative disables retries).
	Retries int
	// BackoffBase and BackoffCap shape retry, reconnect and respawn
	// backoff (zero selects the campaign package defaults).
	BackoffBase, BackoffCap time.Duration
	// Seed feeds the deterministic backoff jitter.
	Seed int64
	// Checkpoint, when non-empty, names the shard journal enabling
	// crash/resume.
	Checkpoint string
	// ConnectWait is how long to wait for the first remote worker
	// before degrading (0 selects DefaultConnectWait).
	ConnectWait time.Duration
	// Log receives dispatcher diagnostics — retries, lost workers,
	// degradation, resume accounting (nil discards them).
	Log io.Writer

	logMu sync.Mutex
	seq   atomic.Uint64
	// trace is the running campaign's trace id, captured from the
	// context at RunPayload entry (before connection goroutines start)
	// so handshakes can announce it to joining workers.
	trace string
}

func (f *Fleet) workers() int {
	if f.Workers < 1 {
		return 1
	}
	return f.Workers
}

func (f *Fleet) shards() int {
	if f.Shards < 1 {
		return campaign.DefaultShards
	}
	return f.Shards
}

func (f *Fleet) shardTimeout() time.Duration {
	if f.ShardTimeout <= 0 {
		return DefaultShardTimeout
	}
	return f.ShardTimeout
}

// attempts returns the total tries per shard.
func (f *Fleet) attempts() int {
	switch {
	case f.Retries < 0:
		return 1
	case f.Retries == 0:
		return campaign.DefaultAttempts
	default:
		return f.Retries + 1
	}
}

func (f *Fleet) heartbeat() time.Duration {
	switch {
	case f.Heartbeat < 0:
		return 0
	case f.Heartbeat == 0:
		return DefaultHeartbeat
	default:
		return f.Heartbeat
	}
}

// deadAfter is the read deadline on coordinator-side connections:
// three missed heartbeats mean the worker (or the path to it) is gone.
func (f *Fleet) deadAfter() time.Duration {
	return 3 * f.heartbeat()
}

func (f *Fleet) stragglerAfter() time.Duration {
	switch {
	case f.StragglerAfter < 0:
		return 0
	case f.StragglerAfter == 0:
		return f.shardTimeout() / 2
	default:
		return f.StragglerAfter
	}
}

func (f *Fleet) connectWait() time.Duration {
	if f.ConnectWait <= 0 {
		return DefaultConnectWait
	}
	return f.ConnectWait
}

// remote reports whether network endpoints are configured.
func (f *Fleet) remote() bool { return len(f.Addrs) > 0 || f.Listen != "" }

// Name renders the executor by the top rung of its degradation ladder.
func (f *Fleet) Name() string {
	switch {
	case f.remote():
		endpoints := len(f.Addrs)
		if f.Listen != "" {
			endpoints++
		}
		return fmt.Sprintf("fleet(workers=%d,shards=%d,endpoints=%d)", f.workers(), f.shards(), endpoints)
	case len(f.Command) > 0:
		return fmt.Sprintf("subprocess(workers=%d,shards=%d)", f.workers(), f.shards())
	default:
		return fmt.Sprintf("subprocess-inproc(workers=%d,shards=%d)", f.workers(), f.shards())
	}
}

func (f *Fleet) logf(format string, args ...any) {
	if f.Log == nil {
		return
	}
	f.logMu.Lock()
	fmt.Fprintf(f.Log, format+"\n", args...)
	f.logMu.Unlock()
}

// Run is the plain executor path, used when a campaign has no wire
// codec: nothing can cross a process boundary, so it executes on the
// in-process sharded pool with the same partition.
func (f *Fleet) Run(ctx context.Context, n int, keys []uint64, fn func(i int) error) error {
	return campaign.Sharded{Workers: f.workers(), Shards: f.Shards}.Run(ctx, n, keys, fn)
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
// journaled shards, bring up workers by the degradation ladder, then
// balance the rest over them with per-shard retries and straggler
// re-dispatch (or run them in process when degraded).
func (f *Fleet) RunPayload(ctx context.Context, job campaign.PayloadJob) error {
	f.trace = obs.TraceFromContext(ctx)
	tasks := partition(job, f.shards())
	tally(shardsPlanned, len(tasks))

	var j *journal
	if f.Checkpoint != "" {
		var err error
		if j, err = openJournal(f.Checkpoint); err != nil {
			return err
		}
		defer j.close()
	}
	pending := resumeJournaled(job, tasks, j, f.Checkpoint, f.logf)
	if len(pending) == 0 {
		return ctx.Err()
	}

	reg, err := f.start(ctx, job.Campaign, len(pending))
	if err != nil {
		return err
	}
	if reg != nil {
		defer reg.close()
	} else if tel := obs.Active(); tel != nil {
		tel.Degraded.Set(1)
		tel.Events.Emit("dispatch.degraded", map[string]string{"campaign": job.Campaign})
		defer tel.Degraded.Set(0)
	}
	return runShardSlots(ctx, pending, f.workers(), func(ctx context.Context, t task) error {
		return f.runShard(ctx, job, t, j, reg)
	})
}

// start climbs down the degradation ladder and returns the registry
// the campaign's shards go through: remote endpoints when any joins
// within ConnectWait, else up to `pending` spawned workers, else nil —
// shards run in-process.
func (f *Fleet) start(ctx context.Context, campaignName string, pending int) (*registry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if f.remote() {
		reg, err := f.connect(ctx)
		if err != nil {
			return nil, err
		}
		if reg.waitReady(ctx, f.connectWait()) {
			return reg, nil
		}
		reg.close()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := "in-process execution"
		if len(f.Command) > 0 {
			next = "spawned workers"
		}
		f.logf("fleet: no workers reachable within %s; degrading to %s", f.connectWait(), next)
		if tel := obs.Active(); tel != nil {
			tel.Events.Emit("fleet.degraded", map[string]string{"campaign": campaignName})
		}
	}
	if len(f.Command) == 0 {
		return nil, nil
	}
	reg, err := f.spawnWorkers(ctx, min(f.workers(), pending))
	if err != nil {
		f.logf("dispatch: cannot spawn workers (%v); degrading to in-process execution", err)
		return nil, nil
	}
	return reg, nil
}

// shardEvent is one kind of shard bookkeeping the dispatcher reports.
type shardEvent int

const (
	shardsPlanned shardEvent = iota
	shardResumed
	shardDone
	shardRetried
)

// tally fans the dispatcher's shard bookkeeping out to every sink that
// reads it — registry counters, the stderr progress line and the live
// /dash and /events view — so they cannot disagree. n is the shard
// count for shardsPlanned and ignored otherwise.
func tally(ev shardEvent, n int) {
	tel := obs.Active()
	if tel == nil {
		return
	}
	switch ev {
	case shardsPlanned:
		tel.DispatchShards.Add(int64(n))
		tel.ShardsPlanned.Add(int64(n))
		tel.Progress.SetShards(n)
		tel.Live.SetShards(n)
	case shardResumed, shardDone:
		if ev == shardResumed {
			tel.DispatchResumed.Inc()
		}
		tel.DispatchDone.Inc()
		tel.ShardsDone.Inc()
		tel.Progress.ShardDone()
		tel.Live.ShardDone()
	case shardRetried:
		tel.DispatchRetries.Inc()
		tel.Progress.Retry()
		tel.Live.Retry()
	}
}

// resumeJournaled replays every journaled shard of the plan and
// returns the pending remainder in plan order. The journal is keyed by
// (campaign, plan hash, shard id) — pure functions of campaign
// identity — so a checkpoint written under one endpoint kind resumes
// under any other.
func resumeJournaled(job campaign.PayloadJob, tasks []task, j *journal, checkpoint string, logf func(string, ...any)) []task {
	if j == nil {
		return tasks
	}
	pending := tasks[:0]
	resumed := 0
	for _, t := range tasks {
		if payloads, ok := j.lookup(job.Campaign, hex64(job.PlanHash), hex64(t.id)); ok {
			if replayShard(job, t, payloads) {
				resumed++
				tally(shardResumed, 0)
				continue
			}
			logf("dispatch: journaled shard %s failed to replay; re-running it", hex64(t.id))
		}
		pending = append(pending, t)
	}
	if resumed > 0 {
		logf("dispatch: resumed %d/%d shards of %s from checkpoint %s", resumed, len(tasks), job.Campaign, checkpoint)
		if tel := obs.Active(); tel != nil {
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

// runShard drives one shard to completion — each attempt dispatched
// through the registry, or executed in process when degraded — then
// journals it. Infrastructure failures are retried with capped
// exponential backoff and deterministic jitter until the attempt
// budget is gone; permanent failures abort at once.
func (f *Fleet) runShard(ctx context.Context, job campaign.PayloadJob, t task, j *journal, reg *registry) error {
	attempts := f.attempts()
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
		var payloads []runPayload
		var err error
		if reg == nil {
			payloads, err = runShardInProcess(ctx, job, t, j != nil)
		} else {
			payloads, err = f.attemptShard(ctx, job, t, j != nil, reg)
		}
		if err == nil {
			if j != nil {
				if aerr := j.append(job.Campaign, hex64(job.PlanHash), hex64(t.id), payloads); aerr != nil {
					return aerr
				}
			}
			if attempt > 1 {
				f.logf("dispatch: shard %s (%d runs) completed on attempt %d/%d", hex64(t.id), len(t.indices), attempt, attempts)
			}
			if tel != nil {
				tel.ObserveShard(time.Since(shardStart).Seconds())
			}
			tally(shardDone, 0)
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			// Classification is logged exactly once per failure, here:
			// permanent failures never reach the retry loop below.
			f.logf("dispatch: shard %s: permanent failure (campaign-level error; re-dispatch cannot heal it): %v", hex64(t.id), err)
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
			d := campaign.BackoffDelay(f.BackoffBase, f.BackoffCap, f.Seed, t.id, attempt)
			// The retryable classification (with the error) is logged on
			// the shard's first failure only; later attempts log the
			// bare retry so a flapping shard cannot flood the log.
			if !classified {
				classified = true
				f.logf("dispatch: shard %s attempt %d/%d failed: %v (classified retryable); retrying on a fresh worker in %s",
					hex64(t.id), attempt, attempts, err, d)
			} else {
				f.logf("dispatch: shard %s attempt %d/%d failed; retrying in %s", hex64(t.id), attempt, attempts, d)
			}
			tally(shardRetried, 0)
			if tel != nil {
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

// flight is one in-flight dispatch of a shard to one worker.
type flight struct {
	w      *workerConn
	resp   response
	err    error
	wallMs int64 // round-trip time of this dispatch, for phase attribution
}

// attemptShard performs one attempt of one shard. The primary dispatch
// goes to the first idle worker; if it is still unanswered after the
// straggler deadline a duplicate goes to a second worker, and the first
// valid (integrity-checked) result wins — the loser's payloads are
// never stored, so duplication cannot change output. Workers that
// produced transport errors or corrupt results are destroyed (their
// endpoints reconnect or respawn fresh); healthy ones return to the
// rotation. With every worker gone for good the shard runs in-process.
func (f *Fleet) attemptShard(ctx context.Context, job campaign.PayloadJob, t task, journaling bool, reg *registry) ([]runPayload, error) {
	tel := obs.Active()
	trace := obs.TraceFromContext(ctx)
	var sp *obs.Span
	var start time.Time
	if tel != nil {
		start = time.Now()
		sp = obs.SpanFromContext(ctx).Child("dispatch.shard", map[string]string{
			"shard": hex64(t.id), "worker": reg.kind,
			"runs": strconv.Itoa(len(t.indices)),
		})
		defer sp.End()
	}
	w, err := reg.acquire(ctx, max(f.shardTimeout(), f.connectWait()))
	if err != nil {
		if errors.Is(err, errNoWorkers) {
			f.logf("fleet: no live workers; running shard %s in-process", hex64(t.id))
			return runShardInProcess(ctx, job, t, journaling)
		}
		return nil, err
	}
	queueMs := int64(0)
	if tel != nil {
		queueMs = time.Since(start).Milliseconds()
		tel.Live.UpdateShard(obs.ShardStatus{
			ID: hex64(t.id), Worker: w.id, State: "running",
			Runs: len(t.indices), QueueMs: queueMs,
		})
	}

	results := make(chan flight, 2)
	dispatch := func(w *workerConn) {
		req := request{
			Seq:      f.seq.Add(1),
			Campaign: job.Campaign,
			PlanHash: hex64(job.PlanHash),
			Shard:    hex64(t.id),
			Indices:  t.indices,
			Trace:    trace,
			Span:     sp.ID(),
		}
		tripStart := time.Now()
		resp, err := w.roundTrip(ctx, req, f.shardTimeout())
		results <- flight{w: w, resp: resp, err: err, wallMs: time.Since(tripStart).Milliseconds()}
	}
	inflight := 1
	go dispatch(w)

	var straggler *time.Timer
	var stragglerC <-chan time.Time
	if sa := f.stragglerAfter(); sa > 0 {
		straggler = time.NewTimer(sa)
		defer straggler.Stop()
		stragglerC = straggler.C
	}

	var lastErr error
	for inflight > 0 {
		select {
		case fl := <-results:
			inflight--
			if fl.err != nil {
				reg.destroy(fl.w)
				lastErr = fl.err
				continue
			}
			payloads, verr := verifyAndStore(job, t, fl.resp)
			if verr == nil {
				if tel != nil {
					// Attribute the winning flight: queue (waiting for a
					// worker), exec (the worker's own root-span time), net
					// (round trip minus exec — framing, pipes or TCP,
					// scheduling).
					execMs := obs.RootDurMs(fl.resp.Spans)
					netMs := max(fl.wallMs-execMs, 0)
					if reg.kind == "fleet" {
						sp.SetAttr("worker_id", fl.w.id)
					}
					sp.SetAttr("queue_ms", strconv.FormatInt(queueMs, 10))
					sp.SetAttr("exec_ms", strconv.FormatInt(execMs, 10))
					sp.SetAttr("net_ms", strconv.FormatInt(netMs, 10))
					tel.Events.FoldSpans(sp, trace, fl.resp.Spans)
					tel.TraceWorkerSpans.Add(int64(len(fl.resp.Spans)))
					tel.Live.UpdateShard(obs.ShardStatus{
						ID: hex64(t.id), Worker: fl.w.id, State: "done",
						Runs:    len(t.indices),
						WallMs:  time.Since(start).Milliseconds(),
						QueueMs: queueMs, ExecMs: execMs, NetMs: netMs,
					})
				}
				reg.release(fl.w)
				drainFlights(reg, results, inflight)
				return payloads, nil
			}
			var perm *permanentError
			if errors.As(verr, &perm) {
				// Deterministic campaign failure: every duplicate would
				// report the same thing. The worker itself is healthy.
				reg.release(fl.w)
				drainFlights(reg, results, inflight)
				return nil, verr
			}
			// Corrupt result: drop the worker, keep waiting on the
			// duplicate if one is racing.
			reg.destroy(fl.w)
			lastErr = verr
		case <-stragglerC:
			dup, ok := reg.tryAcquire()
			if !ok {
				// Every other worker is busy: look again shortly, so the
				// duplicate goes out as soon as one frees up.
				straggler.Reset(50 * time.Millisecond)
				continue
			}
			stragglerC = nil
			inflight++
			f.logf("fleet: shard %s unanswered after %s; re-dispatching to %s", hex64(t.id), f.stragglerAfter(), dup.id)
			if tel != nil {
				tel.FleetStragglers.Inc()
				tel.Events.Emit("fleet.straggler", map[string]string{
					"shard": hex64(t.id), "worker": dup.id,
				})
				tel.Live.UpdateShard(obs.ShardStatus{
					ID: hex64(t.id), Worker: dup.id, State: "retrying",
					Runs: len(t.indices), QueueMs: queueMs,
				})
			}
			go dispatch(dup)
		case <-ctx.Done():
			drainFlights(reg, results, inflight)
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// drainFlights reaps abandoned duplicate dispatches in the background:
// their results are discarded (never stored), their workers released
// or destroyed by health.
func drainFlights(reg *registry, results chan flight, inflight int) {
	if inflight <= 0 {
		return
	}
	go func() {
		for i := 0; i < inflight; i++ {
			fl := <-results
			if fl.err != nil {
				reg.destroy(fl.w)
			} else {
				reg.release(fl.w)
			}
		}
	}()
}

// verifyAndStore checks one shard response end to end — worker-side
// campaign error, index set, integrity hash — and stores its payloads.
// A campaign-level error comes back as a permanentError; any mismatch
// or decode failure is a retryable corruption.
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
