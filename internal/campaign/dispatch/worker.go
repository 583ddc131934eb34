package dispatch

import (
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/campaign"
	dnet "repro/internal/campaign/dispatch/net"
	"repro/internal/obs"
)

// Worker is the worker-process view of one campaign: enough to verify
// the parent and worker agree on the plan and to execute single runs
// into encoded payloads. Adapt builds one from any wire-capable
// campaign.
type Worker interface {
	// Name is the campaign's name.
	Name() string
	// Plan reports the plan length and campaign.PlanHash fingerprint.
	Plan() (n int, hash uint64, err error)
	// ExecuteEncoded performs run i and returns its encoded result.
	ExecuteEncoded(ctx context.Context, i int) ([]byte, error)
}

// adapter implements Worker over a generic campaign, building the plan
// lazily on first use and memoizing it for every subsequent shard.
type adapter[Run, Result, Out any] struct {
	c    campaign.Campaign[Run, Result, Out]
	wire campaign.Wire[Result]

	once    sync.Once
	plan    []Run
	hash    uint64
	planErr error
}

// Adapt wraps a campaign for worker-side serving. The campaign must
// implement campaign.Wire for its result type (embed
// campaign.JSONWire[Result]); Adapt fails fast otherwise.
func Adapt[Run, Result, Out any](c campaign.Campaign[Run, Result, Out]) (Worker, error) {
	w, ok := any(c).(campaign.Wire[Result])
	if !ok {
		return nil, fmt.Errorf("dispatch: campaign %s has no wire codec", c.Name())
	}
	return &adapter[Run, Result, Out]{c: c, wire: w}, nil
}

func (a *adapter[Run, Result, Out]) Name() string { return a.c.Name() }

func (a *adapter[Run, Result, Out]) resolve() {
	a.once.Do(func() {
		plan, err := a.c.Plan()
		if err != nil {
			a.planErr = fmt.Errorf("%s: plan: %w", a.c.Name(), err)
			return
		}
		a.plan = plan
		var keys []uint64
		if s, ok := any(a.c).(campaign.Sharder[Run]); ok {
			keys = make([]uint64, len(plan))
			for i, r := range plan {
				keys[i] = s.ShardKey(r, i)
			}
		}
		a.hash = campaign.PlanHash(a.c.Name(), len(plan), keys)
	})
}

func (a *adapter[Run, Result, Out]) Plan() (int, uint64, error) {
	a.resolve()
	return len(a.plan), a.hash, a.planErr
}

func (a *adapter[Run, Result, Out]) ExecuteEncoded(ctx context.Context, i int) (payload []byte, err error) {
	a.resolve()
	if a.planErr != nil {
		return nil, a.planErr
	}
	if i < 0 || i >= len(a.plan) {
		return nil, fmt.Errorf("%s: run %d outside plan of %d", a.c.Name(), i, len(a.plan))
	}
	// Recover panics into an error naming the run, like the engine
	// does: the parent then aborts with a real diagnostic instead of
	// retrying a deterministic crash until the budget is gone.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: run %d panicked: %v\n%s", a.c.Name(), i, r, debug.Stack())
		}
	}()
	var start time.Time
	tel := obs.Active()
	if tel != nil {
		start = time.Now()
	}
	res, err := a.c.Execute(ctx, a.plan[i], i)
	if tel != nil {
		tel.RunDur.ObserveSince(start)
		// Worker-side run counts live under their own family; the
		// parent owns repro_campaign_runs_done_total (one increment per
		// landed result), so merging these can never double count.
		tel.Reg.Counter("repro_worker_runs_total", obs.L("campaign", a.c.Name())).Inc()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: run %d: %w", a.c.Name(), i, err)
	}
	return a.wire.EncodeResult(res)
}

// DefaultHeartbeat is the worker ping interval when a Fleet leaves
// Heartbeat zero. The coordinator declares a connection dead
// after three missed beats, so hang detection reacts within ~3×this
// while a genuinely slow shard (whose agent keeps pinging) gets the
// full shard deadline.
const DefaultHeartbeat = 2 * time.Second

// LookupFactory builds a campaign lookup from the spec a coordinator
// ships at handshake. Workers start before any campaign exists, so the
// factory runs once per connection, when the coordinator's netConfig
// frame arrives.
type LookupFactory func(ctx context.Context, spec string) (func(name string) (Worker, error), error)

// NetServeOptions tunes a networked worker agent.
type NetServeOptions struct {
	// TLS wraps the transport when non-nil (server config for ServeNet,
	// client config for DialAndServe).
	TLS *tls.Config
	// Tap, when non-nil, intercepts every frame — the chaos seam.
	Tap dnet.Tap
	// Log receives agent diagnostics (nil discards them).
	Log io.Writer
	// Ready, when non-nil, is called once with the bound listen address
	// (ServeNet only) — tests listen on ":0" and need the port.
	Ready func(addr net.Addr)
	// ReconnectBase and ReconnectCap shape DialAndServe's capped
	// reconnect backoff (zero selects the campaign package defaults).
	ReconnectBase, ReconnectCap time.Duration
}

func (o NetServeOptions) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// ServeNet runs a worker agent that listens on addr and serves shard
// requests on every accepted coordinator connection until ctx is
// canceled. Each connection handshakes independently (hello out,
// netConfig in, ack out) and builds its own campaign lookup from the
// spec the coordinator ships, so one long-lived agent can serve many
// campaigns — and many coordinators — in sequence.
func ServeNet(ctx context.Context, addr string, factory LookupFactory, o NetServeOptions) error {
	l, err := dnet.Listen(addr, o.TLS)
	if err != nil {
		return fmt.Errorf("dispatch: worker agent cannot listen on %s: %w", addr, err)
	}
	if o.Ready != nil {
		o.Ready(l.Addr())
	}
	o.logf("worker agent: serving shards on %s", l.Addr())
	go func() {
		<-ctx.Done()
		l.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		raw, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("dispatch: worker agent accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveConn(ctx, dnet.NewConn(raw, o.Tap, 0), factory, o.Log)
		}()
	}
}

// DialAndServe runs a worker agent that registers with a coordinator
// at addr (the coordinator's -fleet listen endpoint) and serves shards
// over the dialed connection, reconnecting with capped backoff when
// the coordinator goes away. It returns when ctx is canceled.
func DialAndServe(ctx context.Context, addr string, factory LookupFactory, o NetServeOptions) error {
	seed := int64(os.Getpid())
	fails := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		c, err := dnet.Dial(ctx, addr, o.TLS, o.Tap, 0)
		if err == nil {
			o.logf("worker agent: registered with coordinator %s", addr)
			fails = 0
			serveConn(ctx, c, factory, o.Log)
			if ctx.Err() == nil {
				o.logf("worker agent: coordinator %s went away; reconnecting", addr)
			}
			continue
		}
		fails++
		if fails == 1 {
			o.logf("worker agent: cannot reach coordinator %s (%v); retrying with backoff", addr, err)
		}
		d := campaign.BackoffDelay(o.ReconnectBase, o.ReconnectCap, seed, 0, fails)
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// ServeStdio runs the worker side of the shard protocol on this
// process's stdin/stdout — the hidden worker mode of a process a Fleet
// spawns — until the coordinator closes the pipe or ctx ends.
func ServeStdio(ctx context.Context, factory LookupFactory) {
	serveConn(ctx, dnet.NewConn(stdio{r: os.Stdin, w: os.Stdout}, nil, 0), factory, nil)
}

// stdio joins the two pipe ends of a worker process into one duplex
// stream: the coordinator reads the child's stdout and writes its
// stdin, the child the reverse. The read deadline reaches the read
// end, so a stopped child is caught by missed heartbeats just as a
// silent socket is.
type stdio struct {
	r *os.File
	w io.WriteCloser
}

func (s stdio) Read(p []byte) (int, error)        { return s.r.Read(p) }
func (s stdio) Write(p []byte) (int, error)       { return s.w.Write(p) }
func (s stdio) SetReadDeadline(t time.Time) error { return s.r.SetReadDeadline(t) }

func (s stdio) Close() error {
	s.w.Close()
	return s.r.Close()
}

// serveConn speaks the worker side of the shard protocol on one
// connection: hello, netConfig handshake with spec ack, an optional
// heartbeat ticker for the connection's lifetime, then the request →
// metrics-delta → response loop. A canceled ctx closes the connection,
// which from the coordinator's side is indistinguishable from a killed
// worker — the recovery path the fleet tests exercise.
func serveConn(ctx context.Context, c *dnet.Conn, factory LookupFactory, log io.Writer) {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format+"\n", args...)
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer c.Close()
	go func() {
		<-ctx.Done()
		c.Close()
	}()

	if err := c.WriteFrame(hello{Proto: protoVersion, PID: os.Getpid(), Token: obs.ProcessToken()}); err != nil {
		return
	}
	var cfg netConfig
	if err := c.ReadFrame(&cfg); err != nil {
		if ctx.Err() == nil {
			logf("worker agent: handshake with %s failed: %v", c.RemoteAddr(), err)
		}
		return
	}
	if cfg.Trace != "" {
		// Announce the campaign trace id so a fleet's scattered agent
		// logs can be correlated by grep; per-shard tracing rides each
		// request frame.
		logf("worker agent: serving campaign trace %s for %s", cfg.Trace, c.RemoteAddr())
	}
	lookup, err := factory(ctx, cfg.Spec)
	ack := response{}
	if err != nil {
		ack.Error = fmt.Sprintf("building campaign lookup: %v", err)
		logf("worker agent: rejecting spec from %s: %v", c.RemoteAddr(), err)
	}
	if werr := c.WriteFrame(envelope{Resp: &ack}); werr != nil || err != nil {
		return
	}

	if cfg.HeartbeatMs > 0 {
		go func() {
			t := time.NewTicker(time.Duration(cfg.HeartbeatMs) * time.Millisecond)
			defer t.Stop()
			var seq uint64
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					seq++
					if err := c.WriteFrame(envelope{Ping: &pingFrame{Seq: seq}}); err != nil {
						// A dead coordinator connection: unblock the serve
						// loop so the agent can take the next coordinator.
						cancel()
						return
					}
				}
			}
		}()
	}

	workers := make(map[string]Worker)
	var deltas obs.DeltaTracker
	for {
		if ctx.Err() != nil {
			return
		}
		var req request
		switch err := c.ReadFrame(&req); {
		case err == io.EOF:
			return
		case err != nil:
			if ctx.Err() == nil {
				logf("worker agent: connection to %s lost: %v", c.RemoteAddr(), err)
			}
			return
		}
		resp := serveShard(ctx, workers, lookup, req)
		// Ship this shard's telemetry movement ahead of its response:
		// once the coordinator has the response it may declare the
		// campaign done, so the counts must already be merged by then.
		if tel := obs.Active(); tel != nil {
			if moved := deltas.Delta(tel.Reg); len(moved) > 0 {
				if err := c.WriteFrame(envelope{Metrics: moved}); err != nil {
					return
				}
			}
		}
		if err := c.WriteFrame(envelope{Resp: &resp}); err != nil {
			return
		}
	}
}

// serveShard executes one shard request; failures become the
// response's Error field rather than killing the serve loop. When the
// request carries a trace id, the worker records its spans (shard root,
// plan resolution, run execution with golden-cache attribution) into a
// TraceRecorder and ships them on the response, where the parent folds
// them into the campaign trace. Recording is observational only: it
// touches nothing the integrity hash covers.
func serveShard(ctx context.Context, workers map[string]Worker, lookup func(string) (Worker, error), req request) (resp response) {
	resp = response{Seq: req.Seq, Shard: req.Shard}
	var rec *obs.TraceRecorder
	var shardSpan *obs.RecSpan
	if req.Trace != "" {
		rec = obs.NewTraceRecorder()
		shardSpan = rec.Start("worker.shard", 0, map[string]string{
			"campaign": req.Campaign,
			"shard":    req.Shard,
			"runs":     fmt.Sprintf("%d", len(req.Indices)),
		})
		// resp is a named result: the deferred drain runs after every
		// return below, so error responses carry their spans too.
		defer func() { shardSpan.End(); resp.Spans = rec.Drain() }()
	}
	wk, ok := workers[req.Campaign]
	if !ok {
		var err error
		if wk, err = lookup(req.Campaign); err != nil {
			resp.Error = fmt.Sprintf("unknown campaign %q: %v", req.Campaign, err)
			return resp
		}
		workers[req.Campaign] = wk
	}
	planSpan := rec.Start("worker.plan", shardSpan.ID(), nil)
	n, hash, err := wk.Plan()
	planSpan.End()
	if err != nil {
		resp.Error = err.Error()
		return resp
	}
	if got := hex64(hash); got != req.PlanHash {
		resp.Error = fmt.Sprintf("plan mismatch for %s: worker %s, parent %s (n=%d) — parent and worker disagree on campaign identity",
			req.Campaign, got, req.PlanHash, n)
		return resp
	}
	tel := obs.Active()
	execSpan := rec.Start("worker.exec", shardSpan.ID(), nil)
	var preHits int64
	if tel != nil {
		preHits = tel.GoldenHits.Value()
	}
	results := make([]runPayload, 0, len(req.Indices))
	for _, i := range req.Indices {
		payload, err := wk.ExecuteEncoded(ctx, i)
		if err != nil {
			execSpan.End()
			resp.Error = err.Error()
			return resp
		}
		results = append(results, runPayload{Index: i, Payload: payload})
	}
	if execSpan != nil {
		execSpan.SetAttr("runs", fmt.Sprintf("%d", len(results)))
		if tel != nil {
			execSpan.SetAttr("golden_hits", fmt.Sprintf("%d", tel.GoldenHits.Value()-preHits))
		}
	}
	execSpan.End()
	resp.Results = results
	resp.Hash = hex64(payloadHash(parseHex64(req.Shard), results))
	return resp
}
