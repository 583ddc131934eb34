package dispatch

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign"
	dnet "repro/internal/campaign/dispatch/net"
	"repro/internal/obs"
)

// helloTimeout bounds a fresh connection's handshake: a worker that has
// not announced itself and acknowledged the spec within it is dropped.
// Heartbeats only start once the handshake is done, so the dead-peer
// deadline cannot bound this phase.
const helloTimeout = 30 * time.Second

// errNoWorkers reports that the registry stayed empty past its
// patience: the shard runs in-process instead.
var errNoWorkers = errors.New("no live fleet workers")

// connect starts the remote endpoints: one dial loop per configured
// address (reconnecting with capped backoff for as long as the
// campaign runs) and, when Listen is set, an accept loop for incoming
// worker registrations.
func (f *Fleet) connect(ctx context.Context) (*registry, error) {
	reg := newRegistry(ctx, f, "fleet")
	if f.Listen != "" {
		l, err := dnet.Listen(f.Listen, f.ListenTLS)
		if err != nil {
			reg.close()
			return nil, fmt.Errorf("fleet: cannot listen on %s: %w", f.Listen, err)
		}
		f.logf("fleet: accepting worker registrations on %s", l.Addr())
		context.AfterFunc(reg.ctx, func() { l.Close() })
		reg.wg.Add(1)
		go reg.acceptLoop(l)
	}
	for _, addr := range f.Addrs {
		joined := false
		reg.keep(addr, nil, func(ctx context.Context) (*workerConn, error) {
			c, err := dnet.Dial(ctx, addr, f.TLS, f.Tap, 0)
			if err != nil {
				return nil, err
			}
			w, err := f.handshake(ctx, c, addr)
			if err != nil {
				return nil, err
			}
			if joined {
				f.logf("fleet: reconnected to worker %s (pid %d)", addr, w.pid)
				if tel := obs.Active(); tel != nil {
					tel.FleetReconnects.Inc()
					tel.Events.Emit("fleet.reconnect", map[string]string{"worker": addr})
				}
			} else {
				f.logf("fleet: worker %s joined (pid %d)", addr, w.pid)
				joined = true
			}
			return w, nil
		})
	}
	return reg, nil
}

// spawnWorkers starts n worker-process endpoints. The first worker is
// spawned before this returns: if it cannot be (missing binary, fork
// limits, sandbox) the error comes back and the campaign degrades to
// in-process execution instead of failing.
func (f *Fleet) spawnWorkers(ctx context.Context, n int) (*registry, error) {
	reg := newRegistry(ctx, f, "subprocess")
	first, err := f.spawn(reg.ctx)
	if err != nil {
		reg.close()
		return nil, err
	}
	for k := 0; k < n; k++ {
		reg.keep("child#"+strconv.Itoa(k), first, f.spawn)
		first = nil
	}
	return reg, nil
}

// spawn starts one worker process and handshakes it over its
// stdin/stdout pipes.
func (f *Fleet) spawn(ctx context.Context) (*workerConn, error) {
	childIn, toChild, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	fromChild, childOut, err := os.Pipe()
	if err != nil {
		childIn.Close()
		toChild.Close()
		return nil, err
	}
	cmd := exec.Command(f.Command[0], f.Command[1:]...)
	cmd.Env = append(os.Environ(), f.Env...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = childIn, childOut, f.WorkerStderr
	err = cmd.Start()
	childIn.Close()
	childOut.Close()
	c := dnet.NewConn(stdio{r: fromChild, w: toChild}, f.Tap, 0)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("starting worker %q: %w", f.Command[0], err)
	}
	w, err := f.handshake(ctx, c, workerID(cmd.Process.Pid))
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, err
	}
	w.proc = cmd
	return w, nil
}

// workerID names a spawned worker in logs, live views and span
// attributes.
func workerID(pid int) string { return fmt.Sprintf("pid:%d", pid) }

// handshake completes the coordinator side on a fresh connection:
// hello in, spec and heartbeat interval out, spec ack in. The returned
// worker has its frame reader running; on failure the connection is
// closed. Canceling ctx aborts a pending handshake.
func (f *Fleet) handshake(ctx context.Context, c *dnet.Conn, id string) (*workerConn, error) {
	stop := context.AfterFunc(ctx, func() { c.Close() })
	defer stop()
	fail := func(format string, args ...any) (*workerConn, error) {
		c.Close()
		return nil, fmt.Errorf(format, args...)
	}
	c.SetReadTimeout(helloTimeout)
	var h hello
	if err := c.ReadFrame(&h); err != nil {
		return fail("reading hello: %w", err)
	}
	if h.Proto != protoVersion {
		return fail("worker speaks protocol %d, want %d", h.Proto, protoVersion)
	}
	if err := c.WriteFrame(netConfig{Spec: f.Spec, HeartbeatMs: f.heartbeat().Milliseconds(), Trace: f.trace}); err != nil {
		return fail("sending spec: %w", err)
	}
	for {
		var env envelope
		if err := c.ReadFrame(&env); err != nil {
			return fail("reading spec ack: %w", err)
		}
		if env.Resp == nil {
			continue // tolerate early pings
		}
		if env.Resp.Error != "" {
			return fail("worker rejected spec: %s", env.Resp.Error)
		}
		break
	}
	c.SetReadTimeout(f.deadAfter())
	w := &workerConn{
		id:     id,
		pid:    h.PID,
		token:  h.Token,
		conn:   c,
		frames: make(chan response, 2),
		done:   make(chan struct{}),
	}
	go w.read()
	return w, nil
}

// workerConn is one live worker connection plus its frame reader.
type workerConn struct {
	id     string
	pid    int
	token  string
	conn   *dnet.Conn
	proc   *exec.Cmd // the spawned process; nil for network agents
	frames chan response
	done   chan struct{}
	err    error
}

// read drains the connection: telemetry deltas are merged as they
// arrive, responses delivered to the shard slot, pings consumed (each
// arriving frame refreshes the read deadline, which is the liveness
// check). Any read error — EOF from a crashed worker, the
// missed-heartbeat deadline — ends the loop; w.err keeps the cause.
func (w *workerConn) read() {
	defer close(w.done)
	for {
		var env envelope
		if err := w.conn.ReadFrame(&env); err != nil {
			if err != io.EOF {
				w.err = err
			}
			return
		}
		// Skip the merge for a worker that shares this process (its hello
		// carried our own token — in-process test agents do this): its
		// movement already landed in our registry, and merging the deltas
		// again would double count every metric it touched.
		if env.Metrics != nil && w.token != obs.ProcessToken() {
			if tel := obs.Active(); tel != nil {
				tel.Reg.Merge(env.Metrics)
			}
		}
		if env.Resp != nil {
			select {
			case w.frames <- *env.Resp:
			default:
				// An unsolicited response (nothing waiting): stale frame
				// from an abandoned round trip. Drop it — the worker is
				// destroyed after any round-trip failure, so this cannot
				// starve a live request.
			}
		}
	}
}

// roundTrip sends one shard request and waits for its response within
// the deadline. A connection that dies mid-shard (EOF from a crashed
// process, the heartbeat deadline of a stopped or partitioned one)
// surfaces via w.done; a worker that hangs while pinging surfaces as
// the deadline overrun.
func (w *workerConn) roundTrip(ctx context.Context, req request, deadline time.Duration) (response, error) {
	if err := w.conn.WriteFrame(req); err != nil {
		return response{}, fmt.Errorf("worker crashed mid-shard (%s: request write failed: %v)", w.id, err)
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
		return response{}, fmt.Errorf("worker crashed mid-shard (%s: connection lost: %s)", w.id, errString(w.err))
	case <-timer.C:
		return response{}, fmt.Errorf("worker hung (no response within %s from %s)", deadline, w.id)
	case <-ctx.Done():
		return response{}, ctx.Err()
	}
}

// close tears the connection down and waits for the reader to finish;
// a spawned worker is then killed and reaped.
func (w *workerConn) close() {
	w.conn.Close()
	<-w.done
	if w.proc != nil {
		w.proc.Process.Kill()
		w.proc.Wait()
	}
}

// dead reports whether the worker's connection has ended.
func (w *workerConn) dead() bool {
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

// registry tracks a campaign's live worker connections and hands idle
// ones to shard slots. Endpoint loops own their workers' lifecycles:
// add on handshake, remove and tear down on death, then reconnect or
// respawn (dialed and spawned endpoints) or forget (registrations).
type registry struct {
	f *Fleet
	// kind labels the endpoints ("fleet" or "subprocess") on
	// dispatch.shard spans.
	kind   string
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	notify chan struct{}

	mu     sync.Mutex
	idle   []*workerConn
	all    map[*workerConn]struct{}
	live   int
	closed bool
}

func newRegistry(ctx context.Context, f *Fleet, kind string) *registry {
	ctx, cancel := context.WithCancel(ctx)
	return &registry{
		f:      f,
		kind:   kind,
		ctx:    ctx,
		cancel: cancel,
		notify: make(chan struct{}, 1),
		all:    make(map[*workerConn]struct{}),
	}
}

func (r *registry) wake() {
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// add registers a freshly handshaken worker; false means the registry
// already closed and the caller must tear the worker down.
func (r *registry) add(w *workerConn) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	r.all[w] = struct{}{}
	r.idle = append(r.idle, w)
	r.live++
	live := r.live
	r.mu.Unlock()
	if tel := obs.Active(); tel != nil {
		tel.FleetWorkers.Set(int64(live))
		if w.proc != nil {
			tel.WorkerSpawns.Inc()
			tel.Events.Emit("dispatch.spawn", map[string]string{"pid": strconv.Itoa(w.pid)})
		} else {
			tel.FleetRegistrations.Inc()
			tel.Events.Emit("fleet.join", map[string]string{
				"worker": w.id, "pid": strconv.Itoa(w.pid),
			})
		}
		tel.Live.WorkerJoin(w.id, w.pid)
	}
	r.wake()
	return true
}

// remove forgets a dead worker.
func (r *registry) remove(w *workerConn) {
	r.mu.Lock()
	if _, ok := r.all[w]; !ok {
		r.mu.Unlock()
		return
	}
	delete(r.all, w)
	for i, iw := range r.idle {
		if iw == w {
			r.idle = append(r.idle[:i], r.idle[i+1:]...)
			break
		}
	}
	r.live--
	live := r.live
	r.mu.Unlock()
	if tel := obs.Active(); tel != nil {
		tel.FleetWorkers.Set(int64(live))
		tel.Live.WorkerLost(w.id)
	}
	r.wake()
}

// tryAcquire pops an idle live worker without waiting.
func (r *registry) tryAcquire() (*workerConn, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for n := len(r.idle); n > 0; n = len(r.idle) {
		w := r.idle[n-1]
		r.idle = r.idle[:n-1]
		if !w.dead() {
			return w, true
		}
	}
	return nil, false
}

// acquire blocks until an idle worker is available. Busy workers are
// waited on indefinitely (they release when their shard settles), but
// if the registry stays completely empty for maxEmpty the caller gets
// errNoWorkers and runs the shard locally.
func (r *registry) acquire(ctx context.Context, maxEmpty time.Duration) (*workerConn, error) {
	emptyDeadline := time.Now().Add(maxEmpty)
	for {
		if w, ok := r.tryAcquire(); ok {
			return w, nil
		}
		r.mu.Lock()
		empty := r.live == 0
		r.mu.Unlock()
		if empty {
			if time.Now().After(emptyDeadline) {
				return nil, errNoWorkers
			}
		} else {
			emptyDeadline = time.Now().Add(maxEmpty)
		}
		select {
		case <-r.notify:
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// release returns a healthy worker to the rotation.
func (r *registry) release(w *workerConn) {
	if w.dead() {
		return // its endpoint loop is already accounting for the death
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.idle = append(r.idle, w)
	r.mu.Unlock()
	r.wake()
}

// destroy drops a suspect worker hard; its endpoint loop tears it down
// and reconnects or respawns fresh.
func (r *registry) destroy(w *workerConn) {
	if tel := obs.Active(); tel != nil {
		tel.WorkerKills.Inc()
	}
	w.conn.Close()
}

// waitReady blocks until at least one worker has joined, the wait
// budget is spent, or ctx ends. It reports whether the registry is
// usable.
func (r *registry) waitReady(ctx context.Context, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for {
		r.mu.Lock()
		live := r.live
		r.mu.Unlock()
		if live > 0 {
			return true
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		select {
		case <-r.notify:
		case <-time.After(min(remain, 20*time.Millisecond)):
		case <-ctx.Done():
			return false
		}
	}
}

// close tears the whole registry down: stops the endpoint loops,
// closes every connection (killing and reaping spawned workers), waits
// for the loops to end. Idempotent.
func (r *registry) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.closed = true
	workers := make([]*workerConn, 0, len(r.all))
	for w := range r.all {
		workers = append(workers, w)
	}
	r.mu.Unlock()
	r.cancel()
	for _, w := range workers {
		w.conn.Close()
	}
	r.wg.Wait()
	if tel := obs.Active(); tel != nil {
		tel.FleetWorkers.Set(0)
	}
}

// serve keeps one handshaken worker in the rotation until its
// connection dies, then tears it down.
func (r *registry) serve(w *workerConn) {
	if !r.add(w) {
		w.close()
		return
	}
	<-w.done
	r.remove(w)
	w.close()
	if r.ctx.Err() == nil {
		r.f.logf("fleet: lost worker %s (%s)", w.id, errString(w.err))
	}
}

// keep maintains one dialed or spawned endpoint for the registry's
// lifetime: open it, serve it until its connection dies, open it again
// — after capped backoff while opening fails. w, when non-nil, is an
// already opened first connection.
func (r *registry) keep(name string, w *workerConn, open func(ctx context.Context) (*workerConn, error)) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		f := r.f
		for fails := 0; r.ctx.Err() == nil; {
			if w == nil {
				var err error
				if w, err = open(r.ctx); err != nil {
					if r.ctx.Err() != nil {
						return
					}
					fails++
					if fails == 1 {
						f.logf("fleet: worker %s unavailable (%v); retrying with backoff", name, err)
					}
					select {
					case <-time.After(campaign.BackoffDelay(f.BackoffBase, f.BackoffCap, f.Seed, fnvString(name), fails)):
					case <-r.ctx.Done():
						return
					}
					continue
				}
			}
			fails = 0
			r.serve(w)
			w = nil
		}
	}()
}

// acceptLoop admits incoming worker registrations (DialAndServe
// agents) for as long as the campaign runs. A registered worker that
// drops is forgotten — re-registration is the agent's job.
func (r *registry) acceptLoop(l net.Listener) {
	defer r.wg.Done()
	f := r.f
	for n := 1; ; n++ {
		raw, err := l.Accept()
		if err != nil {
			return // listener closed on shutdown
		}
		id := fmt.Sprintf("%s#%d", raw.RemoteAddr(), n)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			w, err := f.handshake(r.ctx, dnet.NewConn(raw, f.Tap, 0), id)
			if err != nil {
				if r.ctx.Err() == nil {
					f.logf("fleet: registration from %s failed: %v", id, err)
				}
				return
			}
			f.logf("fleet: worker %s registered (pid %d)", id, w.pid)
			r.serve(w)
		}()
	}
}

func errString(err error) string {
	if err == nil {
		return "connection closed"
	}
	return err.Error()
}

func fnvString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
