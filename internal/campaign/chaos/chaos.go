// Package chaos injects faults into the campaign engine itself.
//
// Chaos wraps any campaign.Executor and, from a seeded deterministic
// PRNG, makes a chosen fraction of runs misbehave the first time they
// execute: panic, stall past a deadline, fail with a spurious error,
// drop their result, or corrupt their encoded shard payload. Faults
// fire at the same seams the real failure modes use — the per-run
// function the executor drives, and the payload store the dispatcher
// feeds — so the engine's recovery machinery (campaign.Retry, the
// dispatch.Fleet shard retry) is exercised exactly as a real
// crash, hang or corrupted result would exercise it.
//
// Every fault decision is a pure function of (Seed, run index), so a
// chaos campaign is reproducible, and faults fire only on a run's
// first attempt, so a wrapper with any retry budget converges. Tests
// use this to pin that a chaos-ridden campaign reduces byte-identical
// to a serial one.
package chaos

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// Fault names one injected failure kind.
type Fault string

const (
	// FaultNone marks a run left alone.
	FaultNone Fault = "none"
	// FaultPanic panics inside the run function.
	FaultPanic Fault = "panic"
	// FaultDelay stalls the run past its deadline and then fails it, as
	// a worker answering after the dispatcher gave up would.
	FaultDelay Fault = "delay"
	// FaultError fails the run with a spurious (non-deterministic) error.
	FaultError Fault = "error"
	// FaultDrop loses the run's result: the run function is never
	// invoked (plain seam), or the payload is rejected unstored
	// (payload seam).
	FaultDrop Fault = "drop"
	// FaultCorrupt flips bytes in the run's encoded payload before it
	// is stored, tripping the dispatcher's integrity/decode checks.
	// Meaningful only on the payload seam; on the plain seam it is a
	// no-op (there is no encoded result to corrupt).
	FaultCorrupt Fault = "corrupt"
)

// Chaos is an Executor wrapper that injects deterministic faults into
// the runs it forwards to Inner. Compose it outside the recovery layer
// it is meant to exercise: Chaos{Inner: Retry{Inner: Sharded{...}}}
// lets Retry heal the injected panics/errors/delays/drops, and
// Chaos{Inner: &dispatch.Fleet{...}} lets the dispatcher's shard retry
// heal injected payload corruption.
type Chaos struct {
	Inner campaign.Executor
	// Seed drives every fault decision; same seed, same faults.
	Seed int64
	// Per-kind fault probabilities in [0, 1]; their cumulative sum
	// should stay <= 1. A run draws one value in [0, 1) from
	// (Seed, index) and falls into at most one kind.
	PanicRate, ErrorRate, DelayRate, DropRate, CorruptRate float64
	// Delay is how long a FaultDelay stalls before failing (0 stalls
	// not at all — the "deadline" is simulated by the error itself).
	Delay time.Duration
	// Sleep implements the stall (nil uses time.Sleep); tests inject a
	// recorder.
	Sleep func(time.Duration)
	// OnFault observes every injected fault (may be called from many
	// goroutines).
	OnFault func(index int, kind Fault)
}

func (c Chaos) Name() string {
	return fmt.Sprintf("chaos(%s,seed=%d)", c.Inner.Name(), c.Seed)
}

// decide returns the fault assigned to run index: a pure function of
// (Seed, index), stable across seams, attempts and executors.
func (c Chaos) decide(index int) Fault {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(c.Seed))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(index))
	h.Write(buf[:])
	// FNV-1a's high bits respond poorly to trailing bytes (the index
	// would barely move the draw); finish with a 64-bit avalanche mix
	// before taking the top 53 bits as a uniform draw.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	u := float64(x>>11) / float64(1<<53)
	for _, band := range []struct {
		rate float64
		kind Fault
	}{
		{c.PanicRate, FaultPanic},
		{c.ErrorRate, FaultError},
		{c.DelayRate, FaultDelay},
		{c.DropRate, FaultDrop},
		{c.CorruptRate, FaultCorrupt},
	} {
		if u < band.rate {
			return band.kind
		}
		u -= band.rate
	}
	return FaultNone
}

func (c Chaos) fired(index int, kind Fault) {
	if c.OnFault != nil {
		c.OnFault(index, kind)
	}
	if tel := obs.Active(); tel != nil {
		tel.Reg.Counter("repro_chaos_faults_total", obs.L("kind", string(kind))).Inc()
		tel.Events.Emit("chaos.fault", map[string]string{
			"run":  strconv.Itoa(index),
			"kind": string(kind),
		})
	}
}

// onceTracker arms each run's fault exactly once, so retries converge.
type onceTracker struct {
	mu    sync.Mutex
	fired map[int]bool
}

func (t *onceTracker) arm(index int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fired[index] {
		return false
	}
	t.fired[index] = true
	return true
}

// Run drives Inner with a run function that misbehaves on each faulted
// run's first attempt: panics, spurious errors, past-deadline delays
// and dropped results all surface here. FaultCorrupt has nothing to
// corrupt on this seam and passes through.
func (c Chaos) Run(ctx context.Context, n int, keys []uint64, fn func(i int) error) error {
	once := &onceTracker{fired: make(map[int]bool)}
	return c.Inner.Run(ctx, n, keys, func(i int) error {
		kind := c.decide(i)
		if kind == FaultNone || kind == FaultCorrupt || !once.arm(i) {
			return fn(i)
		}
		c.fired(i, kind)
		switch kind {
		case FaultPanic:
			panic(fmt.Sprintf("chaos: injected panic (run %d)", i))
		case FaultDelay:
			if c.Delay > 0 {
				sleep := c.Sleep
				if sleep == nil {
					sleep = time.Sleep
				}
				sleep(c.Delay)
			}
			return fmt.Errorf("chaos: run %d answered after its deadline", i)
		case FaultError:
			return fmt.Errorf("chaos: injected spurious error (run %d)", i)
		default: // FaultDrop: fn never runs, the result is simply missing.
			return fmt.Errorf("chaos: dropped result of run %d", i)
		}
	})
}

// RunPayload forwards the job to Inner (when Inner moves payloads)
// with a Store that drops or corrupts faulted runs' payloads on first
// delivery — the dispatcher sees a decode/integrity failure and
// re-runs the shard. Exec is left alone on this seam: in-process
// (degraded) execution treats run errors as deterministic campaign
// failures, which an injected fault is not. When Inner has no payload
// path, the job degrades to the plain seam with the full fault set.
func (c Chaos) RunPayload(ctx context.Context, job campaign.PayloadJob) error {
	pex, ok := c.Inner.(campaign.PayloadExecutor)
	if !ok {
		return c.Run(ctx, job.N, job.Keys, job.Exec)
	}
	once := &onceTracker{fired: make(map[int]bool)}
	store := job.Store
	job.Store = func(i int, payload []byte) error {
		kind := c.decide(i)
		if (kind != FaultDrop && kind != FaultCorrupt) || !once.arm(i) {
			return store(i, payload)
		}
		c.fired(i, kind)
		if kind == FaultDrop {
			return fmt.Errorf("chaos: dropped payload of run %d", i)
		}
		mangled := append([]byte(nil), payload...)
		for k := range mangled {
			mangled[k] ^= 0xa5
		}
		if err := store(i, mangled); err != nil {
			return err
		}
		// The mangled payload decoded anyway; still report the fault so
		// the dispatcher re-runs the shard and the good payload lands.
		return fmt.Errorf("chaos: corrupted payload of run %d", i)
	}
	return pex.RunPayload(ctx, job)
}
