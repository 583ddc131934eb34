package campaign

import (
	"context"
	"fmt"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Executor schedules the n independent runs of a campaign plan. Run
// invokes fn(i) at most once for every i in [0, n) and returns the
// first error (runs already in flight finish; queued runs are
// abandoned). keys, when non-nil, holds run i's shard key at keys[i];
// executors without a sharding notion ignore it. Implementations must
// recover panics out of fn into a *PanicError, so one poisoned run
// produces a diagnostic instead of killing the process.
type Executor interface {
	// Name identifies the executor in logs and test failures.
	Name() string
	Run(ctx context.Context, n int, keys []uint64, fn func(i int) error) error
}

// PanicError is a panic recovered from one campaign run.
type PanicError struct {
	// Index is the plan index of the run that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("run panicked: %v\n%s", e.Value, e.Stack)
}

// Unwrap exposes the panic value as the error's cause when the run
// panicked with an error (panic(err) is common in library code), so
// engine diagnostics pass errors.Is/errors.As checks against the
// underlying error. Panics with non-error values have no cause.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// call invokes fn(i), converting a panic into a *PanicError.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Serial executes the plan in index order on the calling goroutine.
// It is the reference semantics every other executor must reproduce
// byte-for-byte.
type Serial struct{}

func (Serial) Name() string { return "serial" }

func (Serial) Run(ctx context.Context, n int, _ []uint64, fn func(i int) error) error {
	// Serial is one shard covering the whole plan: the shard telemetry
	// below keeps progress and bench percentiles meaningful in -workers 1
	// mode without changing execution in any way.
	tel := obs.Active()
	var start time.Time
	var sp *obs.Span
	if tel != nil && n > 0 {
		tel.ShardsPlanned.Inc()
		tel.Progress.SetShards(1)
		tel.Live.SetShards(1)
		sp = obs.SpanFromContext(ctx).Child("shard", map[string]string{
			"shard": "0", "runs": strconv.Itoa(n),
		})
		start = time.Now()
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			sp.End()
			return err
		}
		if err := call(fn, i); err != nil {
			sp.End()
			return err
		}
	}
	if tel != nil && n > 0 {
		sp.End()
		wall := time.Since(start)
		tel.ObserveShard(wall.Seconds())
		tel.ShardsDone.Inc()
		tel.Progress.ShardDone()
		tel.Live.ShardDone()
		tel.Live.UpdateShard(obs.ShardStatus{
			ID: "0", Worker: "local", State: "done", Runs: n,
			WallMs: wall.Milliseconds(), ExecMs: wall.Milliseconds(),
		})
	}
	return nil
}

// DefaultShards is the shard count a Sharded executor with Shards == 0
// uses. It is a fixed constant — deliberately not derived from Workers
// or GOMAXPROCS — so the plan→shard partition of a campaign is stable
// across machines and worker counts.
const DefaultShards = 16

// Sharded partitions the plan into deterministic shards and executes
// them on a bounded worker pool. Run i lands in shard keys[i] % Shards
// (plan index when the campaign assigns no keys), so the partition
// depends only on the plan and the shard count — never on Workers —
// and a shard is a self-contained unit that could be dispatched to a
// remote worker without changing any result. Within a shard, runs
// execute in ascending plan order.
type Sharded struct {
	// Workers bounds how many shards execute concurrently (>= 1).
	Workers int
	// Shards is the partition width (0 selects DefaultShards).
	Shards int
}

func (s Sharded) Name() string {
	return fmt.Sprintf("sharded(workers=%d,shards=%d)", s.Workers, s.shards())
}

func (s Sharded) shards() int {
	if s.Shards < 1 {
		return DefaultShards
	}
	return s.Shards
}

func (s Sharded) Run(ctx context.Context, n int, keys []uint64, fn func(i int) error) error {
	workers := s.Workers
	if workers < 1 {
		workers = 1
	}
	shards := s.shards()

	// Partition by key. Appending in index order keeps each shard's runs
	// ascending, so a shard replays identically under any executor.
	buckets := make([][]int, shards)
	for i := 0; i < n; i++ {
		k := uint64(i)
		if keys != nil {
			k = keys[i]
		}
		b := int(k % uint64(shards))
		buckets[b] = append(buckets[b], i)
	}

	tel := obs.Active()
	if tel != nil {
		planned := 0
		for _, b := range buckets {
			if len(b) > 0 {
				planned++
			}
		}
		tel.ShardsPlanned.Add(int64(planned))
		tel.Progress.SetShards(planned)
		tel.Live.SetShards(planned)
	}
	parent := obs.SpanFromContext(ctx)

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

	type job struct {
		bucket int
		runs   []int
	}
	work := make(chan job)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range work {
				var shardStart time.Time
				var sp *obs.Span
				if tel != nil {
					shardStart = time.Now()
					sp = parent.Child("shard", map[string]string{
						"shard": strconv.Itoa(j.bucket),
						"runs":  strconv.Itoa(len(j.runs)),
					})
				}
				for _, i := range j.runs {
					if ctx.Err() != nil {
						sp.End()
						return
					}
					if err := call(fn, i); err != nil {
						sp.End()
						fail(err)
						return
					}
				}
				if tel != nil {
					sp.End()
					wall := time.Since(shardStart)
					tel.ObserveShard(wall.Seconds())
					tel.ShardsDone.Inc()
					tel.Progress.ShardDone()
					tel.Live.ShardDone()
					tel.Live.UpdateShard(obs.ShardStatus{
						ID: strconv.Itoa(j.bucket), Worker: "local",
						State: "done", Runs: len(j.runs),
						WallMs: wall.Milliseconds(), ExecMs: wall.Milliseconds(),
					})
				}
			}
		}()
	}
feed:
	for bi, b := range buckets {
		if len(b) == 0 {
			continue
		}
		select {
		case work <- job{bucket: bi, runs: b}:
		case <-ctx.Done():
			// Stop feeding: after cancellation no worker will accept
			// another bucket, so iterating the remainder only spins.
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
