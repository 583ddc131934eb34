package chaos

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

// cubes is a minimal wire-capable campaign: plan the ints [0, n), cube
// each, reduce to the printed result slice. Shard keys deliberately
// scatter neighbouring runs across shards.
type cubes struct {
	campaign.JSONWire[int]
	n int
}

func (c cubes) Name() string { return "cubes" }

func (c cubes) Plan() ([]int, error) {
	plan := make([]int, c.n)
	for i := range plan {
		plan[i] = i
	}
	return plan, nil
}

func (c cubes) Execute(_ context.Context, r, _ int) (int, error) { return r * r * r, nil }

func (c cubes) Reduce(_ []int, results []int) (string, error) {
	return fmt.Sprint(results), nil
}

func (c cubes) ShardKey(r, _ int) uint64 { return uint64(r) * 2654435761 }

// faultCounter tallies injected faults across goroutines.
type faultCounter struct {
	mu    sync.Mutex
	kinds map[Fault]int
	total int
}

func (f *faultCounter) hook(_ int, kind Fault) {
	f.mu.Lock()
	f.kinds[kind]++
	f.total++
	f.mu.Unlock()
}

func newFaultCounter() *faultCounter { return &faultCounter{kinds: make(map[Fault]int)} }

func baseline(t *testing.T, n int) string {
	t.Helper()
	out, err := campaign.Execute[int, int, string](context.Background(), cubes{n: n}, campaign.Serial{}, nil)
	if err != nil {
		t.Fatalf("serial baseline: %v", err)
	}
	return out
}

// TestChaosWithRetryReducesIdenticalToSerial is the headline pin: a
// campaign riddled with injected panics, spurious errors, past-deadline
// delays and dropped results still reduces byte-identically to the
// serial run, because Retry inside the chaos wrapper heals every
// injected (first-attempt) fault.
func TestChaosWithRetryReducesIdenticalToSerial(t *testing.T) {
	const n = 64
	want := baseline(t, n)
	for _, inner := range []campaign.Executor{
		campaign.Serial{},
		campaign.Sharded{Workers: 4, Shards: 8},
	} {
		faults := newFaultCounter()
		ex := Chaos{
			Inner:     campaign.Retry{Inner: inner, Attempts: 3, Sleep: func(time.Duration) {}},
			Seed:      1,
			PanicRate: 0.10, ErrorRate: 0.10, DelayRate: 0.10, DropRate: 0.10,
			OnFault: faults.hook,
		}
		got, err := campaign.Execute[int, int, string](context.Background(), cubes{n: n}, ex, nil)
		if err != nil {
			t.Fatalf("%s: %v", ex.Name(), err)
		}
		if got != want {
			t.Errorf("%s: output diverged from serial\n got %s\nwant %s", ex.Name(), got, want)
		}
		if faults.total == 0 {
			t.Errorf("%s: no faults fired — the test pinned nothing", ex.Name())
		}
	}
}

// TestChaosFaultsAreRealWithoutRetry proves the injected faults are not
// cosmetic: without a retry layer inside the wrapper, the campaign
// fails with the chaos diagnostic.
func TestChaosFaultsAreRealWithoutRetry(t *testing.T) {
	ex := Chaos{Inner: campaign.Serial{}, Seed: 1, ErrorRate: 1}
	_, err := campaign.Execute[int, int, string](context.Background(), cubes{n: 8}, ex, nil)
	if err == nil || !strings.Contains(err.Error(), "chaos:") {
		t.Fatalf("err = %v, want a chaos-injected failure", err)
	}
}

// TestChaosDecisionsAreDeterministic pins that fault placement is a
// pure function of (seed, index): two runs with the same seed inject
// the identical fault set, and the seed actually matters.
func TestChaosDecisionsAreDeterministic(t *testing.T) {
	record := func(seed int64) map[int]Fault {
		got := make(map[int]Fault)
		var mu sync.Mutex
		ex := Chaos{
			Inner:     campaign.Retry{Inner: campaign.Sharded{Workers: 4, Shards: 8}, Attempts: 2, Sleep: func(time.Duration) {}},
			Seed:      seed,
			PanicRate: 0.15, ErrorRate: 0.15, DropRate: 0.15,
			OnFault: func(i int, kind Fault) {
				mu.Lock()
				got[i] = kind
				mu.Unlock()
			},
		}
		if _, err := campaign.Execute[int, int, string](context.Background(), cubes{n: 64}, ex, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return got
	}
	a, b := record(7), record(7)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same seed, different faults:\n%v\n%v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(record(8)) && fmt.Sprint(a) == fmt.Sprint(record(9)) {
		t.Error("fault placement ignores the seed")
	}
}

// fakeDispatcher is a payload executor with dispatch.Fleet-shaped
// semantics in miniature: per run, execute + encode + store, retrying
// the store a bounded number of times — the seam Chaos corrupts.
type fakeDispatcher struct{}

func (fakeDispatcher) Name() string { return "fake-dispatcher" }

func (fakeDispatcher) Run(ctx context.Context, n int, keys []uint64, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

func (fakeDispatcher) RunPayload(ctx context.Context, job campaign.PayloadJob) error {
	for i := 0; i < job.N; i++ {
		var lastErr error
		for attempt := 0; attempt < 3; attempt++ {
			if err := job.Exec(i); err != nil {
				return err
			}
			payload, err := job.Encode(i)
			if err != nil {
				return err
			}
			if lastErr = job.Store(i, payload); lastErr == nil {
				break
			}
		}
		if lastErr != nil {
			return fmt.Errorf("run %d: %w", i, lastErr)
		}
	}
	return nil
}

// TestChaosCorruptsAndDropsPayloads pins the payload seam: corrupted
// and dropped shard payloads are detected by the store path and healed
// by the dispatcher's retry, leaving output identical to serial.
func TestChaosCorruptsAndDropsPayloads(t *testing.T) {
	const n = 64
	want := baseline(t, n)
	faults := newFaultCounter()
	ex := Chaos{
		Inner: fakeDispatcher{},
		Seed:  3, CorruptRate: 0.25, DropRate: 0.25,
		OnFault: faults.hook,
	}
	got, err := campaign.Execute[int, int, string](context.Background(), cubes{n: n}, ex, nil)
	if err != nil {
		t.Fatalf("%s: %v", ex.Name(), err)
	}
	if got != want {
		t.Errorf("output diverged from serial\n got %s\nwant %s", got, want)
	}
	if faults.kinds[FaultCorrupt] == 0 || faults.kinds[FaultDrop] == 0 {
		t.Errorf("fault mix %v missing corrupt or drop", faults.kinds)
	}
}
