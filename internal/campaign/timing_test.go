package campaign

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// TestShardPercentilesExact pins the BENCH shard percentiles to the
// order statistics of the raw durations.
func TestShardPercentilesExact(t *testing.T) {
	walls := make([]float64, 100)
	for i := range walls {
		walls[i] = float64(i+1) / 1000 // 1..100 ms, in seconds
	}
	rand.New(rand.NewSource(1)).Shuffle(len(walls), func(i, j int) { walls[i], walls[j] = walls[j], walls[i] })
	p50, p99 := ShardPercentiles(walls)
	if math.Abs(p50-50.5) > 1e-9 || math.Abs(p99-99.01) > 1e-9 {
		t.Errorf("percentiles of 1..100 ms = %v, %v; want 50.5, 99.01", p50, p99)
	}
	if p50, p99 := ShardPercentiles([]float64{0.343}); p50 != 343 || p99 != 343 {
		t.Errorf("percentiles of one 343 ms shard = %v, %v", p50, p99)
	}
	if p50, p99 := ShardPercentiles(nil); p50 != 0 || p99 != 0 {
		t.Errorf("percentiles of no shards = %v, %v; want 0, 0", p50, p99)
	}
}

// shardTimer is an executor that reports fixed shard wall times, the
// way the real executors report measured ones.
type shardTimer struct{ wallsS []float64 }

func (shardTimer) Name() string { return "shard-timer" }

func (e shardTimer) Run(ctx context.Context, n int, keys []uint64, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	for _, w := range e.wallsS {
		obs.Active().ObserveShard(w)
	}
	return nil
}

// TestExecuteReportsExactShardPercentiles checks that a campaign's BENCH
// row carries exact percentiles of its own shards only: durations
// observed before the campaign started are excluded, and a 343 ms p99
// is reported as 343 ms, not interpolated inside the 256–512 ms
// histogram bucket.
func TestExecuteReportsExactShardPercentiles(t *testing.T) {
	tel := obs.New(obs.Config{})
	prev := obs.Install(tel)
	defer obs.Install(prev)
	tel.ObserveShard(30) // an earlier campaign's shard

	col := NewCollector()
	ex := shardTimer{wallsS: []float64{0.1, 0.343, 0.343, 0.343}}
	if _, err := Execute[int, int, int](context.Background(), &squares{n: 12}, ex, col); err != nil {
		t.Fatal(err)
	}
	rows := col.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if got := rows[0].ShardP50Ms; math.Abs(got-343) > 1e-9 {
		t.Errorf("shard_p50_ms = %v, want 343", got)
	}
	if got := rows[0].ShardP99Ms; math.Abs(got-343) > 1e-9 {
		t.Errorf("shard_p99_ms = %v, want 343", got)
	}
	if got := tel.ShardDur.Count(); got != 5 {
		t.Errorf("/metrics histogram holds %d shard observations, want 5", got)
	}
}
