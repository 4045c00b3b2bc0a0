package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCollectorCounts(t *testing.T) {
	c := New()
	c.AddTotalConfigs(10)
	c.AddRun(5, 100, 12.5)
	c.AddRun(7, 200, 14.5)
	c.ConfigDone(2 * time.Second)
	s := c.Snapshot()
	if s.Simulations != 2 || s.Chunks != 12 || s.Events != 300 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.ConfigsDone != 1 || s.ConfigsTotal != 10 {
		t.Fatalf("configs = %d/%d", s.ConfigsDone, s.ConfigsTotal)
	}
	if s.ElapsedSec < 0 {
		t.Fatalf("elapsed = %v", s.ElapsedSec)
	}
	if s.RunMakespan.Count != 2 || s.RunMakespan.Min != 12.5 || s.RunMakespan.Max != 14.5 {
		t.Fatalf("makespan summary = %+v", s.RunMakespan)
	}
	if s.ChunksPerRun.Count != 2 || s.ChunksPerRun.Min != 5 || s.ChunksPerRun.Max != 7 {
		t.Fatalf("chunks summary = %+v", s.ChunksPerRun)
	}
	if s.ConfigWallSec.Count != 1 || s.ConfigWallSec.P50 != 2 {
		t.Fatalf("config wall summary = %+v", s.ConfigWallSec)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := New()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.AddRun(2, 3, 1.5)
				c.AddEngineCounters(EngineCounters{EventsPushed: 2, Redispatches: 1, MaxHeapDepth: int64(w*per + i)})
			}
			c.ConfigDone(time.Millisecond)
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Simulations != workers*per || s.Chunks != 2*workers*per || s.Events != 3*workers*per {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.ConfigsDone != workers {
		t.Fatalf("configs done = %d", s.ConfigsDone)
	}
	if s.RunMakespan.Count != workers*per || s.RunMakespan.P50 != 1.5 {
		t.Fatalf("makespan summary = %+v", s.RunMakespan)
	}
	want := EngineCounters{EventsPushed: 2 * workers * per, Redispatches: workers * per, MaxHeapDepth: workers*per - 1}
	if s.Engine != want {
		t.Fatalf("engine counters = %+v, want %+v", s.Engine, want)
	}
}

func TestSnapshotETA(t *testing.T) {
	c := New()
	c.start = time.Now().Add(-10 * time.Second) // pretend 10s elapsed
	c.AddTotalConfigs(4)
	c.ConfigDone(time.Second)
	c.ConfigDone(time.Second)
	s := c.Snapshot()
	// 2 of 4 configs in ~10s -> ~10s to go.
	if s.ETASec < 9 || s.ETASec > 11 {
		t.Fatalf("eta = %v", s.ETASec)
	}
	// Rates follow elapsed time.
	c.AddRun(1, 1, 1)
	s = c.Snapshot()
	if s.RunsPerSec <= 0 {
		t.Fatalf("runs/sec = %v", s.RunsPerSec)
	}
}

func TestSnapshotNoETAWithoutProgress(t *testing.T) {
	c := New()
	c.AddTotalConfigs(5)
	if eta := c.Snapshot().ETASec; eta != 0 {
		t.Fatalf("eta before any config = %v", eta)
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{
		Simulations: 1_234_567, Events: 20_000, Chunks: 999,
		ConfigsDone: 3, ConfigsTotal: 8, ElapsedSec: 4, RunsPerSec: 308641, ETASec: 6.6,
	}
	line := s.String()
	for _, want := range []string{"cfg 3/8", "1.2M", "20.0k", "999", "eta"} {
		if !strings.Contains(line, want) {
			t.Fatalf("progress line %q missing %q", line, want)
		}
	}
}

func TestHumanCount(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0"},
		{1, "1"},
		{999, "999"},
		{1_000, "1.0k"}, // the k band starts at 1000, like M at 1e6
		{1_234, "1.2k"},
		{9_999, "10.0k"}, // %.1f rounding artifact, not a band change
		{10_000, "10.0k"},
		{999_949, "999.9k"},
		{1_000_000, "1.0M"},
		{1_500_000, "1.5M"},
		{2_000_000_000, "2.0G"},
		{-1, "-1"},
		{-999, "-999"},
		{-1_234, "-1.2k"},
		{-1_500_000, "-1.5M"},
		{-2_000_000_000, "-2.0G"},
	}
	for _, c := range cases {
		if got := humanCount(c.n); got != c.want {
			t.Errorf("humanCount(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestCollectorPlanCounts(t *testing.T) {
	c := New()
	c.AddPlans(3, 5)
	c.AddPlans(1, 0)
	if s := c.Snapshot(); s.PlansBuilt != 4 || s.PlansShared != 5 {
		t.Fatalf("plans built %d, shared %d; want 4 and 5", s.PlansBuilt, s.PlansShared)
	}
}
