package parallel

import (
	"sync"
	"testing"

	"gist/internal/telemetry"
)

func TestPoolTelemetry(t *testing.T) {
	s := telemetry.New()
	SetTelemetry(s)
	defer SetTelemetry(nil)

	p := NewPool(4)
	var hits [64]int
	p.ForEach(len(hits), Func(func(i int) { hits[i]++ }))
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go p.Run(func() { wg.Done() })
	wg.Wait()

	v := s.Values()
	if v["pool.foreach.calls"] != 1 {
		t.Fatalf("foreach calls %d", v["pool.foreach.calls"])
	}
	if v["pool.tasks"] != 64 {
		t.Fatalf("tasks %d", v["pool.tasks"])
	}
	// Helpers are best-effort (slot acquisition never blocks), but a
	// 4-worker pool over 64 tasks from an idle state should recruit some.
	if v["pool.helpers_spawned"] < 0 || v["pool.helpers_spawned"] > 3 {
		t.Fatalf("helpers %d outside [0,3]", v["pool.helpers_spawned"])
	}
	if s.Histogram("pool.busy.ns").Snapshot().Count == 0 {
		t.Fatal("no busy-time observations")
	}
	// Run's gauges must return to zero once the task drained.
	if v["pool.go.queued"] != 0 {
		t.Fatalf("go.queued %d, want 0", v["pool.go.queued"])
	}
}

func TestPoolTelemetryDisabled(t *testing.T) {
	SetTelemetry(nil)
	p := NewPool(1)
	n := 0
	// Serial path with telemetry off must still run everything.
	p.ForEach(8, Func(func(i int) { n++ }))
	if n != 8 {
		t.Fatalf("ran %d of 8", n)
	}
}
