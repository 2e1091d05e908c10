package graph

import (
	"sync"
	"testing"
)

// Race coverage for the two places a frozen snapshot is deliberately
// shared across goroutines: the Yen parallel spur fan-out (pool routers
// all holding the coordinator's snapshot) and the parallel Brandes
// workers. Run with -race in CI; the assertions double as determinism
// checks under real concurrency.

// TestFrozenSharedSnapshotConcurrentRouters: many routers, one snapshot,
// concurrent mixed queries (with per-router ban overlays in play) — no
// races, and every goroutine sees the serial answer.
func TestFrozenSharedSnapshotConcurrentRouters(t *testing.T) {
	g, w := gridGraph(6, 6)
	snap := Freeze(g, w)

	want, ok := func() (Path, bool) {
		r := NewRouter(g)
		r.UseSnapshot(snap)
		return r.ShortestPath(0, 35, w)
	}()
	if !ok {
		t.Fatal("grid corner unreachable")
	}

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := NewRouter(g)
			r.UseSnapshot(snap)
			for iter := 0; iter < 30; iter++ {
				got, ok := r.ShortestPath(0, 35, w)
				if !ok || got.Length != want.Length || !got.SameEdges(want) {
					errs <- "ShortestPath diverged under concurrency"
					return
				}
				// Exercise the ban overlay: it must stay router-local.
				r.ShortestPathAvoiding(0, 35, w, []NodeID{want.Nodes[1]})
				r.ReversePotential(35, w)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestFrozenParallelYenRace: the spur fan-out shares the coordinator's
// snapshot across pool routers; the path list must match the serial
// frozen run exactly.
func TestFrozenParallelYenRace(t *testing.T) {
	g, w := gridGraph(5, 5)

	serial := NewRouter(g)
	serial.UseSnapshot(Freeze(g, w))
	serial.SetSpurWorkers(1)
	want := serial.KShortest(0, 24, 40, w)

	for i := 0; i < 4; i++ {
		r := NewRouter(g)
		r.UseSnapshot(Freeze(g, w))
		r.SetSpurWorkers(4)
		if err := samePathList(r.KShortest(0, 24, 40, w), want); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestBetweennessParallelRace: full-graph parallel Brandes on a shared
// snapshot, repeated, must be race-free and reproduce the serial scores
// bit for bit every time.
func TestBetweennessParallelRace(t *testing.T) {
	g, w := gridGraph(6, 6)
	snap := Freeze(g, w)
	opts := BetweennessOptions{Normalize: true}
	want := EdgeBetweenness(g, w, opts)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := BetweennessParallel(t.Context(), snap, opts, 4)
			if err != nil {
				errs <- err.Error()
				return
			}
			for e := range want {
				if got[e] != want[e] {
					errs <- "parallel Brandes diverged from serial"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
