package overlay

// White-box tests: clique exactness against a reference restricted
// Dijkstra, and partition determinism under a fixed seed.

import (
	"container/heap"
	"context"
	"math"
	"testing"

	"altroute/internal/citygen"
	"altroute/internal/roadnet"
)

func buildFixture(t testing.TB) (*roadnet.Network, *Overlay, *Metric) {
	t.Helper()
	net, err := citygen.Build(citygen.Chicago, 0.04, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := net.Snapshot(roadnet.WeightTime)
	ov, err := Build(context.Background(), snap, Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMetric(context.Background(), ov)
	if err != nil {
		t.Fatal(err)
	}
	return net, ov, m
}

// refItem / refHeap: a plain container/heap Dijkstra queue, deliberately
// distinct from the package's bheap so the reference cannot share a bug.
type refItem struct {
	dist float64
	node int32
}
type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// refRestricted computes exact within-cell distances from src, honouring
// the live disabled flags, with an independent Dijkstra.
func refRestricted(ov *Overlay, src, c int32) map[int32]float64 {
	csr := ov.csr
	dist := map[int32]float64{src: 0}
	h := &refHeap{{0, src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		if it.dist > dist[it.node] {
			continue
		}
		for s, end := csr.FwdOff[it.node], csr.FwdOff[it.node+1]; s < end; s++ {
			if csr.Disabled[csr.FwdEdge[s]] {
				continue
			}
			v := csr.FwdTo[s]
			if ov.cell[v] != c {
				continue
			}
			nd := it.dist + csr.FwdW[s]
			if d, ok := dist[v]; !ok || nd < d {
				dist[v] = nd
				heap.Push(h, refItem{nd, v})
			}
		}
	}
	return dist
}

func TestCliqueMatchesReferenceRestrictedDijkstra(t *testing.T) {
	_, ov, m := buildFixture(t)
	checked := 0
	for c := int32(0); int(c) < ov.numCells && checked < 12; c++ {
		k := ov.boundaryCount(c)
		if k == 0 {
			continue
		}
		checked++
		b0 := ov.cellBOff[c]
		base := m.cliqueOff[c]
		for i := 0; i < k; i++ {
			ref := refRestricted(ov, ov.bNode[b0+int32(i)], c)
			for j := 0; j < k; j++ {
				got := m.clique[base+int64(i*k)+int64(j)]
				want, ok := ref[ov.bNode[b0+int32(j)]]
				if !ok {
					want = math.Inf(1)
				}
				if got != want {
					t.Fatalf("cell %d clique[%d][%d] = %v, reference %v", c, i, j, got, want)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no cells with boundaries checked")
	}
}

func TestPartitionDeterministicUnderSeed(t *testing.T) {
	net, ov, _ := buildFixture(t)
	snap := net.Snapshot(roadnet.WeightTime)
	again, err := Build(context.Background(), snap, Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if again.numCells != ov.numCells || again.nb != ov.nb {
		t.Fatalf("same seed, different shape: %d/%d cells, %d/%d boundaries",
			again.numCells, ov.numCells, again.nb, ov.nb)
	}
	for v := range ov.cell {
		if again.cell[v] != ov.cell[v] {
			t.Fatalf("same seed, node %d in cell %d vs %d", v, again.cell[v], ov.cell[v])
		}
	}
}
