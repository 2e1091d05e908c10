package overlay

import (
	"context"
	"math"
)

// Metric is the weight half of the CRP structure: per-cell clique
// matrices of boundary-to-boundary shortest distances restricted to the
// cell's interior, honouring the disabled flags at build time. It is
// immutable after NewMetric and safe for any number of concurrent
// readers.
type Metric struct {
	ov *Overlay

	cliqueOff []int64   // cell -> offset into clique (k_c^2 entries per cell)
	clique    []float64 // row-major: clique[off + i*k + j] = dist(b_i -> b_j) within the cell

	// Restricted-Dijkstra scratch for the build.
	dist  []float64
	stamp []uint64
	cur   uint64
	h     bheap
}

// NewMetric computes all cell cliques for ov under the current disabled
// state. Cancelling ctx aborts with its error; the partial metric is
// discarded.
func NewMetric(ctx context.Context, ov *Overlay) (*Metric, error) {
	m := &Metric{
		ov:        ov,
		cliqueOff: make([]int64, ov.numCells+1),
		dist:      make([]float64, ov.csr.N),
		stamp:     make([]uint64, ov.csr.N),
	}
	var total int64
	for c := 0; c < ov.numCells; c++ {
		m.cliqueOff[c] = total
		k := int64(ov.boundaryCount(int32(c)))
		total += k * k
	}
	m.cliqueOff[ov.numCells] = total
	m.clique = make([]float64, total)
	for c := 0; c < ov.numCells; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.computeCell(int32(c))
	}
	return m, nil
}

// computeCell fills cell c's clique: one restricted Dijkstra per boundary
// node, relaxing only arcs whose head stays inside the cell and skipping
// disabled edges.
func (m *Metric) computeCell(c int32) {
	ov := m.ov
	csr := ov.csr
	b0 := ov.cellBOff[c]
	k := ov.boundaryCount(c)
	base := m.cliqueOff[c]
	for i := 0; i < k; i++ {
		src := ov.bNode[b0+int32(i)]
		m.cur++
		h := m.h[:0]
		m.dist[src] = 0
		m.stamp[src] = m.cur
		h.push(bitem{dist: 0, node: src})
		for len(h) > 0 {
			it := h.pop()
			u := it.node
			if it.dist > m.dist[u] || m.stamp[u] != m.cur {
				continue
			}
			du := it.dist
			for s, end := csr.FwdOff[u], csr.FwdOff[u+1]; s < end; s++ {
				e := csr.FwdEdge[s]
				if csr.Disabled[e] {
					continue
				}
				v := csr.FwdTo[s]
				if ov.cell[v] != c {
					continue
				}
				nd := du + csr.FwdW[s]
				if m.stamp[v] != m.cur || nd < m.dist[v] {
					m.dist[v] = nd
					m.stamp[v] = m.cur
					h.push(bitem{dist: nd, node: v})
				}
			}
		}
		m.h = h
		row := base + int64(i*k)
		for j := 0; j < k; j++ {
			dst := ov.bNode[b0+int32(j)]
			if m.stamp[dst] == m.cur {
				m.clique[row+int64(j)] = m.dist[dst]
			} else {
				m.clique[row+int64(j)] = math.Inf(1)
			}
		}
	}
}

// bitem and bheap are the clique build's Dijkstra queue: a 4-ary
// hole-moving heap under the (distance, node) total order, so pop
// sequences are deterministic.
type bitem struct {
	dist float64
	node int32
}

func bless(a, b bitem) bool {
	if a.dist != b.dist { //lint:allow floateq heap order must be exact: near-ties are distinct priorities, equal bits fall through to the node tie-break
		return a.dist < b.dist
	}
	return a.node < b.node
}

type bheap []bitem

func (h *bheap) push(it bitem) {
	*h = append(*h, it)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !bless(it, hh[p]) {
			break
		}
		hh[i] = hh[p]
		i = p
	}
	hh[i] = it
}

func (h *bheap) pop() bitem {
	old := *h
	top := old[0]
	last := len(old) - 1
	*h = old[:last]
	if last == 0 {
		return top
	}
	it := old[last]
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		small := first
		end := first + 4
		if end > last {
			end = last
		}
		for child := first + 1; child < end; child++ {
			if bless(old[child], old[small]) {
				small = child
			}
		}
		if !bless(old[small], it) {
			break
		}
		old[i] = old[small]
		i = small
	}
	old[i] = it
	return top
}
