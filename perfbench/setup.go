package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"altroute/internal/citygen"
	"altroute/internal/graph"
	"altroute/internal/roadnet"
)

const (
	// cityScale is Table I scale.
	cityScale = 1
	// citySeed is the city generation seed cmd/serve and cmd/attack use by
	// default; the workload seed varies the inputs, not the cities.
	citySeed = 1
	// pathRank is the paper's p*: the 100th-shortest path.
	pathRank = 100
	// setupReps is how many times each run sets the program up; setup_s
	// is their median.
	setupReps = 3
	// rankBandLo and rankBandHi bound the free-flow Dijkstra rank, as a
	// share of the city's nodes, at which serve-mixed and traffic-impact
	// draw trip endpoints: a quarter of the city away, give or take. A
	// fixed rank band rather than a uniform draw keeps the search work per
	// trip alike across seeds, wherever the trip falls.
	rankBandLo = 0.20
	rankBandHi = 0.30
)

// cityPlan is one city a workload sets up, with the weight types its
// program setup freezes.
type cityPlan struct {
	city citygen.City
	wts  []roadnet.WeightType
}

// setupTimes is one set-up of all of a workload's cities.
type setupTimes struct{ totalS, buildMS, snapshotMS float64 }

// buildCities is the in-process workloads' program setup: city build plus
// Freeze of every snapshot the workload's attacks run on, repeated
// setupReps times. It returns the last set of networks and the median
// times.
func buildCities(plans []cityPlan) ([]*roadnet.Network, setupTimes, error) {
	var nets []*roadnet.Network
	var totals, builds, snaps []float64
	for rep := 0; rep < setupReps; rep++ {
		nets = nil // let the previous repetition's cities be collected
		var build, snap float64
		for _, p := range plans {
			t0 := now()
			net, err := citygen.Build(p.city, cityScale, citySeed)
			if err != nil {
				return nil, setupTimes{}, fmt.Errorf("building %v: %w", p.city, err)
			}
			t1 := now()
			for _, wt := range p.wts {
				net.Snapshot(wt)
			}
			t2 := now()
			build += ms(t1.Sub(t0))
			snap += ms(t2.Sub(t1))
			nets = append(nets, net)
		}
		builds = append(builds, build)
		snaps = append(snaps, snap)
		totals = append(totals, (build+snap)/1000)
	}
	return nets, setupTimes{totalS: median(totals), buildMS: median(builds), snapshotMS: median(snaps)}, nil
}

// setSetup reports the program setup metrics.
func (o *outcome) setSetup(t setupTimes) {
	o.set("setup_s", t.totalS)
	o.set("citygen.build_ms", t.buildMS)
	o.set("roadnet.snapshot_ms", t.snapshotMS)
}

// more reports whether a closed loop that has used elapsed for done
// repetitions should start another within budget: not when less than half
// a repetition's time would be left.
func more(elapsed time.Duration, done int, budget time.Duration) bool {
	if done == 0 {
		return true
	}
	return elapsed+elapsed/time.Duration(2*done) < budget
}

// byDistanceTo lists the nodes that reach t, nearest first under
// free-flow TIME, ties by node ID.
func byDistanceTo(net *roadnet.Network, t graph.NodeID) []graph.NodeID {
	pot := net.Router().ReversePotential(t, net.Weight(roadnet.WeightTime))
	var out []graph.NodeID
	for v := 0; v < net.NumIntersections(); v++ {
		if !math.IsInf(pot.At(graph.NodeID(v)), 1) {
			out = append(out, graph.NodeID(v))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := pot.At(out[i]), pot.At(out[j])
		if di != dj {
			return di < dj
		}
		return out[i] < out[j]
	})
	return out
}
