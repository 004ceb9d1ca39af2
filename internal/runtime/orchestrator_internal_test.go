package runtime

import (
	"math"
	"math/rand"
	"testing"
)

// packLPT against brute force: on every instance each queue lands in
// exactly one sack, and the makespan is within Graham's LPT bound,
// (4/3 - 1/(3m)) times the optimum over all m^k assignments.
func TestPackLPTWithinGrahamBound(t *testing.T) {
	type instance struct {
		loads []float64
		sacks int
	}
	// Equal loads split evenly: 2/2 on two sacks.
	cases := []instance{{loads: []float64{1, 1, 1, 1}, sacks: 2}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		loads := make([]float64, 1+rng.Intn(6))
		for j := range loads {
			loads[j] = rng.Float64()
		}
		cases = append(cases, instance{loads: loads, sacks: 1 + rng.Intn(4)})
	}

	for n, c := range cases {
		queues := make([]*QP, len(c.loads))
		loads := make(map[int]float64, len(c.loads))
		for i, l := range c.loads {
			queues[i] = &QP{ID: i + 1}
			loads[i+1] = l
		}
		sacks := make([][]*QP, c.sacks)
		packLPT(queues, loads, sacks)

		seen := make(map[int]int, len(queues))
		makespan := 0.0
		for _, sack := range sacks {
			w := 0.0
			for _, q := range sack {
				seen[q.ID]++
				w += loads[q.ID]
			}
			makespan = math.Max(makespan, w)
		}
		for _, q := range queues {
			if seen[q.ID] != 1 {
				t.Fatalf("case %d %v on %d sacks: queue %d placed %d times", n, c.loads, c.sacks, q.ID, seen[q.ID])
			}
		}

		opt := bruteForceMakespan(c.loads, c.sacks)
		bound := (4.0/3 - 1/(3*float64(c.sacks))) * opt
		if makespan > bound+1e-9 {
			t.Fatalf("case %d %v on %d sacks: makespan %.6f > bound %.6f (optimum %.6f)",
				n, c.loads, c.sacks, makespan, bound, opt)
		}
	}
}

// bruteForceMakespan returns the smallest makespan over every assignment of
// loads to m sacks.
func bruteForceMakespan(loads []float64, m int) float64 {
	weight := make([]float64, m)
	best := math.Inf(1)
	var place func(i int, makespan float64)
	place = func(i int, makespan float64) {
		if makespan >= best {
			return
		}
		if i == len(loads) {
			best = makespan
			return
		}
		for s := range weight {
			weight[s] += loads[i]
			place(i+1, math.Max(makespan, weight[s]))
			weight[s] -= loads[i]
		}
	}
	place(0, 0)
	return best
}
