// Package dist implements the power-distribution policies that divide the
// server's total dynamic power budget H among the cores:
//
//   - Equal-Sharing (ES): every core receives H/m. Used under light load to
//     keep core speeds close together, avoiding the core-speed-thrashing
//     energy penalty caused by AES↔BQ mode switching (paper §III-D).
//
//   - Water-Filling (WF): cores declare a power demand (the power needed to
//     finish their workload by its deadlines); WF satisfies the smallest
//     demands first and pours all remaining budget evenly over the cores
//     that still want more (Du et al., IPDPS'13). Used under heavy load to
//     maximize achieved quality.
//
//   - Hybrid: ES below the critical load, WF at or above it — the paper's
//     policy.
//
//   - Proportional: demand-proportional split, included as an ablation.
//
// The package also provides the paper's discrete-speed rectification
// (§IV-A5): after distribution, starting from the core with the LOWEST
// assigned power, round each core's implied speed up to the next discrete
// level if the remaining budget allows, otherwise down.
package dist

import (
	"fmt"
	"slices"

	"goodenough/internal/power"
)

// Filler owns the scratch buffers (sort pairs, allocation vectors) the
// distribution policies need, so a scheduler distributing power every
// trigger allocates nothing in steady state. Returned slices are owned by
// the Filler and valid until its next call — copy them out to keep them.
// A Filler is not goroutine-safe; give each scheduler its own (the zero
// value is ready to use).
type Filler struct {
	pairs  []wfPair
	order  []int
	alloc  []float64
	speeds []float64
	draw   []float64
}

// wfPair is one core's (index, demand) for the water-filling sort.
type wfPair struct {
	idx    int
	demand float64
}

// grow resizes f.alloc to m zeroed entries without reallocating once the
// high-water mark is reached.
func (f *Filler) grow(m int) []float64 {
	if cap(f.alloc) < m {
		f.alloc = make([]float64, m)
	}
	f.alloc = f.alloc[:m]
	for i := range f.alloc {
		f.alloc[i] = 0
	}
	return f.alloc
}

// EqualShare returns each of m cores' share of budget H: H/m each.
func (f *Filler) EqualShare(h float64, m int) []float64 {
	if m <= 0 {
		return nil
	}
	if h < 0 {
		h = 0
	}
	shares := f.grow(m)
	per := h / float64(m)
	for i := range shares {
		shares[i] = per
	}
	return shares
}

// WaterFill distributes budget H over cores with the given power demands
// (watts). Demands are satisfied lowest-first; once every demand at or
// below the water level is fully met, the remaining budget raises the
// level evenly across the still-thirsty cores. No core receives more than
// its demand; leftover budget (if all demands are met) remains unassigned,
// matching the physical model where a core has no use for power beyond
// what finishes its work at the required speed. The (index, demand) pairs
// are sorted in the Filler's scratch.
func (f *Filler) WaterFill(h float64, demands []float64) []float64 {
	m := len(demands)
	alloc := f.grow(m)
	if m == 0 || h <= 0 {
		return alloc
	}
	f.pairs = f.pairs[:0]
	for i, d := range demands {
		if d < 0 {
			d = 0
		}
		f.pairs = append(f.pairs, wfPair{idx: i, demand: d})
	}
	cores := f.pairs
	// Stable insertion sort by demand, so equal demands keep index order. A
	// machine has a few dozen cores, where this beats a generic sort that
	// calls a comparator.
	for i := 1; i < m; i++ {
		p := cores[i]
		k := i
		for ; k > 0 && cores[k-1].demand > p.demand; k-- {
			cores[k] = cores[k-1]
		}
		cores[k] = p
	}

	remaining := h
	for i := 0; i < m; i++ {
		// Try to raise the level to cores[i].demand for cores i..m-1.
		prev := 0.0
		if i > 0 {
			prev = cores[i-1].demand
		}
		step := cores[i].demand - prev
		need := step * float64(m-i)
		if need <= remaining {
			remaining -= need
			continue
		}
		// Budget exhausts within this step: split the rest evenly over the
		// m-i unsatisfied cores on top of the previous level.
		level := prev + remaining/float64(m-i)
		for k := i; k < m; k++ {
			alloc[cores[k].idx] = level
		}
		for k := 0; k < i; k++ {
			alloc[cores[k].idx] = cores[k].demand
		}
		return alloc
	}
	// Every demand satisfied.
	for _, c := range cores {
		alloc[c.idx] = c.demand
	}
	return alloc
}

// Policy selects a distribution scheme by name.
type Policy int

const (
	// PolicyES always equal-shares.
	PolicyES Policy = iota
	// PolicyWF always water-fills.
	PolicyWF
	// PolicyHybrid equal-shares under light load, water-fills otherwise.
	PolicyHybrid
	// PolicyProportional splits proportionally to demand (ablation).
	PolicyProportional
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyES:
		return "equal-sharing"
	case PolicyWF:
		return "water-filling"
	case PolicyHybrid:
		return "hybrid"
	case PolicyProportional:
		return "proportional"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Proportional splits H proportionally to the demands. Zero total demand
// falls back to equal sharing.
func (f *Filler) Proportional(h float64, demands []float64) []float64 {
	m := len(demands)
	alloc := f.grow(m)
	if m == 0 || h <= 0 {
		return alloc
	}
	total := 0.0
	for _, d := range demands {
		if d > 0 {
			total += d
		}
	}
	if total <= 0 {
		return f.EqualShare(h, m)
	}
	for i, d := range demands {
		if d > 0 {
			alloc[i] = h * d / total
		}
	}
	return alloc
}

// Distribute applies the policy. `heavy` tells Hybrid which regime the
// system is in (load >= critical load).
func (f *Filler) Distribute(p Policy, h float64, demands []float64, heavy bool) []float64 {
	switch p {
	case PolicyES:
		return f.EqualShare(h, len(demands))
	case PolicyWF:
		return f.WaterFill(h, demands)
	case PolicyProportional:
		return f.Proportional(h, demands)
	case PolicyHybrid:
		if heavy {
			return f.WaterFill(h, demands)
		}
		return f.EqualShare(h, len(demands))
	default:
		panic(fmt.Sprintf("dist: unknown policy %d", int(p)))
	}
}

// RectifyDiscrete converts continuous per-core power allocations into
// discrete speed levels per the paper §IV-A5: visit cores from the lowest
// assigned power upward; for each, choose the smallest ladder speed not
// below the implied continuous speed when the total budget still allows
// it, otherwise the next lower level. Cores with zero allocation stay
// idle. It returns the chosen speeds (GHz) and the implied power draw.
func (f *Filler) RectifyDiscrete(model power.Model, ladder *power.Ladder, h float64, alloc []float64) (speeds, draw []float64) {
	m := len(alloc)
	if cap(f.speeds) < m {
		f.speeds = make([]float64, m)
		f.draw = make([]float64, m)
	}
	speeds, draw = f.speeds[:m], f.draw[:m]
	for i := range speeds {
		speeds[i], draw[i] = 0, 0
	}
	if ladder == nil || m == 0 {
		for i, p := range alloc {
			speeds[i] = model.Speed(p)
			draw[i] = model.Power(speeds[i])
		}
		return speeds, draw
	}
	f.order = f.order[:0]
	for i := 0; i < m; i++ {
		f.order = append(f.order, i)
	}
	order := f.order
	// Stable: equal allocations visit in core order, like the original
	// sort.SliceStable this replaces.
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case alloc[a] < alloc[b]:
			return -1
		case alloc[a] > alloc[b]:
			return 1
		default:
			return 0
		}
	})

	used := 0.0
	for _, idx := range order {
		p := alloc[idx]
		if p <= 0 {
			continue
		}
		cont := model.Speed(p)
		up, _ := ladder.Up(cont)
		cost := model.Power(up)
		if used+cost <= h+1e-9 {
			speeds[idx] = up
			draw[idx] = cost
			used += cost
			continue
		}
		down, ok := ladder.Down(cont)
		if !ok {
			continue // below the lowest active state: idle
		}
		cost = model.Power(down)
		if used+cost <= h+1e-9 {
			speeds[idx] = down
			draw[idx] = cost
			used += cost
		}
	}
	return speeds, draw
}
