// Package power implements the paper's DVFS power model and discrete speed
// ladders.
//
// Each core's dynamic power follows the well-established convex model
// P(s) = a·s^β with a > 0 and β > 1 (Yao-Demers-Shenker; paper defaults
// a = 5, β = 2, speed s in GHz). A core at s GHz processes UnitsPerGHz·s
// processing units per second (paper: 1 GHz ⇒ 1000 units/s). Static power
// is a constant offset common to every scheduling algorithm; the model
// carries an optional static term for ablations, but all paper experiments
// run with it at zero, exactly as the paper does.
package power

import (
	"fmt"
	"math"
	"sort"
)

// UnitsPerGHz is the processing-rate conversion used throughout the paper:
// a core running at 1 GHz completes 1000 processing units per second.
const UnitsPerGHz = 1000.0

// Model is the per-core dynamic power model P(s) = A·s^Beta (+ Static).
type Model struct {
	// A is the scaling factor (paper default 5).
	A float64
	// Beta is the convexity exponent, > 1 (paper default 2).
	Beta float64
	// Static is an optional per-core static power term in watts. The paper
	// excludes static power from all measurements; keep it at 0 to
	// reproduce the paper.
	Static float64
	// MaxSpeed optionally caps the core speed in GHz. Zero means the speed
	// is limited only by the power assigned to the core.
	MaxSpeed float64
}

// Default returns the paper's power model: P = 5·s², no static power, no
// explicit speed cap.
func Default() Model { return Model{A: 5, Beta: 2} }

// Validate reports whether the model parameters are physically meaningful.
func (m Model) Validate() error {
	if m.A <= 0 {
		return fmt.Errorf("power: scaling factor A must be positive, got %v", m.A)
	}
	if m.Beta <= 1 {
		return fmt.Errorf("power: exponent Beta must exceed 1, got %v", m.Beta)
	}
	if m.Static < 0 {
		return fmt.Errorf("power: static power must be non-negative, got %v", m.Static)
	}
	if m.MaxSpeed < 0 {
		return fmt.Errorf("power: MaxSpeed must be non-negative, got %v", m.MaxSpeed)
	}
	return nil
}

// Power returns the dynamic power in watts drawn by a core at speed s GHz.
// The static term is NOT included; use TotalPower for that.
//
// The Beta == 2 fast path is bit-identical to math.Pow: Pow's integer-
// exponent path computes the square with one correctly-rounded
// multiplication, exactly like s*s, so the paper-default quadratic model
// skips the general pow machinery without perturbing a single ULP.
func (m Model) Power(s float64) float64 {
	if s <= 0 {
		return 0
	}
	if m.Beta == 2 {
		return m.A * (s * s)
	}
	return m.A * math.Pow(s, m.Beta)
}

// Speed returns the highest speed in GHz sustainable within a dynamic power
// allowance of p watts, respecting MaxSpeed when set.
//
// The Beta == 2 fast path is bit-identical to the general form because
// math.Pow(x, 0.5) is specified (and implemented) as math.Sqrt(x).
func (m Model) Speed(p float64) float64 {
	if p <= 0 {
		return 0
	}
	var s float64
	if m.Beta == 2 {
		s = math.Sqrt(p / m.A)
	} else {
		s = math.Pow(p/m.A, 1/m.Beta)
	}
	if m.MaxSpeed > 0 && s > m.MaxSpeed {
		s = m.MaxSpeed
	}
	return s
}

// Energy returns the dynamic energy in joules consumed by running at speed
// s for dt seconds.
func (m Model) Energy(s, dt float64) float64 {
	if dt <= 0 {
		return 0
	}
	return m.Power(s) * dt
}

// Rate converts a speed in GHz to a processing rate in units per second.
func Rate(s float64) float64 { return s * UnitsPerGHz }

// SpeedForRate converts a processing rate in units/second to a speed in GHz.
func SpeedForRate(rate float64) float64 { return rate / UnitsPerGHz }

// Ladder is a sorted set of discrete speeds (GHz) available to a core under
// discrete DVFS. The empty ladder means continuous scaling.
type Ladder struct {
	speeds []float64 // ascending, deduplicated, positive
}

// NewLadder builds a ladder from the given speeds. Non-positive entries are
// rejected. The speeds are copied, sorted, and deduplicated.
func NewLadder(speeds []float64) (*Ladder, error) {
	if len(speeds) == 0 {
		return nil, fmt.Errorf("power: ladder needs at least one speed")
	}
	cp := make([]float64, 0, len(speeds))
	for _, s := range speeds {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("power: invalid ladder speed %v", s)
		}
		cp = append(cp, s)
	}
	sort.Float64s(cp)
	dedup := cp[:1]
	for _, s := range cp[1:] {
		if s != dedup[len(dedup)-1] {
			dedup = append(dedup, s)
		}
	}
	return &Ladder{speeds: dedup}, nil
}

// UniformLadder builds a ladder with `steps` equally spaced speeds from
// step size up to max (e.g. UniformLadder(3.2, 16) gives 0.2, 0.4, … 3.2).
func UniformLadder(max float64, steps int) (*Ladder, error) {
	if max <= 0 || steps < 1 {
		return nil, fmt.Errorf("power: invalid uniform ladder max=%v steps=%d", max, steps)
	}
	speeds := make([]float64, steps)
	for i := range speeds {
		speeds[i] = max * float64(i+1) / float64(steps)
	}
	return NewLadder(speeds)
}

// Max returns the fastest discrete speed.
func (l *Ladder) Max() float64 { return l.speeds[len(l.speeds)-1] }

// Len returns the number of discrete levels.
func (l *Ladder) Len() int { return len(l.speeds) }

// Up returns the smallest discrete speed >= s. If s exceeds the fastest
// level, the fastest level is returned along with ok=false.
func (l *Ladder) Up(s float64) (speed float64, ok bool) {
	i := sort.SearchFloat64s(l.speeds, s)
	if i == len(l.speeds) {
		return l.Max(), false
	}
	return l.speeds[i], true
}

// Down returns the largest discrete speed <= s. If s is below the slowest
// level, 0 is returned along with ok=false (the core idles — discrete DVFS
// cannot run slower than its lowest active state, so the scheduler must
// either idle the core or use the lowest level).
func (l *Ladder) Down(s float64) (speed float64, ok bool) {
	i := sort.SearchFloat64s(l.speeds, s)
	if i < len(l.speeds) && l.speeds[i] == s {
		return s, true
	}
	if i == 0 {
		return 0, false
	}
	return l.speeds[i-1], true
}
