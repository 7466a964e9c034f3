package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultMatchesPaper(t *testing.T) {
	m := Default()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper: a=5, β=2, a 2 GHz core draws 20 W, 16 such cores draw the
	// default 320 W budget.
	if got := m.Power(2); math.Abs(got-20) > 1e-12 {
		t.Fatalf("P(2GHz) = %v, want 20 W", got)
	}
	if got := 16 * m.Power(2); math.Abs(got-320) > 1e-12 {
		t.Fatalf("16 cores at 2GHz = %v, want 320 W", got)
	}
}

func TestPowerSpeedRoundTrip(t *testing.T) {
	m := Default()
	for s := 0.1; s <= 4; s += 0.1 {
		p := m.Power(s)
		back := m.Speed(p)
		if math.Abs(back-s) > 1e-9 {
			t.Fatalf("Speed(Power(%v)) = %v", s, back)
		}
	}
}

func TestPowerEdges(t *testing.T) {
	m := Default()
	if m.Power(0) != 0 {
		t.Fatal("P(0) must be 0")
	}
	if m.Power(-1) != 0 {
		t.Fatal("P(negative) must clamp to 0")
	}
	if m.Speed(0) != 0 {
		t.Fatal("Speed(0) must be 0")
	}
	if m.Speed(-5) != 0 {
		t.Fatal("Speed(negative) must clamp to 0")
	}
	if got := (Model{A: 5, Beta: 2, Static: 3}).Power(2); math.Abs(got-20) > 1e-12 {
		t.Fatalf("Power must exclude static, got %v", got)
	}
}

func TestSpeedRespectMaxSpeed(t *testing.T) {
	m := Model{A: 5, Beta: 2, MaxSpeed: 2.5}
	if got := m.Speed(1000); got != 2.5 {
		t.Fatalf("capped speed = %v, want 2.5", got)
	}
	if got := m.Speed(5); got >= 2.5 {
		t.Fatalf("uncapped region affected: %v", got)
	}
}

func TestPowerConvexity(t *testing.T) {
	// The whole thrashing argument rests on convexity: averaging speeds
	// must never cost more than averaging powers.
	m := Default()
	for a := 0.0; a <= 4; a += 0.25 {
		for b := a; b <= 4; b += 0.25 {
			mid := m.Power((a + b) / 2)
			chord := (m.Power(a) + m.Power(b)) / 2
			if mid > chord+1e-9 {
				t.Fatalf("power not convex at (%v,%v)", a, b)
			}
		}
	}
}

func TestThrashingCostsEnergy(t *testing.T) {
	// Running 1s at 1 GHz + 1s at 3 GHz does the same work as 2s at 2 GHz
	// but must consume strictly more energy under a convex power curve.
	m := Default()
	thrash := m.Energy(1, 1) + m.Energy(3, 1)
	steady := m.Energy(2, 2)
	if thrash <= steady {
		t.Fatalf("thrashing energy %v should exceed steady energy %v", thrash, steady)
	}
}

func TestEnergy(t *testing.T) {
	m := Default()
	if got := m.Energy(2, 10); math.Abs(got-200) > 1e-12 {
		t.Fatalf("Energy(2GHz, 10s) = %v, want 200 J", got)
	}
	if m.Energy(2, 0) != 0 || m.Energy(2, -1) != 0 {
		t.Fatal("non-positive duration must give zero energy")
	}
}

func TestRateConversions(t *testing.T) {
	if Rate(2) != 2000 {
		t.Fatalf("Rate(2GHz) = %v, want 2000 units/s (paper definition)", Rate(2))
	}
	if SpeedForRate(2000) != 2 {
		t.Fatalf("SpeedForRate(2000) = %v, want 2", SpeedForRate(2000))
	}
}

func TestValidate(t *testing.T) {
	bad := []Model{
		{A: 0, Beta: 2},
		{A: -1, Beta: 2},
		{A: 5, Beta: 1},
		{A: 5, Beta: 0.5},
		{A: 5, Beta: 2, Static: -1},
		{A: 5, Beta: 2, MaxSpeed: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid model %+v", i, m)
		}
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("default model rejected: %v", err)
	}
}

func TestNewLadder(t *testing.T) {
	l, err := NewLadder([]float64{2.0, 0.5, 1.0, 1.0, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1.0, 1.5, 2.0}
	got := l.speeds
	if len(got) != len(want) {
		t.Fatalf("ladder speeds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder speeds = %v, want %v", got, want)
		}
	}
	if l.Max() != 2.0 || len(l.speeds) != 4 {
		t.Fatalf("ladder accessors wrong: max=%v len=%d", l.Max(), len(l.speeds))
	}
}

func TestNewLadderRejectsInvalid(t *testing.T) {
	if _, err := NewLadder(nil); err == nil {
		t.Error("empty ladder accepted")
	}
	if _, err := NewLadder([]float64{1, 0}); err == nil {
		t.Error("zero speed accepted")
	}
	if _, err := NewLadder([]float64{-1}); err == nil {
		t.Error("negative speed accepted")
	}
	if _, err := NewLadder([]float64{math.NaN()}); err == nil {
		t.Error("NaN speed accepted")
	}
}

func TestUniformLadder(t *testing.T) {
	l, err := UniformLadder(3.2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.speeds) != 16 {
		t.Fatalf("uniform ladder len = %d, want 16", len(l.speeds))
	}
	if math.Abs(l.speeds[0]-0.2) > 1e-12 || math.Abs(l.Max()-3.2) > 1e-12 {
		t.Fatalf("uniform ladder bounds = [%v, %v]", l.speeds[0], l.Max())
	}
	if _, err := UniformLadder(0, 4); err == nil {
		t.Error("invalid uniform ladder accepted")
	}
	if _, err := UniformLadder(2, 0); err == nil {
		t.Error("zero-step uniform ladder accepted")
	}
}

func TestLadderUpDown(t *testing.T) {
	l, _ := NewLadder([]float64{0.5, 1.0, 1.5, 2.0})
	cases := []struct {
		s      float64
		up     float64
		upOK   bool
		down   float64
		downOK bool
	}{
		{0.3, 0.5, true, 0, false},
		{0.5, 0.5, true, 0.5, true},
		{0.7, 1.0, true, 0.5, true},
		{0.8, 1.0, true, 0.5, true},
		{0.75, 1.0, true, 0.5, true},
		{2.0, 2.0, true, 2.0, true},
		{2.5, 2.0, false, 2.0, true},
	}
	for _, c := range cases {
		up, okUp := l.Up(c.s)
		if up != c.up || okUp != c.upOK {
			t.Errorf("Up(%v) = (%v,%v), want (%v,%v)", c.s, up, okUp, c.up, c.upOK)
		}
		down, okDown := l.Down(c.s)
		if down != c.down || okDown != c.downOK {
			t.Errorf("Down(%v) = (%v,%v), want (%v,%v)", c.s, down, okDown, c.down, c.downOK)
		}
	}
}

// Property: Up(s) >= s whenever ok, Down(s) <= s whenever ok, and both are
// ladder members.
func TestLadderBracketProperty(t *testing.T) {
	l, _ := UniformLadder(3.2, 16)
	member := func(v float64) bool {
		for _, s := range l.speeds {
			if math.Abs(s-v) < 1e-12 {
				return true
			}
		}
		return false
	}
	prop := func(raw uint16) bool {
		s := float64(raw) / 65535 * 4
		if up, ok := l.Up(s); ok && (up < s-1e-12 || !member(up)) {
			return false
		}
		if down, ok := l.Down(s); ok && (down > s+1e-12 || !member(down)) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Speed(p) never draws more than p when fed back through Power.
func TestSpeedPowerSafetyProperty(t *testing.T) {
	m := Default()
	prop := func(raw uint16) bool {
		p := float64(raw) / 65535 * 400
		s := m.Speed(p)
		return m.Power(s) <= p+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPowerSpeed(b *testing.B) {
	m := Default()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.Speed(float64(i%320) + 1)
	}
	_ = sink
}
