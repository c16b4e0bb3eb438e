package nems

import (
	"errors"
	"math"
	"testing"
	"unsafe"

	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

func TestDeterministicSwitchLifetime(t *testing.T) {
	s := FabricateDeterministic(3)
	for i := 0; i < 3; i++ {
		if err := s.Actuate(RoomTemp); err != nil {
			t.Fatalf("actuation %d failed early: %v", i+1, err)
		}
	}
	if err := s.Actuate(RoomTemp); !errors.Is(err, ErrFailed) {
		t.Errorf("4th actuation of 3-cycle switch should fail, got %v", err)
	}
	if s.Working() {
		t.Error("switch should report failed")
	}
	if s.FailedAt() != 4 {
		t.Errorf("FailedAt = %d, want 4", s.FailedAt())
	}
	if s.Actuations() != 4 {
		t.Errorf("Actuations = %d, want 4", s.Actuations())
	}
}

func TestFailedSwitchStaysFailed(t *testing.T) {
	s := FabricateDeterministic(1)
	_ = s.Actuate(RoomTemp)
	_ = s.Actuate(RoomTemp)
	count := s.Actuations()
	if err := s.Actuate(RoomTemp); !errors.Is(err, ErrFailed) {
		t.Error("failed switch should keep returning ErrFailed")
	}
	if s.Actuations() != count {
		t.Error("actuating a failed switch should not advance the counter")
	}
}

func TestZeroLifetimeFailsImmediately(t *testing.T) {
	s := FabricateDeterministic(0)
	if err := s.Actuate(RoomTemp); !errors.Is(err, ErrFailed) {
		t.Error("an infant-mortality switch must fail on its first actuation")
	}
}

func TestOneTimeSwitch(t *testing.T) {
	// The forward-secrecy primitive: works exactly once.
	s := FabricateDeterministic(1)
	if err := s.Actuate(RoomTemp); err != nil {
		t.Fatal("one-time switch must conduct its single access")
	}
	if err := s.Actuate(RoomTemp); !errors.Is(err, ErrFailed) {
		t.Error("one-time switch must fail on the second access")
	}
}

func TestLifetimeMatchesWeibull(t *testing.T) {
	// Empirical mean failure cycle of fabricated switches should track the
	// distribution mean.
	d := weibull.MustNew(20, 8)
	r := rng.New(11)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		s := Fabricate(d, r)
		for s.Actuate(RoomTemp) == nil {
		}
		sum += float64(s.FailedAt())
	}
	mean := sum / n
	// FailedAt is ceil(lifetime)+1-ish; allow a ±1.5 cycle band around Mean.
	if math.Abs(mean-d.Mean()) > 1.5 {
		t.Errorf("empirical mean failure cycle %g vs distribution mean %g", mean, d.Mean())
	}
}

func TestHighTemperatureAcceleratesWearout(t *testing.T) {
	d := weibull.MustNew(100, 8)
	rHot, rCold := rng.New(5), rng.New(5) // identical lifetimes
	hot := Environment{TempCelsius: 500}
	var hotSum, roomSum float64
	const n = 2000
	for i := 0; i < n; i++ {
		sh := Fabricate(d, rHot)
		sr := Fabricate(d, rCold)
		for sh.Actuate(hot) == nil {
		}
		for sr.Actuate(RoomTemp) == nil {
		}
		hotSum += float64(sh.FailedAt())
		roomSum += float64(sr.FailedAt())
	}
	if hotSum >= roomSum {
		t.Errorf("500°C should shorten lifetimes: hot mean %g vs room mean %g", hotSum/n, roomSum/n)
	}
	// The key security property: no environment extends lifetime.
	if hotSum/n > roomSum/n {
		t.Error("environment extended device lifetime — security violation")
	}
}

func TestFreezingDoesNotExtendLifetime(t *testing.T) {
	d := weibull.MustNew(50, 8)
	r1, r2 := rng.New(9), rng.New(9)
	frozen := Environment{TempCelsius: -80}
	var frozenSum, roomSum float64
	const n = 1000
	for i := 0; i < n; i++ {
		sf := Fabricate(d, r1)
		sr := Fabricate(d, r2)
		for sf.Actuate(frozen) == nil {
		}
		for sr.Actuate(RoomTemp) == nil {
		}
		frozenSum += float64(sf.FailedAt())
		roomSum += float64(sr.FailedAt())
	}
	if frozenSum > roomSum {
		t.Error("freezing extended lifetime — paper says fracture prevents this")
	}
}

func TestEnvironmentAccelerationFactors(t *testing.T) {
	cases := []struct {
		temp float64
		want float64
	}{
		{25, 1}, {100, 1}, {200, 2}, {500, 10}, {-80, 2}, {0, 1},
	}
	for _, c := range cases {
		if got := (Environment{TempCelsius: c.temp}).wearoutAcceleration(); got != c.want {
			t.Errorf("acceleration at %g°C = %g, want %g", c.temp, got, c.want)
		}
	}
}

func TestPopulationFabricateN(t *testing.T) {
	p := NewPopulation(weibull.MustNew(10, 8), 0.1, 0.05, rng.New(3))
	switches := p.FabricateN(50)
	if len(switches) != 50 || p.Produced() != 50 {
		t.Errorf("FabricateN bookkeeping wrong: %d produced", p.Produced())
	}
	for _, s := range switches {
		if !s.Working() {
			t.Error("fresh switch should be working")
		}
	}
}

func TestMeasureLifetimesAndRefit(t *testing.T) {
	// End-to-end characterization: fabricate, cycle to failure, refit the
	// Weibull parameters — they must come back near nominal.
	nominal := weibull.MustNew(15, 6)
	p := NewPopulation(nominal, 0, 0, rng.New(21))
	obs := p.MeasureLifetimes(5000, 1000)
	fit, err := weibull.Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	// SampleCycles ceils the continuous draw and failure is recorded on the
	// first actuation *past* the lifetime, so the refit alpha sits ~1.5
	// cycles above nominal.
	if fit.Alpha < nominal.Alpha || fit.Alpha > nominal.Alpha+2.5 {
		t.Errorf("refit alpha %g, want within [%g, %g]", fit.Alpha, nominal.Alpha, nominal.Alpha+2.5)
	}
	// Discretization to whole cycles blurs beta somewhat.
	if fit.Beta < 4.5 || fit.Beta > 8.5 {
		t.Errorf("refit beta %g, want ~6", fit.Beta)
	}
}

func TestMeasureLifetimesCensoring(t *testing.T) {
	p := NewPopulation(weibull.MustNew(100, 4), 0, 0, rng.New(2))
	obs := p.MeasureLifetimes(200, 50) // cutoff well below mean
	censored := 0
	for _, o := range obs {
		if o.Censored {
			censored++
			if o.Time != 50 {
				t.Error("censored observation should carry the cutoff time")
			}
		}
	}
	if censored == 0 {
		t.Error("expected some censored observations with cutoff << mean")
	}
}

func TestProcessVariationWidensSpread(t *testing.T) {
	d := weibull.MustNew(50, 12)
	rTight, rWide := rng.New(31), rng.New(31)
	tight := NewPopulation(d, 0, 0, rTight)
	wide := NewPopulation(d, 0.4, 0.3, rWide)
	variance := func(p *Population) float64 {
		const n = 4000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			s := p.Fabricate()
			for s.Actuate(RoomTemp) == nil {
			}
			v := float64(s.FailedAt())
			sum += v
			sumSq += v * v
		}
		m := sum / n
		return sumSq/n - m*m
	}
	vt, vw := variance(tight), variance(wide)
	if vw <= vt {
		t.Errorf("process variation should widen lifetime spread: tight %g, wide %g", vt, vw)
	}
}

func TestStringDoesNotLeakLifetime(t *testing.T) {
	s := FabricateDeterministic(12345)
	if str := s.String(); str == "" {
		t.Error("empty String")
	}
	// the hidden lifetime must not be printed
	if containsDigits := func(str, sub string) bool {
		for i := 0; i+len(sub) <= len(str); i++ {
			if str[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	}; containsDigits(s.String(), "12345") {
		t.Error("String() leaks the hidden lifetime")
	}
}

// TestSwitchSize pins the per-device footprint: structures store switches
// as contiguous values, so every byte here is paid 3,360 times per phone
// key. Failure is encoded by a nonzero failCycle, not a separate flag.
func TestSwitchSize(t *testing.T) {
	if got := unsafe.Sizeof(Switch{}); got > 32 {
		t.Fatalf("unsafe.Sizeof(Switch{}) = %d, want <= 32", got)
	}
}

// TestRestoreStateFailureRoundTrip checks that the working/failed verdict
// survives a State/RestoreState round trip in both directions.
func TestRestoreStateFailureRoundTrip(t *testing.T) {
	worn := FabricateDeterministic(1)
	for worn.Actuate(RoomTemp) == nil {
	}
	fresh := FabricateDeterministic(1)
	fresh.RestoreState(worn.State())
	if fresh.Working() || fresh.FailedAt() != 2 || !errors.Is(fresh.Actuate(RoomTemp), ErrFailed) {
		t.Fatalf("restored worn state: working=%v failedAt=%d", fresh.Working(), fresh.FailedAt())
	}
	fresh.RestoreState(State{})
	if !fresh.Working() || fresh.Actuate(RoomTemp) != nil {
		t.Fatal("restoring a zero state must bring the switch back to working")
	}
}
