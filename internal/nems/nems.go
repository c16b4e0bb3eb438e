// Package nems simulates NEMS (nanoelectromechanical) contact switches —
// the wearout devices of §2.1 of the paper — as stochastic state machines.
//
// A Switch is fabricated with a hidden lifetime drawn from a Weibull
// distribution (optionally perturbed by per-device process variation) and
// fails permanently once actuated that many times. The simulator also
// models the environmental insensitivity the paper relies on for security:
// operating temperature can accelerate wearout (melting at 500 °C for SiC)
// but can never extend a device's lifetime, and freezing leads to fracture
// rather than slower aging.
//
// Physical constants (actuation latency, switching energy, contact area)
// follow Loh & Espinosa (Nature Nanotech 2012), the source the paper cites:
// ~10 ns per actuation, ~1e-20 J per operation, ~100 nm² contact area.
package nems

import (
	"errors"
	"fmt"

	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

// Physical constants used by the cost and latency models (paper §4.3, §6.5).
const (
	// ActuationLatencySeconds is the switching time of one NEMS contact
	// switch (~10 ns).
	ActuationLatencySeconds = 10e-9
	// ActuationEnergyJoules is the energy of one switching operation
	// (~1e-20 J).
	ActuationEnergyJoules = 1e-20
	// ContactAreaNm2 is the contact area of one switch in nm².
	ContactAreaNm2 = 100.0
	// PitchNm is the assumed distance between switches in a layout, nm.
	PitchNm = 1.0
)

// Environment describes operating conditions for an actuation. The paper's
// security argument (§2.1) is that NEMS wearout is insensitive to the
// environment in the attacker-favourable direction: heat and cold can only
// destroy devices faster.
type Environment struct {
	// TempCelsius is the operating temperature. Devices are specified at
	// 25 °C; extreme temperatures apply a wearout *acceleration* factor,
	// never a deceleration.
	TempCelsius float64
}

// RoomTemp is the nominal specification environment.
var RoomTemp = Environment{TempCelsius: 25}

// wearoutAcceleration returns the multiplicative factor applied to wear per
// actuation. Always >= 1: the paper's devices cannot be life-extended by
// environmental control.
func (e Environment) wearoutAcceleration() float64 {
	switch {
	case e.TempCelsius >= 400:
		// SiC switches suffer melting-type failures at 500 °C; the paper
		// cites ~10x fewer cycles (21e9 at 25 °C vs 2e9 at 500 °C).
		return 10
	case e.TempCelsius >= 150:
		return 2
	case e.TempCelsius <= -40:
		// Freezing causes fracture; model as mildly accelerated wear.
		return 2
	default:
		return 1
	}
}

// ErrFailed is returned by Actuate on a switch that has worn out.
var ErrFailed = errors.New("nems: switch has worn out")

// Switch is one simulated NEMS contact switch.
//
// The hidden lifetime is fixed at fabrication; Actuate consumes it. Wear is
// tracked in fractional cycles so environmental acceleration composes.
//
// A Switch is a 32-byte plain value: structures hold their switches in one
// contiguous []Switch and actuate them in place through &slice[i], so a
// fabricated key costs one allocation for all of its devices rather than
// one per device.
type Switch struct {
	lifetime  float64 // hidden: cycles until failure at 25 °C
	wear      float64 // accumulated (accelerated) cycles
	actuated  uint64  // observable actuation count
	failCycle uint64  // actuation index at which failure occurred (1-based); 0 = working
}

// Fabricate draws a switch from the given lifetime distribution.
func Fabricate(d weibull.Dist, r *rng.RNG) Switch {
	return Switch{lifetime: float64(d.SampleCycles(r))}
}

// FabricateWithVariation draws a per-device effective distribution from the
// process-variation model, then a lifetime from it.
func FabricateWithVariation(v weibull.Variation, r *rng.RNG) Switch {
	return Fabricate(v.Draw(r), r)
}

// FabricateDeterministic returns a switch that completes exactly
// lifetimeCycles successful actuations and fails on the next one — useful
// in tests and for ideal-device thought experiments (e.g. the paper's
// "wears out exactly after one access" forward-secrecy store, which is
// FabricateDeterministic(1)). Zero models an infant-mortality device that
// fails on its first actuation.
func FabricateDeterministic(lifetimeCycles uint64) Switch {
	return Switch{lifetime: float64(lifetimeCycles)}
}

// Actuate closes and reopens the switch once under the given environment.
// It returns ErrFailed if the switch has already worn out, or wears out
// during this actuation (the actuation that kills the switch does NOT
// conduct: the paper counts a device as working "for t accesses" if access
// t still succeeds).
func (s *Switch) Actuate(env Environment) error {
	if s.failCycle != 0 {
		return ErrFailed
	}
	s.actuated++
	s.wear += env.wearoutAcceleration()
	if s.wear > s.lifetime {
		s.failCycle = s.actuated
		return ErrFailed
	}
	return nil
}

// State is the mutable wear state of one switch, exported for durable
// checkpointing. The hidden lifetime is deliberately absent: a restore
// re-fabricates the switch from the original seed (which reproduces the
// identical lifetime) and then overlays this state, so the lifetime never
// leaves the simulated hardware — snapshots on disk reveal no more about
// remaining life than the adversary could learn by watching accesses.
type State struct {
	Wear      float64 `json:"wear"`
	Actuated  uint64  `json:"actuated"`
	FailCycle uint64  `json:"fail_cycle,omitempty"` // 0 = still working
}

// State captures the switch's mutable wear state.
func (s *Switch) State() State {
	return State{Wear: s.wear, Actuated: s.actuated, FailCycle: s.failCycle}
}

// RestoreState overlays a previously captured wear state onto the switch.
// The hidden lifetime is untouched — callers must restore onto a switch
// fabricated from the same RNG stream, or wearout semantics are undefined.
func (s *Switch) RestoreState(st State) {
	s.wear = st.Wear
	s.actuated = st.Actuated
	s.failCycle = st.FailCycle
}

// Working reports whether the switch can still conduct.
func (s *Switch) Working() bool { return s.failCycle == 0 }

// Wear returns the accumulated (environment-accelerated) actuation cycles.
// This is observable state, not a leak of the hidden lifetime: the
// controller served every actuation and knows each one's environment, so
// it could recompute this sum from its own request history. The
// wear-leveling planner ranks switches by it.
func (s *Switch) Wear() float64 { return s.wear }

// Actuations returns how many times Actuate has been called.
func (s *Switch) Actuations() uint64 { return s.actuated }

// FailedAt returns the 1-based actuation index at which the switch failed,
// or 0 if it is still working.
func (s *Switch) FailedAt() uint64 { return s.failCycle }

// String implements fmt.Stringer without leaking the hidden lifetime.
func (s *Switch) String() string {
	state := "working"
	if s.failCycle != 0 {
		state = fmt.Sprintf("failed@%d", s.failCycle)
	}
	return fmt.Sprintf("nems.Switch{actuations=%d, %s}", s.actuated, state)
}

// --- Populations ----------------------------------------------------------------

// Population fabricates batches of switches from one lifetime model and
// records fabrication statistics, standing in for a manufacturing lot.
type Population struct {
	Variation weibull.Variation
	rng       *rng.RNG
	produced  int
}

// NewPopulation creates a manufacturing lot model. If cvAlpha or cvBeta are
// nonzero, each device gets its own perturbed Weibull parameters.
func NewPopulation(nominal weibull.Dist, cvAlpha, cvBeta float64, r *rng.RNG) *Population {
	return &Population{
		Variation: weibull.Variation{Nominal: nominal, CVAlpha: cvAlpha, CVBeta: cvBeta},
		rng:       r,
	}
}

// Fabricate produces one switch from the lot.
func (p *Population) Fabricate() Switch {
	p.produced++
	return FabricateWithVariation(p.Variation, p.rng)
}

// FabricateN produces n switches.
func (p *Population) FabricateN(n int) []Switch {
	out := make([]Switch, n)
	for i := range out {
		out[i] = p.Fabricate()
	}
	return out
}

// Produced returns the number of devices fabricated so far.
func (p *Population) Produced() int { return p.produced }

// MeasureLifetimes destructively cycles n fresh devices to failure and
// returns their observed lifetimes — the characterization experiment a
// fabricator would run to fit (α, β) for the DSE.
func (p *Population) MeasureLifetimes(n int, maxCycles uint64) []weibull.Obs {
	obs := make([]weibull.Obs, n)
	for i := range obs {
		s := p.Fabricate()
		var c uint64
		for c = 0; c < maxCycles; c++ {
			if err := s.Actuate(RoomTemp); err != nil {
				break
			}
		}
		if s.Working() {
			obs[i] = weibull.Obs{Time: float64(maxCycles), Censored: true}
		} else {
			obs[i] = weibull.Obs{Time: float64(s.FailedAt())}
		}
	}
	return obs
}
