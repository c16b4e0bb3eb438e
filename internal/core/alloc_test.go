package core

import (
	"runtime"
	"testing"

	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/race"
	"lemonade/internal/reliability"
	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

// buildLongLived fabricates an encoded architecture whose switches last
// far beyond the accesses a test performs (α in the millions), so the
// steady-state cost of Access can be measured without the copy dying.
func buildLongLived(t *testing.T, n, k int, secret []byte) *Architecture {
	t.Helper()
	design := dse.Design{
		Spec:   dse.Spec{Dist: weibull.MustNew(5e6, 8)},
		T:      1000,
		UpperT: 1000,
		N:      n,
		K:      k,
		Copies: 1,
	}
	a, err := Build(design, secret, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAccessAllocsSteadyState pins the access path's allocation budget:
// after warmup, one access allocates only the returned secret (the
// conducting scratch, share selection, and Shamir reconstruction all run
// on reused or pooled buffers).
func TestAccessAllocsSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	secret := []byte("the paper's limited-use secret")
	for _, tc := range []struct {
		name string
		n, k int
	}{
		{"replica", 8, 1},
		{"gf256", 16, 4},
		{"gf16", 300, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := buildLongLived(t, tc.n, tc.k, secret)
			env := nems.Environment{}
			if _, err := a.Access(env); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := a.Access(env); err != nil {
					panic(err)
				}
			})
			// The returned secret is one allocation; leave headroom for
			// runtime bookkeeping but forbid per-switch or per-share churn.
			if allocs > 2 {
				t.Fatalf("Access allocates %.1f times per call, want <= 2 (secret only)", allocs)
			}
		})
	}
}

// phoneDesign is the smartphone storage key of the paper's first
// deployment story (α=14, β=8, LAB 350, k = 10% of n): 24 copies of 140
// switches, 3,360 devices.
func phoneDesign(t *testing.T) dse.Design {
	t.Helper()
	d, err := dse.Explore(dse.Spec{
		Dist:        weibull.MustNew(14, 8),
		Criteria:    reliability.DefaultCriteria,
		LAB:         350,
		KFrac:       0.1,
		ContinuousT: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBuildAllocs pins the fabrication footprint of a phone key: every
// switch of every copy lives in one contiguous value pool, so Build's
// allocation count tracks the share encoding and the per-copy headers, not
// the 3,360 devices.
func TestBuildAllocs(t *testing.T) {
	design := phoneDesign(t)
	if design.Copies*design.N < 3000 {
		t.Fatalf("phone design %v has only %d devices; the ceilings below assume ~3,360",
			design, design.Copies*design.N)
	}
	secret := make([]byte, 16)
	build := func() {
		if _, err := Build(design, secret, rng.New(7)); err != nil {
			panic(err)
		}
	}
	build()
	if allocs := testing.AllocsPerRun(10, build); allocs > 200 {
		t.Errorf("phone Build allocates %.0f times, want <= 200 (one per device is a regression)", allocs)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	if perBuild := (after.TotalAlloc - before.TotalAlloc) / runs; perBuild > 140<<10 {
		t.Errorf("phone Build allocates %d bytes, want <= %d", perBuild, 140<<10)
	}
}
