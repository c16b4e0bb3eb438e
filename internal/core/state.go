package core

import (
	"fmt"

	"lemonade/internal/nems"
)

// State is the complete mutable state of an Architecture, exported for
// durable persistence (snapshots in internal/wal). It is exact: the
// per-copy, per-switch wear states pin which devices are broken and how
// worn the survivors are, and the RNG field pins the fabrication stream
// position — so Build(same design, secret, seed) followed by Restore
// reproduces an architecture bit-identical to one that was never torn
// down. What it deliberately does NOT contain: the secret, the Shamir
// shares, and the hidden per-switch lifetimes, all of which are derived
// from the (design, secret, seed) triple at rebuild time.
type State struct {
	CurrentCopy   int            `json:"current_copy"`
	TotalAttempts uint64         `json:"total_attempts"`
	Successful    uint64         `json:"successful"`
	RNG           [4]uint64      `json:"rng"`
	Copies        [][]nems.State `json:"copies"`

	// Adversarial-wearout and wear-leveling state. Every field is
	// omitempty so the serialized form of a pre-leveling unleveled
	// architecture is byte-identical to what it always was. Stressed can
	// be set on either variant (stress traffic targets both); the
	// remaining fields exist only on the leveled variant, where Assign
	// and Retired are per-copy (remap table, retired physical indices).
	Stressed      uint64  `json:"stressed,omitempty"`
	OpsSinceRemap uint64  `json:"ops_since_remap,omitempty"`
	Remaps        uint64  `json:"remaps,omitempty"`
	Assign        [][]int `json:"assign,omitempty"`
	Retired       [][]int `json:"retired,omitempty"`
}

// State captures the architecture's mutable state under its lock. The
// snapshot is consistent: it can never observe a half-applied access,
// because accesses hold the same lock for their full traversal.
func (a *Architecture) State() State {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := State{
		CurrentCopy:   a.cur,
		TotalAttempts: a.total,
		Successful:    a.ok,
		RNG:           a.r.State(),
		Copies:        make([][]nems.State, len(a.copies)),
	}
	for ci, c := range a.copies {
		sw := make([]nems.State, len(c.switches))
		for i := range c.switches {
			sw[i] = c.switches[i].State()
		}
		st.Copies[ci] = sw
	}
	st.Stressed = a.stressed
	if a.leveling != nil {
		st.OpsSinceRemap = a.opsSince
		st.Remaps = a.remaps
		st.Assign = make([][]int, len(a.copies))
		st.Retired = make([][]int, len(a.copies))
		for ci, c := range a.copies {
			st.Assign[ci] = c.bank.Assign()
			retired := make([]int, 0)
			for p := 0; p < c.bank.Physical(); p++ {
				if c.bank.Retired(p) {
					retired = append(retired, p)
				}
			}
			st.Retired[ci] = retired
		}
	}
	return st
}

// Restore overlays a previously captured State onto a freshly built
// architecture. The architecture must have been built from the same
// (design, secret, seed) triple that produced the state — Build is
// deterministic, so the hidden lifetimes and share encoding line up and
// replay after Restore is bit-identical to uninterrupted execution. The
// shape of the state (copy and switch counts) is validated; its origin
// cannot be, so callers (the WAL recovery path) are responsible for
// pairing states with their provisioning records.
func (a *Architecture) Restore(st State) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(st.Copies) != len(a.copies) {
		return fmt.Errorf("core: restore: state has %d copies, architecture has %d",
			len(st.Copies), len(a.copies))
	}
	for ci, sw := range st.Copies {
		if len(sw) != len(a.copies[ci].switches) {
			return fmt.Errorf("core: restore: copy %d has %d switch states, architecture has %d",
				ci, len(sw), len(a.copies[ci].switches))
		}
	}
	if st.CurrentCopy < 0 || st.CurrentCopy > len(a.copies) {
		return fmt.Errorf("core: restore: current copy %d out of range [0, %d]",
			st.CurrentCopy, len(a.copies))
	}
	if st.Successful > st.TotalAttempts {
		return fmt.Errorf("core: restore: %d successes exceed %d attempts",
			st.Successful, st.TotalAttempts)
	}
	if a.leveling == nil {
		if st.Assign != nil || st.Retired != nil || st.OpsSinceRemap != 0 || st.Remaps != 0 {
			return fmt.Errorf("core: restore: leveled state onto an unleveled architecture")
		}
	} else {
		if len(st.Assign) != len(a.copies) {
			return fmt.Errorf("core: restore: state has %d remap tables, architecture has %d copies",
				len(st.Assign), len(a.copies))
		}
		if len(st.Retired) != len(a.copies) {
			return fmt.Errorf("core: restore: state has %d retirement sets, architecture has %d copies",
				len(st.Retired), len(a.copies))
		}
	}
	// Validate the leveling payload against scratch banks before mutating
	// anything: Restore must be all-or-nothing, and the shape checks above
	// do not cover assignment width/range/distinctness.
	if a.leveling != nil {
		for ci := range st.Assign {
			scratch, err := nems.NewBank(a.copies[ci].switches, a.design.N)
			if err != nil {
				return fmt.Errorf("core: restore: copy %d: %w", ci, err)
			}
			if err := scratch.SetAssign(st.Assign[ci]); err != nil {
				return fmt.Errorf("core: restore: copy %d: %w", ci, err)
			}
			for _, p := range st.Retired[ci] {
				if err := scratch.Retire(p); err != nil {
					return fmt.Errorf("core: restore: copy %d: %w", ci, err)
				}
			}
		}
	}
	a.cur = st.CurrentCopy
	a.total = st.TotalAttempts
	a.ok = st.Successful
	a.r.SetState(st.RNG)
	for ci, sw := range st.Copies {
		for i, s := range sw {
			a.copies[ci].switches[i].RestoreState(s)
		}
	}
	a.stressed = st.Stressed
	if a.leveling != nil {
		a.opsSince = st.OpsSinceRemap
		a.remaps = st.Remaps
		for ci := range st.Assign {
			b := a.copies[ci].bank
			if err := b.SetAssign(st.Assign[ci]); err != nil {
				return fmt.Errorf("core: restore: copy %d: %w", ci, err)
			}
			for _, p := range st.Retired[ci] {
				if err := b.Retire(p); err != nil {
					return fmt.Errorf("core: restore: copy %d: %w", ci, err)
				}
			}
		}
	}
	return nil
}
