package nems

import (
	"errors"
	"fmt"
	"sort"
)

// Bank is a wear-leveled pool of NEMS switches: n logical slots served by
// len(phys) physical switches (primaries plus spares) through a
// WoLFRaM-style programmable remap table (arXiv:2010.02825). Each logical
// slot guards one component share; the remap table decides which physical
// switch fires when that slot is actuated. Rotating the table onto the
// least-worn physical switches levels an adversary's targeted stress
// pattern (arXiv:2508.16868) across the whole pool, and retiring a worn
// switch swaps a spare under the same logical share.
//
// A Bank has no locking of its own: it is always owned by exactly one
// core.Architecture copy and mutated under that architecture's lock,
// exactly like the raw switch slice it replaces.
//
// The bank aliases the switch slice it is built over rather than copying
// it: an actuation through the bank wears the very values the owning
// architecture reads for health, checkpointing and restore.
type Bank struct {
	phys    []Switch
	n       int    // logical width (shares)
	assign  []int  // logical slot i fires phys[assign[i]]
	retired []bool // physical; sticky — a retired switch never re-enters service
}

// NewBank builds a bank of n logical slots over phys (primaries first,
// spares after). The initial mapping is the identity: logical i fires
// phys[i]. The bank keeps phys itself, so wear it applies is visible to
// every holder of the slice.
func NewBank(phys []Switch, n int) (*Bank, error) {
	if n < 1 {
		return nil, fmt.Errorf("nems: bank needs at least 1 logical slot, got %d", n)
	}
	if len(phys) < n {
		return nil, fmt.Errorf("nems: bank has %d physical switches for %d logical slots", len(phys), n)
	}
	b := &Bank{phys: phys, n: n, assign: make([]int, n), retired: make([]bool, len(phys))}
	for i := range b.assign {
		b.assign[i] = i
	}
	return b, nil
}

// Actuate fires the physical switch currently mapped under logical slot i.
func (b *Bank) Actuate(logical int, env Environment) error {
	return b.phys[b.assign[logical]].Actuate(env)
}

// SlotWorking reports whether logical slot i's mapped switch can conduct.
func (b *Bank) SlotWorking(logical int) bool {
	return b.phys[b.assign[logical]].Working()
}

// Slots returns the logical width of the bank.
func (b *Bank) Slots() int { return b.n }

// Physical returns the size of the physical pool (primaries + spares).
func (b *Bank) Physical() int { return len(b.phys) }

// Assign returns a copy of the current remap table.
func (b *Bank) Assign() []int {
	out := make([]int, len(b.assign))
	copy(out, b.assign)
	return out
}

// errAssign is the uniform rejection for remap tables that cannot be
// installed; callers (WAL replay) surface it as corruption.
var errAssign = errors.New("nems: invalid remap assignment")

// SetAssign installs a remap table verbatim: len(assign) must equal the
// logical width and the entries must be distinct in-range physical
// indices. Deliberately NOT validated: whether the targets are working or
// retired — replay must be able to reinstall any table that was ever
// durably recorded, and mapping a dead switch is harmless (the slot just
// stops conducting until the next rotation).
func (b *Bank) SetAssign(assign []int) error {
	if len(assign) != b.n {
		return fmt.Errorf("%w: %d entries for %d slots", errAssign, len(assign), b.n)
	}
	seen := make(map[int]bool, len(assign))
	for _, p := range assign {
		if p < 0 || p >= len(b.phys) {
			return fmt.Errorf("%w: physical index %d out of range [0, %d)", errAssign, p, len(b.phys))
		}
		if seen[p] {
			return fmt.Errorf("%w: physical index %d assigned twice", errAssign, p)
		}
		seen[p] = true
	}
	copy(b.assign, assign)
	return nil
}

// Retire permanently removes a physical switch from service: it is
// excluded from future remap plans, from the spare count, and from the
// wear-skew statistic. Retiring an already-retired switch is a no-op,
// which keeps WAL replay idempotent.
func (b *Bank) Retire(physical int) error {
	if physical < 0 || physical >= len(b.phys) {
		return fmt.Errorf("nems: retire: physical index %d out of range [0, %d)", physical, len(b.phys))
	}
	b.retired[physical] = true
	return nil
}

// Retired reports whether physical switch p has been retired.
func (b *Bank) Retired(physical int) bool { return b.retired[physical] }

// usable reports whether physical switch p can serve a logical slot.
func (b *Bank) usable(p int) bool { return !b.retired[p] && b.phys[p].Working() }

// Usable counts physical switches that could serve a logical slot after a
// rotation: working and not retired, whether or not currently assigned.
// This is the bank's service potential — a copy is recoverable as long as
// Usable() meets the survivor threshold, even if the current mapping has
// dead switches under some slots.
func (b *Bank) Usable() int {
	n := 0
	for p := range b.phys {
		if b.usable(p) {
			n++
		}
	}
	return n
}

// PlanRemap computes the deterministic WoLFRaM rotation for the current
// wear state:
//
//   - RetireList: assigned switches that have worn out and are not yet
//     retired — they leave service for good.
//   - Assign: the n least-worn usable switches, ranked by (accumulated
//     wear, physical index) and installed in physical-index order. When
//     fewer than n usable switches remain the plan pads with the retired
//     and worn (lowest index first): those slots simply never conduct,
//     exactly like a worn-out unleveled structure.
//
// The plan is a pure function of observable wear state (actuation counts
// weighted by the per-request environment the controller itself served),
// so equal histories produce equal plans — the property the durable remap
// log and the bit-identical replay contract lean on.
func (b *Bank) PlanRemap() (assign, retire []int) {
	for _, p := range b.assign {
		if !b.retired[p] && !b.phys[p].Working() {
			retire = append(retire, p)
		}
	}
	sort.Ints(retire)
	justRetired := make(map[int]bool, len(retire))
	for _, p := range retire {
		justRetired[p] = true
	}
	var usable, dead []int
	for p := range b.phys {
		if b.usable(p) && !justRetired[p] {
			usable = append(usable, p)
		} else {
			dead = append(dead, p)
		}
	}
	sort.Slice(usable, func(i, j int) bool {
		wi, wj := b.phys[usable[i]].Wear(), b.phys[usable[j]].Wear()
		if wi < wj {
			return true
		}
		if wj < wi {
			return false
		}
		return usable[i] < usable[j]
	})
	if len(usable) > b.n {
		usable = usable[:b.n]
	}
	assign = usable
	for len(assign) < b.n {
		assign = append(assign, dead[0])
		dead = dead[1:]
	}
	sort.Ints(assign)
	return assign, retire
}

// WearSkew is the spread of accumulated wear across the serviceable pool:
// max − min wear over non-retired physical switches. A targeted stress
// attack drives it up on an unleveled structure (the victim switches age,
// the rest do not); rotation pulls it back down. Zero when fewer than two
// serviceable switches remain.
func (b *Bank) WearSkew() float64 {
	return wearSkew(b.phys, b.retired)
}

// wearSkew computes max−min wear over switches not excluded; excluded may
// be nil (nothing excluded). Shared with the unleveled architecture so
// both variants report the same statistic.
func wearSkew(switches []Switch, excluded []bool) float64 {
	first := true
	var lo, hi float64
	for p := range switches {
		if excluded != nil && excluded[p] {
			continue
		}
		w := switches[p].Wear()
		if first {
			lo, hi = w, w
			first = false
			continue
		}
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	if first {
		return 0
	}
	return hi - lo
}

// WearSkewOf reports max−min accumulated wear across a plain switch
// slice — the unleveled architecture's side of the skew gauge.
func WearSkewOf(switches []Switch) float64 { return wearSkew(switches, nil) }

// SparesRemaining counts usable physical switches not currently mapped
// under any logical slot — the remaining headroom before the bank
// degrades like an unleveled structure.
func (b *Bank) SparesRemaining() int {
	inService := make([]bool, len(b.phys))
	for _, p := range b.assign {
		inService[p] = true
	}
	n := 0
	for p := range b.phys {
		if !inService[p] && b.usable(p) {
			n++
		}
	}
	return n
}
