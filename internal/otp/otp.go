// Package otp implements use case 3 of the paper (§6): hardware one-time
// pads built from NEMS decision trees.
//
// A pad stores 2^(H-1) candidate random keys at the leaves of a
// decision-tree circuit whose intermediate nodes are fast-wearing NEMS
// switches (Fig 7). Only the sender and receiver know the short path
// string indexing the real key. To tolerate path failures without leaking
// information, the key at every leaf position is Shamir-split across
// n = Copies replicas of the tree (§6.3): the receiver needs k successful
// traversals of the right path; an adversary doing random-path trials
// needs k successes that also happen to be the right path — Eqs 9–15.
//
// The leaves are read-destructive shift registers, and every traversal
// wears the path's switches, so the pad self-destructs with use.
package otp

import (
	"errors"
	"fmt"
	"math"

	"lemonade/internal/cost"
	"lemonade/internal/mathx"
	"lemonade/internal/memory"
	"lemonade/internal/nems"
	"lemonade/internal/rng"
	"lemonade/internal/shamir"
	"lemonade/internal/weibull"
)

// Params are the engineering parameters of one pad (§6.4).
type Params struct {
	Dist   weibull.Dist // device wearout model (paper default α=10, β=1)
	Height int          // H: switches traversed per path; 2^(H-1) leaves
	Copies int          // n: replicated trees per pad (paper default 128)
	K      int          // Shamir threshold (paper default 8)
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if err := p.Dist.Validate(); err != nil {
		return err
	}
	if p.Height < 1 || p.Height > 62 {
		return fmt.Errorf("otp: height must be in [1, 62], got %d", p.Height)
	}
	if p.Copies < 1 || p.Copies > shamir.MaxShares {
		return fmt.Errorf("otp: copies must be in [1, %d], got %d", shamir.MaxShares, p.Copies)
	}
	if p.K < 1 || p.K > p.Copies {
		return fmt.Errorf("otp: k must be in [1, copies], got %d", p.K)
	}
	return nil
}

// Paths returns the number of candidate keys per tree: 2^(H-1) (Eq 11).
func (p Params) Paths() int { return 1 << uint(p.Height-1) }

// KeyBits returns the paper's key sizing rule: ~1000·H bits (§6.5.1).
func (p Params) KeyBits() int { return 1000 * p.Height }

// --- Analytics (Eqs 9–15) ------------------------------------------------------

// PathSuccess returns the probability of getting through one H-switch path
// on the first access: e^{-(1/α)^β·H} (Eqs 9, 12 — identical for receiver
// and adversary). It is a package-level function so the Fig 8/9 grids can
// evaluate heights beyond the buildable-hardware cap.
func PathSuccess(d weibull.Dist, height int) float64 {
	return math.Exp(float64(height) * d.LogReliability(1))
}

// ReceiverSuccessProb returns S_recv(k+) of Eq 10 for arbitrary
// parameters.
func ReceiverSuccessProb(d weibull.Dist, height, copies, k int) float64 {
	return mathx.BinomTailGE(copies, k, PathSuccess(d, height))
}

// AdversarySuccessProb returns S_adv(k+) of Eq 15 for arbitrary
// parameters: the right-path probability 1/2^(H-1) (Eq 11) is computed in
// floating point, so heights far beyond integer-path-count range work.
func AdversarySuccessProb(d weibull.Dist, height, copies, k int) float64 {
	s1 := PathSuccess(d, height)
	pRight := math.Exp2(-float64(height - 1)) // Eq 11
	var sum mathx.KahanSum
	for x := k; x <= copies; x++ {
		probX := mathx.BinomPMF(copies, x, s1)  // Eq 13
		hitK := mathx.BinomTailGE(x, k, pRight) // Eq 14
		sum.Add(probX * hitK)                   // Eq 15
	}
	return mathx.Clamp01(sum.Sum())
}

// PathSuccessProb returns the per-copy path survival probability of this
// parameter point.
func (p Params) PathSuccessProb() float64 { return PathSuccess(p.Dist, p.Height) }

// ReceiverSuccess returns S_recv(k+) of Eq 10: the probability the
// receiver gets through the right path in at least k of the n copies.
func (p Params) ReceiverSuccess() float64 {
	return ReceiverSuccessProb(p.Dist, p.Height, p.Copies, p.K)
}

// AdversarySuccess returns S_adv(k+) of Eq 15: the probability an
// adversary doing one random-path trial per copy obtains at least k
// components of the right key.
func (p Params) AdversarySuccess() float64 {
	return AdversarySuccessProb(p.Dist, p.Height, p.Copies, p.K)
}

// SuccessSpace reports whether the parameters live in the pads' "success
// space" (Fig 8): receiver succeeds with at least recvMin probability while
// the adversary succeeds with at most advMax.
func (p Params) SuccessSpace(recvMin, advMax float64) bool {
	return p.ReceiverSuccess() >= recvMin && p.AdversarySuccess() <= advMax
}

// RetrievalLatency returns the worst-case key retrieval latency (§6.5.2).
func (p Params) RetrievalLatency() cost.Latency {
	return cost.OTPRetrievalLatency(p.Height, p.Copies, p.KeyBits())
}

// RetrievalEnergy returns the worst-case path energy (§6.5.2).
func (p Params) RetrievalEnergy() cost.Energy {
	return cost.OTPPathEnergy(p.Height, p.Copies)
}

// TreeArea returns the area of one tree copy (§6.5.1).
func (p Params) TreeArea() cost.Area {
	return cost.DecisionTreeArea(p.Height, p.KeyBits())
}

// PadsPerChip returns how many complete pads (n tree copies each) fit on a
// chip of the given area in mm² (Fig 10 divides by the copy count).
func (p Params) PadsPerChip(chipMm2 float64) int {
	return cost.TreesPerChip(p.Height, chipMm2) / p.Copies
}

// --- Hardware ---------------------------------------------------------------------

// tree is one decision-tree circuit: Height levels of switches, a register
// per leaf.
type tree struct {
	levels [][]nems.Switch // levels[l] has min(2^l, leaves) switches
	leaves []*memory.ShiftRegister
}

// newTree fabricates a tree whose leaf j holds share data shares[j].
func newTree(p Params, shares [][]byte, r *rng.RNG) (*tree, error) {
	leaves := p.Paths()
	if len(shares) != leaves {
		return nil, fmt.Errorf("otp: need %d leaf payloads, got %d", leaves, len(shares))
	}
	t := &tree{levels: make([][]nems.Switch, p.Height), leaves: make([]*memory.ShiftRegister, leaves)}
	for l := 0; l < p.Height; l++ {
		width := 1 << uint(l)
		if width > leaves {
			width = leaves
		}
		t.levels[l] = make([]nems.Switch, width)
		for i := range t.levels[l] {
			t.levels[l][i] = nems.Fabricate(p.Dist, r)
		}
	}
	for j, data := range shares {
		sr, err := memory.NewShiftRegister(data, len(data)*8)
		if err != nil {
			return nil, err
		}
		t.leaves[j] = sr
	}
	return t, nil
}

// traverse actuates the switches along the path and, if all conduct, reads
// the leaf register destructively. It returns the leaf payload (nil if the
// path failed or the leaf was already consumed) plus the latency spent.
func (t *tree) traverse(path int, env nems.Environment) (data []byte, latencyNs float64) {
	for l, level := range t.levels {
		idx := 0
		if len(level) > 1 {
			// bits of path select the node at each level below the root
			idx = path >> uint(len(t.levels)-1-l)
			idx %= len(level)
		}
		latencyNs += nems.ActuationLatencySeconds * 1e9
		if level[idx].Actuate(env) != nil {
			return nil, latencyNs
		}
	}
	payload, readNs, err := t.leaves[path].ReadOut()
	latencyNs += readNs
	if err != nil {
		return nil, latencyNs
	}
	return payload, latencyNs
}

// Pad is one fabricated one-time pad: n tree copies whose leaf position j
// holds the n Shamir shares of candidate key j.
type Pad struct {
	params Params
	trees  []*tree
	used   bool
}

// RetrievalStats reports the physical cost of one retrieval.
type RetrievalStats struct {
	LatencyNs float64
	EnergyJ   float64
}

var (
	// ErrRetrievalFailed is returned when fewer than k copies yielded the
	// right-path component.
	ErrRetrievalFailed = errors.New("otp: retrieval failed (too few surviving paths)")
)

// Fabricate builds a pad. Every leaf position receives an independent
// random key (so wrong-path reads yield decoys, §6.1); the key at
// position `path` is the pad's real key, returned to the fabricator (the
// sender keeps it; the receiver later learns only the path string).
func Fabricate(p Params, path int, r *rng.RNG) (*Pad, []byte, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if path < 0 || path >= p.Paths() {
		return nil, nil, fmt.Errorf("otp: path %d out of range [0, %d)", path, p.Paths())
	}
	keyBytes := (p.KeyBits() + 7) / 8
	leaves := p.Paths()
	// shares[c][j] = share for copy c, leaf j
	perCopy := make([][][]byte, p.Copies)
	for c := range perCopy {
		perCopy[c] = make([][]byte, leaves)
	}
	var realKey []byte
	for j := 0; j < leaves; j++ {
		key := make([]byte, keyBytes)
		r.Bytes(key)
		if j == path {
			realKey = key
		}
		shares, err := shamir.Split(key, p.K, p.Copies, r)
		if err != nil {
			return nil, nil, err
		}
		for c := range perCopy {
			// prepend the share x-coordinate so a reader can rebuild it
			perCopy[c][j] = append([]byte{shares[c].X}, shares[c].Data...)
		}
	}
	pad := &Pad{params: p, trees: make([]*tree, p.Copies)}
	for c := range pad.trees {
		t, err := newTree(p, perCopy[c], r)
		if err != nil {
			return nil, nil, err
		}
		pad.trees[c] = t
	}
	return pad, realKey, nil
}

// Params returns the pad's engineering parameters.
func (pad *Pad) Params() Params { return pad.params }

// Retrieve performs the receiver's retrieval: traverse `path` in every
// copy, collect the surviving components, and combine at least k of them.
func (pad *Pad) Retrieve(path int, env nems.Environment) ([]byte, RetrievalStats, error) {
	stats := RetrievalStats{}
	if path < 0 || path >= pad.params.Paths() {
		return nil, stats, fmt.Errorf("otp: path %d out of range", path)
	}
	pad.used = true
	var shares []shamir.Share
	for _, t := range pad.trees {
		data, latNs := t.traverse(path, env)
		stats.LatencyNs += latNs
		stats.EnergyJ += float64(pad.params.Height) * nems.ActuationEnergyJoules
		if data == nil || len(data) < 2 {
			continue
		}
		shares = append(shares, shamir.Share{X: data[0], Data: data[1:]})
	}
	if len(shares) < pad.params.K {
		return nil, stats, fmt.Errorf("%w: %d of %d needed", ErrRetrievalFailed, len(shares), pad.params.K)
	}
	key, err := shamir.Combine(shares, pad.params.K)
	if err != nil {
		return nil, stats, err
	}
	return key, stats, nil
}

// AdversaryTrial performs one random-path trial per copy (the attack of
// Eq 12–15: the adversary has the chip but not the path string) and
// reports how many components of the *target* path were obtained, plus
// whether that reaches the threshold k.
func (pad *Pad) AdversaryTrial(targetPath int, env nems.Environment, r *rng.RNG) (rightShares int, success bool) {
	pad.used = true
	for _, t := range pad.trees {
		guess := r.Intn(pad.params.Paths())
		data, _ := t.traverse(guess, env)
		if data != nil && guess == targetPath {
			rightShares++
		}
	}
	return rightShares, rightShares >= pad.params.K
}

// Used reports whether the pad has been accessed at all (tamper evidence:
// a receiver whose fresh pad fails to retrieve can suspect interference).
func (pad *Pad) Used() bool { return pad.used }
