package core

import (
	"errors"
	"fmt"

	"lemonade/internal/dse"
	"lemonade/internal/gf256"
	"lemonade/internal/nems"
	"lemonade/internal/rng"
	"lemonade/internal/rs"
	"lemonade/internal/shamir"
)

// This file extends the architecture to a harsher fault model than the
// paper's. The paper assumes a worn switch *fails open* (returns
// nothing) — an erasure. Real contact failures can also be resistive or
// intermittent: the switch conducts but the read is garbage. Under that
// model a plain Shamir decode is silently wrong (k shares, one corrupt →
// a wrong secret, no error), so the noisy architecture decodes its Shamir
// shares with Berlekamp–Welch error correction instead of interpolation —
// the McEliece–Sarwate observation the paper cites ([39]): Shamir shares
// ARE a Reed-Solomon codeword, so up to ⌊(collected−k)/2⌋ corrupted
// components per access are corrected, with the threshold secrecy of the
// sharing fully preserved.

// NoisyArchitecture is a limited-use secret store robust to garbage-mode
// switch failures.
type NoisyArchitecture struct {
	design      dse.Design
	shares      []shamir.Share // canonical share set, reused across copies
	garbageProb float64        // probability a worn switch conducts garbage
	copies      []*noisyCopy
	cur         int
	total, ok   uint64
	r           *rng.RNG
}

type noisyCopy struct {
	switches []nems.Switch
	k        int
}

func (c *noisyCopy) alive() bool {
	working := 0
	for i := range c.switches {
		if c.switches[i].Working() {
			working++
			if working >= c.k {
				return true
			}
		}
	}
	return false
}

// BuildNoisy fabricates an error-correcting architecture. garbageProb is
// the probability that an actuation of a worn-out switch conducts
// corrupted data instead of failing open.
func BuildNoisy(design dse.Design, secret []byte, garbageProb float64, r *rng.RNG) (*NoisyArchitecture, error) {
	if len(secret) == 0 {
		return nil, errors.New("core: empty secret")
	}
	if garbageProb < 0 || garbageProb > 1 {
		return nil, fmt.Errorf("core: garbageProb %g out of [0,1]", garbageProb)
	}
	if design.N < 1 || design.K < 2 || design.Copies < 1 {
		return nil, fmt.Errorf("core: noisy architecture needs an encoded design (k >= 2), got %v", design)
	}
	if design.N > shamir.MaxShares {
		return nil, fmt.Errorf("core: noisy architecture needs n <= %d (GF(256)), got %d",
			shamir.MaxShares, design.N)
	}
	shares, err := shamir.Split(secret, design.K, design.N, r)
	if err != nil {
		return nil, fmt.Errorf("core: encoding secret: %w", err)
	}
	a := &NoisyArchitecture{
		design:      design,
		shares:      shares,
		garbageProb: garbageProb,
		copies:      make([]*noisyCopy, design.Copies),
		r:           r.Derive("noise"),
	}
	for ci, sw := range fabricateCopies(design, design.N, r) {
		a.copies[ci] = &noisyCopy{switches: sw, k: design.K}
	}
	return a, nil
}

// Access performs one access; semantics match Architecture.Access.
func (a *NoisyArchitecture) Access(env nems.Environment) ([]byte, error) {
	a.total++
	for a.cur < len(a.copies) {
		c := a.copies[a.cur]
		if !c.alive() {
			a.cur++
			continue
		}
		secret := a.accessCopy(c, env)
		if secret == nil {
			a.cur++
			return nil, ErrTransient
		}
		a.ok++
		return secret, nil
	}
	return nil, ErrExhausted
}

func (a *NoisyArchitecture) accessCopy(c *noisyCopy, env nems.Environment) []byte {
	secretLen := len(a.shares[0].Data)
	var (
		xs   []byte
		data [][]byte // collected share bytes, parallel to xs
	)
	for i := range c.switches {
		err := c.switches[i].Actuate(env)
		switch {
		case err == nil:
			xs = append(xs, a.shares[i].X)
			data = append(data, a.shares[i].Data)
		case a.r.Bernoulli(a.garbageProb):
			// resistive/intermittent failure: conducts garbage
			garbage := make([]byte, secretLen)
			a.r.Bytes(garbage)
			xs = append(xs, a.shares[i].X)
			data = append(data, garbage)
		}
	}
	if len(xs) < c.k {
		return nil
	}
	secret := make([]byte, secretLen)
	ys := make([]byte, len(xs))
	for b := 0; b < secretLen; b++ {
		for i := range data {
			ys[i] = data[i][b]
		}
		poly, err := rs.RecoverPolynomial(xs, ys, c.k)
		if err != nil {
			return nil
		}
		secret[b] = poly.Eval(0)
	}
	return secret
}

// Alive reports whether a future access could still succeed.
func (a *NoisyArchitecture) Alive() bool {
	for i := a.cur; i < len(a.copies); i++ {
		if a.copies[i].alive() {
			return true
		}
	}
	return false
}

// Accesses returns (attempted, successful) access counts.
func (a *NoisyArchitecture) Accesses() (total, successful uint64) { return a.total, a.ok }

// interpolateNaive decodes the same share set with plain Lagrange
// interpolation (no error correction) — exported for the tests that show
// why garbage faults break the plain architecture.
func interpolateNaive(xs []byte, ys []byte, k int) (byte, error) {
	return gf256.Interpolate(xs[:k], ys[:k], 0)
}
