// Package shamir16 is Shamir's (k, n) threshold secret sharing over
// GF(2^16): functionally identical to package shamir but supporting up to
// 65,535 shares, as needed by the wide parallel structures of the paper's
// low-β designs (a β=4 connection structure has thousands of devices).
//
// Secrets are byte strings; they are processed as 16-bit words (odd-length
// secrets carry a one-byte pad recorded in each share).
package shamir16

import (
	"errors"

	"lemonade/internal/rng"
)

// MaxShares is the widest supported sharing.
const MaxShares = 1<<16 - 1

// Share is one component of a split secret.
type Share struct {
	X      uint16   // evaluation point, 1..n
	Data   []uint16 // q_i(X) per 16-bit secret word
	Padded bool     // the secret had odd length; last word's low byte is padding
}

var (
	// ErrTooFewShares mirrors shamir.ErrTooFewShares.
	ErrTooFewShares = errors.New("shamir16: not enough shares to reconstruct")
	// ErrInconsistent is returned when shares disagree on shape.
	ErrInconsistent = errors.New("shamir16: shares have inconsistent shapes")
)

// Split encodes secret into n shares with threshold k. It is the
// allocating wrapper around SplitInto.
func Split(secret []byte, k, n int, r *rng.RNG) ([]Share, error) {
	var shares []Share
	if k >= 1 && n >= k && n <= MaxShares {
		shares = make([]Share, n)
	}
	if err := SplitInto(secret, shares, k, n, r); err != nil {
		return nil, err
	}
	return shares, nil
}
