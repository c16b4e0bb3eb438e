package shamir16

import (
	"errors"
	"fmt"
	"sync"

	"lemonade/internal/gf16"
	"lemonade/internal/rng"
)

// scratch mirrors package shamir's: coefficient rows and survivor
// bookkeeping, recycled through scratchPool. Every buffer is re-sliced and
// fully written before use, so pool hits and misses are indistinguishable
// in output.
type scratch struct {
	arena  []uint16
	rows   [][]uint16
	words  []uint16
	out    []uint16
	xs     []uint16
	coeffs []uint16
	dist   []int
	seen   []byte // X-coordinate bitset, 2^16 bits
}

// scratchPool's New field is the deterministic fallback: misses construct
// a zero scratch grown on demand.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func growWords(b []uint16, n int) []uint16 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]uint16, n)
}

func growInts(b []int, n int) []int {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]int, n)
}

func (s *scratch) rowBuf(rows, width int) [][]uint16 {
	s.arena = growWords(s.arena, rows*width)
	if cap(s.rows) < rows {
		s.rows = make([][]uint16, rows)
	}
	rs := s.rows[:rows]
	for i := range rs {
		rs[i] = s.arena[i*width : (i+1)*width]
	}
	return rs
}

// toWordsInto packs bytes big-endian into 16-bit words in dst (grown as
// needed) and reports whether the odd last byte was padded. Even-index
// bytes assign the whole word, so reused buffers carry no stale low bytes.
func toWordsInto(dst []uint16, b []byte) ([]uint16, bool) {
	dst = growWords(dst, (len(b)+1)/2)
	for i := 0; i < len(b); i++ {
		if i%2 == 0 {
			dst[i/2] = uint16(b[i]) << 8
		} else {
			dst[i/2] |= uint16(b[i])
		}
	}
	return dst, len(b)%2 != 0
}

// SplitInto is the destination-buffer form of Split: shares must have
// length n; Data arrays are reused when capacity allows. RNG draws match
// Split exactly — one word per (secret word, degree) pair, degree-major —
// so both paths emit bit-identical shares from equal RNG states.
func SplitInto(secret []byte, shares []Share, k, n int, r *rng.RNG) error {
	if k < 1 {
		return fmt.Errorf("shamir16: threshold k must be >= 1, got %d", k)
	}
	if n < k {
		return fmt.Errorf("shamir16: n (%d) must be >= k (%d)", n, k)
	}
	if n > MaxShares {
		return fmt.Errorf("shamir16: n must be <= %d, got %d", MaxShares, n)
	}
	if len(secret) == 0 {
		return errors.New("shamir16: empty secret")
	}
	if len(shares) != n {
		return fmt.Errorf("shamir16: destination holds %d shares, need n=%d", len(shares), n)
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	var padded bool
	sc.words, padded = toWordsInto(sc.words, secret)
	words := sc.words
	for i := range shares {
		shares[i].X = uint16(i + 1)
		shares[i].Data = growWords(shares[i].Data, len(words))
		shares[i].Padded = padded
	}
	rows := sc.rowBuf(k-1, len(words))
	for w := range words {
		for j := 1; j < k; j++ {
			rows[j-1][w] = uint16(r.Intn(1 << 16))
		}
	}
	for i := range shares {
		d := shares[i].Data
		copy(d, words)
		x := shares[i].X
		pw := x
		for j := 0; j < k-1; j++ {
			gf16.MulSliceAdd(d, rows[j], pw)
			pw = gf16.Mul(pw, x)
		}
	}
	return nil
}

// CombineInto reconstructs the secret from at least k distinct shares into
// dst, returning the number of bytes written (2·words, minus one if the
// secret was padded). dst must be at least that long.
func CombineInto(shares []Share, k int, dst []byte) (int, error) {
	if k < 1 {
		return 0, fmt.Errorf("shamir16: threshold k must be >= 1, got %d", k)
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if sc.seen == nil {
		sc.seen = make([]byte, 1<<16/8)
	}
	seen := sc.seen
	dist := growInts(sc.dist, k)[:0]
	// The bitset is cleared after use (not before) so repeat calls on a
	// pooled scratch start clean; track and undo the bits we set.
	defer func() {
		for _, si := range dist {
			x := shares[si].X
			seen[x>>3] &^= 1 << (x & 7)
		}
	}()
	for si := range shares {
		x := shares[si].X
		if x == 0 {
			return 0, errors.New("shamir16: share with x=0 is invalid")
		}
		if seen[x>>3]&(1<<(x&7)) != 0 {
			continue
		}
		seen[x>>3] |= 1 << (x & 7)
		dist = append(dist, si)
		if len(dist) == k {
			break
		}
	}
	sc.dist = dist
	if len(dist) < k {
		return 0, fmt.Errorf("%w: have %d distinct, need %d", ErrTooFewShares, len(dist), k)
	}
	words := len(shares[dist[0]].Data)
	padded := shares[dist[0]].Padded
	for _, si := range dist {
		if len(shares[si].Data) != words || shares[si].Padded != padded {
			return 0, ErrInconsistent
		}
	}
	outLen := 2 * words
	if padded && outLen > 0 {
		outLen--
	}
	if len(dst) < outLen {
		return 0, fmt.Errorf("shamir16: dst holds %d bytes, need %d", len(dst), outLen)
	}
	sc.xs = growWords(sc.xs, k)
	sc.coeffs = growWords(sc.coeffs, k)
	for i, si := range dist {
		sc.xs[i] = shares[si].X
	}
	if err := gf16.LagrangeCoeffs(sc.xs, 0, sc.coeffs); err != nil {
		return 0, err
	}
	sc.out = growWords(sc.out, words)
	out := sc.out
	for i := range out {
		out[i] = 0
	}
	for i, si := range dist {
		gf16.MulSliceAdd(out, shares[si].Data, sc.coeffs[i])
	}
	for i, w := range out {
		dst[2*i] = byte(w >> 8)
		if 2*i+1 < outLen {
			dst[2*i+1] = byte(w)
		}
	}
	return outLen, nil
}
