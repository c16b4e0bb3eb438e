package gf256

import "encoding/binary"

// This file is the slice-at-a-time kernel layer: the same field arithmetic
// as Mul/Add, applied to whole []byte operands through precomputed
// multiplication rows. Field operations are exact (no rounding), so any
// algebraic regrouping of the scalar loops is bit-identical to the scalar
// path — the property the exhaustive kernel tests in slice_test.go and the
// lemonbench checksum gates both pin.
//
// Aliasing contract: dst may be the same slice as src (in-place update),
// but must not otherwise overlap it. None of the kernels allocate.

// AddSlice adds src into dst elementwise: dst[i] ^= src[i]. Addition in
// GF(2^8) is XOR, so the kernel batches 8 bytes per step through 64-bit
// words — bitwise XOR is endianness- and grouping-independent, so the
// word path is bit-identical to the byte path.
func AddSlice(dst, src []byte) {
	if len(dst) != len(src) {
		//lemonvet:allow panic mismatched kernel operand lengths are a caller bug, like out-of-range indexing
		panic("gf256: AddSlice length mismatch")
	}
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= src[i]
	}
}

// MulSliceAdd multiply-accumulates a constant into dst: dst[i] ^= c·src[i]
// for every i. c = 0 is a no-op; c = 1 degenerates to the word-batched
// AddSlice; every other constant walks its precomputed multiplication row
// (one table lookup per byte), eight bytes per step. The unrolled body
// keeps the kernel's speed independent of where the linker places it: a
// one-byte-per-step loop runs about 25% slower on a 2-vCPU Intel Xeon
// when it straddles a 64-byte line, and any unrelated code-size change
// elsewhere in the binary can move it there.
func MulSliceAdd(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		//lemonvet:allow panic mismatched kernel operand lengths are a caller bug, like out-of-range indexing
		panic("gf256: MulSliceAdd length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		AddSlice(dst, src)
		return
	}
	row := &mulTable[c]
	dst = dst[:len(src)]
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s, d := src[i:i+8:i+8], dst[i:i+8:i+8]
		d[0] ^= row[s[0]]
		d[1] ^= row[s[1]]
		d[2] ^= row[s[2]]
		d[3] ^= row[s[3]]
		d[4] ^= row[s[4]]
		d[5] ^= row[s[5]]
		d[6] ^= row[s[6]]
		d[7] ^= row[s[7]]
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= row[src[i]]
	}
}

// MulSlice sets dst[i] = c·src[i] for every i. c = 0 zeroes dst; c = 1
// copies.
func MulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		//lemonvet:allow panic mismatched kernel operand lengths are a caller bug, like out-of-range indexing
		panic("gf256: MulSlice length mismatch")
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
		return
	case 1:
		copy(dst, src)
		return
	}
	row := &mulTable[c]
	for i, s := range src {
		dst[i] = row[s]
	}
}

// EvalInto evaluates, column by column, the polynomial whose degree-j
// coefficient vector is rows[j], at the point x:
//
//	dst[b] = rows[0][b] ⊕ rows[1][b]·x ⊕ rows[2][b]·x² ⊕ ...
//
// This is the columnar form of Polynomial.Eval — Shamir's Split is exactly
// this with rows[0] the secret and the higher rows random — evaluated with
// one MulSliceAdd pass per row instead of one Horner loop per byte. Every
// row must have len(dst); dst must not overlap any row except rows[0],
// which it may equal. dst is overwritten, not accumulated into.
func EvalInto(dst []byte, rows [][]byte, x byte) {
	if len(rows) == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	MulSlice(dst, rows[0], 1)
	pw := x
	for j := 1; j < len(rows); j++ {
		MulSliceAdd(dst, rows[j], pw)
		pw = Mul(pw, x)
	}
}

// LagrangeCoeffs fills coeffs[i] with the Lagrange basis scalar
//
//	L_i(x) = Π_{j≠i} (x ⊕ xs[j]) / (xs[i] ⊕ xs[j])
//
// so that the degree-(k-1) polynomial through (xs[i], ys[i]) evaluates at
// x as Σ ys[i]·coeffs[i]. The basis is accumulated directly in scalars —
// no intermediate basis polynomials — which is what lets CombineInto
// reconstruct whole share slices with k MulSliceAdd passes.
// The xs must be distinct and len(coeffs) must equal len(xs).
func LagrangeCoeffs(xs []byte, x byte, coeffs []byte) error {
	if err := checkDistinct(xs, len(coeffs)); err != nil {
		return err
	}
	for i := range xs {
		num, den := byte(1), byte(1)
		for j := range xs {
			if j == i {
				continue
			}
			num = Mul(num, x^xs[j])
			den = Mul(den, xs[i]^xs[j])
		}
		coeffs[i] = Div(num, den)
	}
	return nil
}
