// Package gf256 implements arithmetic in the finite field GF(2^8) with the
// primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the field used by
// the Shamir secret-sharing package.
//
// Multiplication and division go through exp/log tables built at package
// init; all operations are constant-time-ish table lookups (we make no
// side-channel claims — this is a simulator, not production crypto).
package gf256

import "fmt"

// Poly is the primitive reduction polynomial used by this field.
const Poly = 0x11D

var (
	expTable [512]byte // doubled so Mul can skip a mod 255
	logTable [256]byte
	// mulTable[c] is the full multiplication row of the constant c:
	// mulTable[c][a] = c·a. 64 KiB once at init buys the slice kernels
	// (MulSliceAdd and friends) a single lookup per byte instead of two
	// log lookups plus an exp lookup.
	mulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for c := 1; c < 256; c++ {
		row := &mulTable[c]
		lc := int(logTable[c])
		for a := 1; a < 256; a++ {
			row[a] = expTable[lc+int(logTable[a])]
		}
	}
}

// Add returns a + b in GF(2^8) (XOR). Subtraction is identical.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a·b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a/b in GF(2^8). It panics on division by zero.
func Div(a, b byte) byte {
	if b == 0 {
		//lemonvet:allow panic division by zero is a caller bug, like integer /0
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. It panics for a == 0.
func Inv(a byte) byte {
	if a == 0 {
		//lemonvet:allow panic inverse of zero is a caller bug, like integer /0
		panic("gf256: zero has no inverse")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns the generator raised to the i-th power, i.e. 2^i in the field.
func Exp(i int) byte {
	i %= 255
	if i < 0 {
		i += 255
	}
	return expTable[i]
}

// Log returns the discrete log base the generator. It panics for a == 0.
func Log(a byte) int {
	if a == 0 {
		//lemonvet:allow panic log of zero is a caller bug; Log is documented for nonzero elements
		panic("gf256: log of zero")
	}
	return int(logTable[a])
}

// Pow returns a^n in the field, with a^0 = 1 (including 0^0 = 1 by
// convention, matching polynomial-evaluation usage).
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	l := (int(logTable[a]) * n) % 255
	if l < 0 {
		l += 255
	}
	return expTable[l]
}

// --- Polynomials --------------------------------------------------------------

// Polynomial is a polynomial over GF(2^8) with coefficients in ascending
// degree order: p[0] + p[1]x + p[2]x² + ...
type Polynomial []byte

// Eval evaluates the polynomial at x by Horner's rule.
func (p Polynomial) Eval(x byte) byte {
	var y byte
	for i := len(p) - 1; i >= 0; i-- {
		y = Mul(y, x) ^ p[i]
	}
	return y
}

// checkDistinct validates the shared Interpolate/LagrangeCoeffs
// preconditions: pairLen values paired with the xs, at least one point,
// and all xs distinct. The pairwise scan is O(k²) but allocation-free;
// k ≤ 255 in this field, so it beats building a seen-set.
func checkDistinct(xs []byte, pairLen int) error {
	if len(xs) != pairLen {
		return fmt.Errorf("gf256: mismatched point slices (%d vs %d)", len(xs), pairLen)
	}
	if len(xs) == 0 {
		return fmt.Errorf("gf256: no points to interpolate")
	}
	for i := 0; i < len(xs); i++ {
		for j := i + 1; j < len(xs); j++ {
			if xs[i] == xs[j] {
				return fmt.Errorf("gf256: duplicate x coordinate %d", xs[i])
			}
		}
	}
	return nil
}

// Interpolate performs Lagrange interpolation over the points (xs[i], ys[i])
// and returns the value of the unique degree-(k-1) polynomial at x. The xs
// must be distinct; it returns an error otherwise. The Lagrange basis is
// folded directly into the accumulator — no intermediate basis polynomials
// and no allocations on the success path.
func Interpolate(xs, ys []byte, x byte) (byte, error) {
	if err := checkDistinct(xs, len(ys)); err != nil {
		return 0, err
	}
	var acc byte
	for i := range xs {
		num, den := byte(1), byte(1)
		for j := range xs {
			if j == i {
				continue
			}
			num = Mul(num, x^xs[j])
			den = Mul(den, xs[i]^xs[j])
		}
		acc ^= Mul(ys[i], Div(num, den))
	}
	return acc, nil
}
