package gf256

import (
	"testing"
	"testing/quick"
)

func TestMulIdentityAndZero(t *testing.T) {
	for a := 0; a < 256; a++ {
		if Mul(byte(a), 1) != byte(a) {
			t.Fatalf("a*1 != a for a=%d", a)
		}
		if Mul(byte(a), 0) != 0 {
			t.Fatalf("a*0 != 0 for a=%d", a)
		}
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(a, b^c) == Mul(a, b)^Mul(a, c) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvAndDiv(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
		if Div(byte(a), byte(a)) != 1 {
			t.Fatalf("a/a != 1 for a=%d", a)
		}
	}
	if Div(0, 5) != 0 {
		t.Error("0/b should be 0")
	}
}

func TestDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Div by zero should panic")
		}
	}()
	Div(3, 0)
}

func TestInvPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) should panic")
		}
	}()
	Inv(0)
}

func TestLogPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Log(0) should panic")
		}
	}()
	Log(0)
}

func TestMulByBruteForce(t *testing.T) {
	// Carry-less multiply then reduce by the field polynomial: the ground
	// truth for the table-driven Mul.
	ref := func(a, b byte) byte {
		var p uint16
		aa, bb := uint16(a), uint16(b)
		for i := 0; i < 8; i++ {
			if bb&1 != 0 {
				p ^= aa
			}
			bb >>= 1
			aa <<= 1
			if aa&0x100 != 0 {
				aa ^= Poly
			}
		}
		return byte(p)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if Mul(byte(a), byte(b)) != ref(byte(a), byte(b)) {
				t.Fatalf("Mul(%d,%d) mismatch with reference", a, b)
			}
		}
	}
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Exp(Log(byte(a))) != byte(a) {
			t.Fatalf("Exp(Log(%d)) != %d", a, a)
		}
	}
	if Exp(255) != Exp(0) {
		t.Error("Exp should be periodic with period 255")
	}
	if Exp(-1) != Exp(254) {
		t.Error("negative Exp index mishandled")
	}
}

func TestPow(t *testing.T) {
	if Pow(0, 0) != 1 {
		t.Error("0^0 convention should be 1")
	}
	if Pow(0, 5) != 0 {
		t.Error("0^5 should be 0")
	}
	for a := 1; a < 20; a++ {
		want := byte(1)
		for n := 0; n < 10; n++ {
			if got := Pow(byte(a), n); got != want {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, n, got, want)
			}
			want = Mul(want, byte(a))
		}
	}
}

func TestPolynomialEval(t *testing.T) {
	// p(x) = 5 + 3x + x^2 over GF(256)
	p := Polynomial{5, 3, 1}
	if got := p.Eval(0); got != 5 {
		t.Errorf("p(0) = %d, want 5", got)
	}
	x := byte(7)
	want := byte(5) ^ Mul(3, x) ^ Mul(x, x)
	if got := p.Eval(x); got != want {
		t.Errorf("p(7) = %d, want %d", got, want)
	}
}

func TestInterpolateRecoversPolynomial(t *testing.T) {
	p := Polynomial{42, 17, 99, 3} // degree 3
	xs := []byte{1, 2, 3, 4}
	ys := make([]byte, len(xs))
	for i, x := range xs {
		ys[i] = p.Eval(x)
	}
	// evaluate at a fresh point through interpolation
	for _, at := range []byte{0, 5, 77, 200} {
		got, err := Interpolate(xs, ys, at)
		if err != nil {
			t.Fatal(err)
		}
		if got != p.Eval(at) {
			t.Errorf("interpolated p(%d) = %d, want %d", at, got, p.Eval(at))
		}
	}
}

func TestInterpolateErrors(t *testing.T) {
	if _, err := Interpolate([]byte{1, 2}, []byte{3}, 0); err == nil {
		t.Error("mismatched slices should error")
	}
	if _, err := Interpolate(nil, nil, 0); err == nil {
		t.Error("empty input should error")
	}
	if _, err := Interpolate([]byte{1, 1}, []byte{2, 3}, 0); err == nil {
		t.Error("duplicate x should error")
	}
}

func TestInterpolateProperty(t *testing.T) {
	// For random degree<=3 polynomials and 4 distinct points, interpolation
	// at any x equals direct evaluation.
	f := func(c0, c1, c2, c3, at byte) bool {
		p := Polynomial{c0, c1, c2, c3}
		xs := []byte{10, 20, 30, 40}
		ys := make([]byte, 4)
		for i, x := range xs {
			ys[i] = p.Eval(x)
		}
		got, err := Interpolate(xs, ys, at)
		return err == nil && got == p.Eval(at)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
