package shamir16

import (
	"bytes"
	"testing"

	"lemonade/internal/race"
	"lemonade/internal/rng"
)

func TestIntoMatchesWrappers(t *testing.T) {
	for _, secretLen := range []int{1, 2, 31, 64} {
		secret := make([]byte, secretLen)
		for i := range secret {
			secret[i] = byte(i*13 + 5)
		}
		const k, n = 7, 40
		want, err := Split(secret, k, n, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		shares := make([]Share, n)
		for i := range shares {
			shares[i].X = 0xEEEE
			shares[i].Padded = true
			if i%2 == 0 {
				shares[i].Data = make([]uint16, 3+i)
			}
		}
		if err := SplitInto(secret, shares, k, n, rng.New(3)); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if shares[i].X != want[i].X || shares[i].Padded != want[i].Padded {
				t.Fatalf("len=%d: share %d header differs", secretLen, i)
			}
			for w := range want[i].Data {
				if shares[i].Data[w] != want[i].Data[w] {
					t.Fatalf("len=%d: share %d word %d differs", secretLen, i, w)
				}
			}
		}
		pick := []Share{shares[n-1], shares[2], shares[n-1], shares[9], shares[0], shares[17], shares[4], shares[33]}
		dst := bytes.Repeat([]byte{0xDB}, len(secret)+4)
		gotN, err := CombineInto(pick, k, dst)
		if err != nil {
			t.Fatal(err)
		}
		if gotN != len(secret) || !bytes.Equal(dst[:gotN], secret) {
			t.Fatalf("len=%d: CombineInto did not round-trip", secretLen)
		}
	}
}

func TestIntoNoAllocsSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	secret := make([]byte, 33) // odd: exercises the padding path
	for i := range secret {
		secret[i] = byte(i)
	}
	const k, n = 6, 50
	shares := make([]Share, n)
	r := rng.New(8)
	if err := SplitInto(secret, shares, k, n, r); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(secret))
	if a := testing.AllocsPerRun(200, func() {
		if err := SplitInto(secret, shares, k, n, r); err != nil {
			t.Fatal(err)
		}
	}); a >= 1 {
		t.Errorf("SplitInto steady state allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		if _, err := CombineInto(shares, k, dst); err != nil {
			t.Fatal(err)
		}
	}); a >= 1 {
		t.Errorf("CombineInto steady state allocates %v times per call", a)
	}
}
