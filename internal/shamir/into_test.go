package shamir

import (
	"bytes"
	"testing"

	"lemonade/internal/race"
	"lemonade/internal/rng"
)

func TestSplitIntoMatchesSplit(t *testing.T) {
	secret := make([]byte, 48)
	for i := range secret {
		secret[i] = byte(i * 5)
	}
	want, err := Split(secret, 6, 19, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	// Destination with stale X values and a mix of nil, short, and
	// oversized dirty Data buffers.
	shares := make([]Share, 19)
	for i := range shares {
		shares[i].X = 0xEE
		if i%2 == 0 {
			shares[i].Data = bytes.Repeat([]byte{0xDB}, 8+i*7)
		}
	}
	if err := SplitInto(secret, shares, 6, 19, rng.New(77)); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if shares[i].X != want[i].X || !bytes.Equal(shares[i].Data, want[i].Data) {
			t.Fatalf("share %d differs between Split and SplitInto", i)
		}
	}
}

func TestCombineIntoMatchesCombine(t *testing.T) {
	secret := make([]byte, 31)
	for i := range secret {
		secret[i] = byte(i*11 + 3)
	}
	shares, err := Split(secret, 5, 12, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	pick := []Share{shares[11], shares[3], shares[11], shares[7], shares[0], shares[9], shares[2]}
	want, err := Combine(pick, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, secret) {
		t.Fatal("Combine did not round-trip")
	}
	dst := bytes.Repeat([]byte{0xDB}, len(secret)+9)
	n, err := CombineInto(pick, 5, dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) || !bytes.Equal(dst[:n], want) {
		t.Fatalf("CombineInto differs from Combine (n=%d)", n)
	}
	for i := n; i < len(dst); i++ {
		if dst[i] != 0xDB {
			t.Fatalf("CombineInto wrote past its return length at %d", i)
		}
	}
}

func TestIntoErrors(t *testing.T) {
	secret := []byte{1, 2, 3}
	if err := SplitInto(secret, make([]Share, 4), 2, 5, rng.New(1)); err == nil {
		t.Error("SplitInto accepted a destination shorter than n")
	}
	shares, err := Split(secret, 3, 5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CombineInto(shares, 3, make([]byte, 2)); err == nil {
		t.Error("CombineInto accepted a too-short dst")
	}
	if _, err := CombineInto(shares[:2], 3, make([]byte, 3)); err == nil {
		t.Error("CombineInto accepted too few shares")
	}
}

func TestIntoNoAllocsSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	secret := make([]byte, 64)
	for i := range secret {
		secret[i] = byte(i)
	}
	const k, n = 8, 24
	shares := make([]Share, n)
	r := rng.New(99)
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

// FuzzSplitCombineInto cross-checks the destination-buffer paths against
// the allocating wrappers: equal RNG states and inputs must produce
// identical shares and reconstructions.
func FuzzSplitCombineInto(f *testing.F) {
	f.Add(uint8(3), uint8(7), uint64(42), []byte("secret material"))
	f.Add(uint8(1), uint8(1), uint64(0), []byte{0})
	f.Add(uint8(40), uint8(90), uint64(7), []byte("x"))
	f.Fuzz(func(t *testing.T, kb, nb uint8, seed uint64, secret []byte) {
		k := int(kb)%32 + 1
		n := k + int(nb)%32
		if len(secret) == 0 {
			secret = []byte{0x42}
		}
		want, err := Split(secret, k, n, rng.New(seed))
		if err != nil {
			t.Skip()
		}
		shares := make([]Share, n)
		if err := SplitInto(secret, shares, k, n, rng.New(seed)); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if shares[i].X != want[i].X || !bytes.Equal(shares[i].Data, want[i].Data) {
				t.Fatalf("share %d differs between Split and SplitInto", i)
			}
		}
		// Reconstruct from a rotated window of k shares plus a duplicate.
		pick := make([]Share, 0, k+1)
		for i := 0; i < k; i++ {
			pick = append(pick, shares[(i+int(seed))%n])
		}
		pick = append(pick, pick[0])
		wantSecret, wantErr := Combine(pick, k)
		dst := make([]byte, len(secret))
		gotN, gotErr := CombineInto(pick, k, dst)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("Combine err=%v, CombineInto err=%v", wantErr, gotErr)
		}
		if wantErr == nil {
			if gotN != len(wantSecret) || !bytes.Equal(dst[:gotN], wantSecret) {
				t.Fatal("CombineInto output differs from Combine")
			}
			if !bytes.Equal(wantSecret, secret) {
				t.Fatal("round-trip failed")
			}
		}
	})
}
