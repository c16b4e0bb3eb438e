package shamir16

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lemonade/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

// Pins Split/CombineInto output bytes (and post-split RNG state) across the
// wide-sharing grid, including odd-length secrets that exercise padding.
// Generated from the scalar implementation; the slice-kernel rewrite must
// match bit for bit.
func goldenDigests(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	scenarios := []struct {
		secretLen, k, n int
		seed            uint64
	}{
		{1, 1, 1, 1},
		{2, 2, 3, 2},
		{32, 2, 3, 42},
		{33, 5, 400, 42},
		{32, 40, 1000, 7},
		{64, 8, 20, 99},
	}
	for _, sc := range scenarios {
		secret := make([]byte, sc.secretLen)
		for i := range secret {
			secret[i] = byte(i*37 + 11)
		}
		r := rng.New(sc.seed)
		shares, err := Split(secret, sc.k, sc.n, r)
		if err != nil {
			t.Fatalf("Split(%d,%d,%d): %v", sc.secretLen, sc.k, sc.n, err)
		}
		h := sha256.New()
		for _, s := range shares {
			fmt.Fprintf(h, "%d|%t|", s.X, s.Padded)
			for _, w := range s.Data {
				fmt.Fprintf(h, "%04x", w)
			}
		}
		for _, w := range r.State() {
			fmt.Fprintf(h, "%016x", w)
		}
		fmt.Fprintf(&b, "split/%d/%d/%d/%d %s\n", sc.secretLen, sc.k, sc.n, sc.seed, hex.EncodeToString(h.Sum(nil)))

		pick := make([]Share, 0, sc.k+1)
		for i := len(shares) - 1; i >= len(shares)-sc.k; i-- {
			pick = append(pick, shares[i])
		}
		pick = append(pick, shares[len(shares)-1])
		got, err := combine(pick, sc.k)
		if err != nil {
			t.Fatalf("combine(%d,%d,%d): %v", sc.secretLen, sc.k, sc.n, err)
		}
		sum := sha256.Sum256(got)
		fmt.Fprintf(&b, "combine/%d/%d/%d/%d %s\n", sc.secretLen, sc.k, sc.n, sc.seed, hex.EncodeToString(sum[:]))
	}
	return b.String()
}

func TestGoldenSplitCombine(t *testing.T) {
	got := goldenDigests(t)
	path := filepath.Join("testdata", "shamir16.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}
