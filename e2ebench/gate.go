package e2ebench

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"lemonade/api"
	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/registry"
	"lemonade/internal/reliability"
	"lemonade/internal/rng"
	"lemonade/internal/weibull"
)

// Outcome codes of one wearout-consuming op in a transcript.
const (
	outSuccess   = 'S' // the secret (or share) came back
	outTransient = 'T' // hardware transient: a later access may succeed
	outExhausted = 'X' // lockout
	outDecode    = 'D' // decode failed
	outRefused   = 'R' // 503 that is not a hardware transient: shed, breaker, store
	outOther     = 'E' // transport error, timeout or any other status
)

var transientText = core.ErrTransient.Error()

// coreOutcome maps an in-process access error to its outcome code.
func coreOutcome(err error) byte {
	switch {
	case err == nil:
		return outSuccess
	case errors.Is(err, core.ErrTransient):
		return outTransient
	case errors.Is(err, core.ErrExhausted):
		return outExhausted
	case errors.Is(err, core.ErrDecodeFailed):
		return outDecode
	}
	return outOther
}

// apiOutcome maps a client error to its outcome code.
func apiOutcome(err error) byte {
	if err == nil {
		return outSuccess
	}
	var ae *api.Error
	if !errors.As(err, &ae) {
		return outOther
	}
	switch ae.StatusCode {
	case http.StatusGone:
		return outExhausted
	case http.StatusUnprocessableEntity:
		return outDecode
	case http.StatusServiceUnavailable:
		if strings.Contains(ae.Message, transientText) {
			return outTransient
		}
		return outRefused
	}
	return outOther
}

// wireSpec is the dse.Spec the server derives from a wire spec (the
// default reliability criteria fill the fields the wire leaves zero).
func wireSpec(q api.SpecRequest) dse.Spec {
	return dse.Spec{
		Dist:        weibull.Dist{Alpha: q.Alpha, Beta: q.Beta},
		Criteria:    reliability.DefaultCriteria,
		LAB:         q.LAB,
		KFrac:       q.KFrac,
		ContinuousT: q.ContinuousT,
	}
}

// budget is the hardware ceiling on successful reveals of one
// architecture of design d: MaxAllowedAccesses plus a 2·Copies slack
// (each copy's death past UpperT is a bounded-probability event, not a
// cliff), scaled by (n+spares)/n for the leveled variant.
func budget(d dse.Design, spares int) int {
	return (d.MaxAllowedAccesses()+2*d.Copies)*(d.N+spares)/d.N + 1
}

// buildArch fabricates the in-process twin of a provisioned device.
func buildArch(d dse.Design, dev Device, lv *core.Leveling) (*core.Architecture, error) {
	if lv != nil {
		return core.BuildLeveled(d, dev.Secret, *lv, rng.New(dev.Seed))
	}
	return core.Build(d, dev.Secret, rng.New(dev.Seed))
}

// maintain applies a pending wear-leveling rotation the way the
// registry does after every wear-consuming op.
func maintain(a *core.Architecture) error {
	plan, ok := a.PendingRemap()
	if !ok {
		return nil
	}
	for _, p := range plan.Retire {
		if err := a.Retire(plan.Copy, p); err != nil {
			return err
		}
	}
	return a.ApplyRemap(plan.Copy, plan.Assign)
}

// stressIndices are the two share indices a lifecycle's adversary
// targets on an n-share design.
func stressIndices(victim, n int) []int {
	return []int{victim % n, (victim + 1) % n}
}

var stressEnv = nems.Environment{TempCelsius: stressTemp}

// stressCode is a stress op's transcript entry: the conducted count.
func stressCode(conducted int) []byte {
	return append(strconv.AppendInt([]byte{'s'}, int64(conducted), 10), ';')
}

// finalState is what GET /v1/architectures/{id} reports about wear.
type finalState struct {
	Attempts, Successful uint64
	Alive                bool
}

func archFinal(a *core.Architecture) finalState {
	t, ok := a.Accesses()
	return finalState{Attempts: t, Successful: ok, Alive: a.Alive()}
}

func statusFinal(st *api.StatusResponse) finalState {
	return finalState{Attempts: st.Attempts, Successful: st.Successful, Alive: st.Alive}
}

// checksum hashes per-device transcripts in device order.
func checksum(transcripts [][]byte) string {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	for i, t := range transcripts {
		h.Write(n[:binary.PutUvarint(n[:], uint64(i))])
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(t)))])
		h.Write(t)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// stateDigest hashes the full core state of every registry entry in ID
// order: equal digests mean bit-identical wear state.
func stateDigest(reg *registry.Registry) (string, int, error) {
	var entries []*registry.Entry
	reg.Range(func(e *registry.Entry) bool {
		entries = append(entries, e)
		return true
	})
	slices.SortFunc(entries, func(a, b *registry.Entry) int { return strings.Compare(a.ID, b.ID) })
	h := sha256.New()
	for _, e := range entries {
		b, err := json.Marshal(e.Arch.State())
		if err != nil {
			return "", 0, fmt.Errorf("encoding state of %s: %w", e.ID, err)
		}
		h.Write([]byte(e.ID))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), len(entries), nil
}

// gate collects correctness violations. A run with any is not correct.
type gate struct {
	problems []string
}

func (g *gate) failf(format string, args ...any) {
	if len(g.problems) < 20 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

func (g *gate) ok() bool { return len(g.problems) == 0 }

// checkSecret verifies one reveal against the provisioned secret.
func (g *gate) checkSecret(what, gotHex string, want []byte) bool {
	got, err := hex.DecodeString(gotHex)
	if err != nil || !bytes.Equal(got, want) {
		g.failf("%s: revealed %q, provisioned %x", what, gotHex, want)
		return false
	}
	return true
}
