// Package core is the paper's primary contribution as a usable library: a
// limited-use security architecture that physically stores a secret behind
// wearout hardware.
//
// An Architecture is built from a dse.Design (which fixes the number of
// copies, the parallel-structure size n, and the survivor threshold k) plus
// the secret to protect. At fabrication the secret is encoded — replicated
// for k = 1, Shamir (k, n) threshold-shared for k > 1 (§4.1.4) — and each
// component is one-time-programmed into a store reachable only through its
// own simulated NEMS switch. Every access actuates the active copy's
// switches, collects the components whose switches conducted, and decodes
// the secret iff at least k components were recovered. Once every copy has
// worn out the secret is physically unreachable forever.
//
// The Shamir encoding is what makes partial wearout safe: an adversary who
// recovers k−1 components (because only k−1 switches still conduct) learns
// nothing about the secret.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/rng"
	"lemonade/internal/shamir"
	"lemonade/internal/shamir16"
)

// Typed sentinels. Callers classify access failures with errors.Is; the
// lemonaded server maps them onto HTTP status codes (ErrExhausted → 410,
// ErrDecodeFailed → 422).
var (
	// ErrExhausted is returned once every copy of the architecture has
	// degraded below its survivor threshold: the secret is gone forever.
	ErrExhausted = errors.New("core: architecture exhausted; secret unrecoverable")
	// ErrTransient is returned when an access failed but a later access
	// may still succeed (the active copy died mid-access and the next
	// copy takes over on retry).
	ErrTransient = errors.New("core: access failed; retry")
	// ErrDecodeFailed is returned when enough switches conducted but the
	// collected components did not reconstruct the secret — corrupted
	// share state rather than wearout. The failing copy is retired and a
	// retry proceeds on the next copy, like a transient failure.
	ErrDecodeFailed = errors.New("core: component decode failed")
)

// AccessOutcome classifies an access attempt for observers.
type AccessOutcome int

// Access outcomes.
const (
	AccessSuccess      AccessOutcome = iota // secret recovered
	AccessTransient                         // active copy died mid-access; retry
	AccessExhausted                         // architecture exhausted
	AccessDecodeFailed                      // enough switches conducted but decode failed
)

// String renders the outcome as the stable wire label used by the events
// API and the metrics exposition.
func (o AccessOutcome) String() string {
	switch o {
	case AccessSuccess:
		return "success"
	case AccessTransient:
		return "transient"
	case AccessExhausted:
		return "exhausted"
	case AccessDecodeFailed:
		return "decode_failed"
	default:
		return "unknown"
	}
}

// AccessEvent describes one completed access attempt, for telemetry.
type AccessEvent struct {
	Attempt    uint64 // 1-based attempt number
	Copy       int    // copy that served (or refused) the access
	Conducting int    // switches that conducted during the access
	Outcome    AccessOutcome
}

// Architecture is a fabricated limited-use secret store.
//
// An Architecture is safe for concurrent use: accesses from multiple
// goroutines are serialized on an internal mutex, mirroring the hardware —
// a physical parallel structure fires once per access, so two concurrent
// requests are two accesses, each consuming wearout. Total successful
// accesses can therefore never exceed the hardware's wearout budget no
// matter how many callers race.
type Architecture struct {
	design dse.Design

	mu       sync.Mutex // guards everything below
	copies   []*archCopy
	cur      int
	total    uint64 // accesses attempted
	ok       uint64 // accesses that yielded the secret
	observer func(AccessEvent)
	// r is the fabrication RNG, retained after Build so State/Restore can
	// checkpoint the exact stream position: any future draw (noise models,
	// re-keying) then replays bit-identically after recovery.
	r *rng.RNG

	// Wear-leveling state; leveling is nil for the unleveled variant.
	leveling *Leveling
	stressed uint64 // stress pulses served (targeted attack traffic)
	opsSince uint64 // wear-consuming ops since the last remap rotation
	remaps   uint64 // rotations applied over the architecture's lifetime
}

// SetObserver installs a callback invoked synchronously after every access
// attempt — the hook a deployment uses for usage telemetry and
// tamper/exhaustion alerting. A nil observer disables it. The callback
// runs with the architecture's lock held and must not call back into the
// architecture.
func (a *Architecture) SetObserver(fn func(AccessEvent)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.observer = fn
}

// decoder reconstructs the secret from the switch indices that conducted
// during an access. Implementations: plain replication (k=1), Shamir over
// GF(256) (k>1, n ≤ 255) and Shamir over GF(2^16) (wide structures).
type decoder interface {
	combine(conducting []int) ([]byte, error)
}

// replicaDecoder: every switch guards a full copy of the secret.
type replicaDecoder struct{ secret []byte }

func (d replicaDecoder) combine(conducting []int) ([]byte, error) {
	out := make([]byte, len(d.secret))
	copy(out, d.secret)
	return out, nil
}

// narrowDecoder: GF(256) Shamir shares, switch i guards share i. The
// share-selection scratch is reused across accesses; decoders are only
// invoked with the architecture lock held, so reuse cannot race.
type narrowDecoder struct {
	shares []shamir.Share
	k      int
	got    []shamir.Share // scratch, reused under the architecture lock
}

func (d *narrowDecoder) combine(conducting []int) ([]byte, error) {
	got := d.got[:0]
	for _, i := range conducting {
		got = append(got, d.shares[i])
		if len(got) == d.k {
			break
		}
	}
	d.got = got
	// The output is the one allocation an access must make: the secret is
	// handed to the caller, so it cannot come from a reused buffer.
	out := make([]byte, len(d.shares[0].Data))
	n, err := shamir.CombineInto(got, d.k, out)
	if err != nil {
		return nil, err
	}
	return out[:n], nil
}

// wideDecoder: GF(2^16) Shamir shares for structures wider than 255.
type wideDecoder struct {
	shares []shamir16.Share
	k      int
	got    []shamir16.Share // scratch, reused under the architecture lock
}

func (d *wideDecoder) combine(conducting []int) ([]byte, error) {
	got := d.got[:0]
	for _, i := range conducting {
		got = append(got, d.shares[i])
		if len(got) == d.k {
			break
		}
	}
	d.got = got
	out := make([]byte, 2*len(d.shares[0].Data))
	n, err := shamir16.CombineInto(got, d.k, out)
	if err != nil {
		return nil, err
	}
	return out[:n], nil
}

// archCopy is one serially-used copy: n logical slots, each guarding one
// component share. Unleveled, slot i IS switches[i]. Leveled, switches
// holds the whole physical pool (primaries + spares) and bank routes each
// logical slot onto its currently assigned physical switch, aliasing the
// same values. switches is the copy's capped window of the architecture's
// single switch pool (see build).
type archCopy struct {
	switches   []nems.Switch
	bank       *nems.Bank // nil = unleveled: slot i fires switches[i]
	dec        decoder
	k          int
	conducting []int // scratch, reused across accesses under the architecture lock
}

// slots returns the copy's logical width (the share count n).
func (c *archCopy) slots() int {
	if c.bank != nil {
		return c.bank.Slots()
	}
	return len(c.switches)
}

// actuate fires logical slot i, through the remap table if present.
func (c *archCopy) actuate(i int, env nems.Environment) error {
	if c.bank != nil {
		return c.bank.Actuate(i, env)
	}
	return c.switches[i].Actuate(env)
}

// alive reports whether the copy could still serve an access. Unleveled
// that means at least k switches still conduct. Leveled it is the bank's
// service potential — at least k usable physicals — because a rotation can
// move spares under dead slots before the next access, so the copy is not
// dead merely because the current mapping is.
func (c *archCopy) alive() bool {
	if c.bank != nil {
		return c.bank.Usable() >= c.k
	}
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

// access actuates every logical slot (physically the whole parallel
// structure fires on each access) and returns the recovered secret (nil on
// failure) plus how many switches conducted. A non-nil error distinguishes
// a decode failure (enough switches conducted, reconstruction failed) from
// plain wearout below threshold.
func (c *archCopy) access(env nems.Environment) ([]byte, int, error) {
	conducting := c.conducting[:0]
	for i, n := 0, c.slots(); i < n; i++ {
		if c.actuate(i, env) == nil {
			conducting = append(conducting, i)
		}
	}
	c.conducting = conducting
	if len(conducting) < c.k {
		return nil, len(conducting), nil
	}
	secret, err := c.dec.combine(conducting)
	if err != nil {
		return nil, len(conducting), fmt.Errorf("%w: %v", ErrDecodeFailed, err)
	}
	return secret, len(conducting), nil
}

// Build fabricates an architecture for the design, protecting secret.
// Encoded designs use Shamir over GF(256) for structures up to 255
// devices and over GF(2^16) beyond that, supporting the paper's widest
// (low-β) structures up to 65,535 devices per copy.
func Build(design dse.Design, secret []byte, r *rng.RNG) (*Architecture, error) {
	return build(design, secret, nil, r)
}

// build is the shared fabrication path. A non-nil lv fabricates lv.Spares
// extra physical switches per copy and mounts a wear-leveling bank over
// the pool; nil fabricates the plain unleveled structure, bit-identical to
// every build before leveling existed.
func build(design dse.Design, secret []byte, lv *Leveling, r *rng.RNG) (*Architecture, error) {
	if len(secret) == 0 {
		return nil, errors.New("core: empty secret")
	}
	if design.N < 1 || design.K < 1 || design.Copies < 1 {
		return nil, fmt.Errorf("core: degenerate design %v", design)
	}
	if design.K > 1 && design.N > shamir16.MaxShares {
		return nil, fmt.Errorf("core: encoded structure size n=%d exceeds the GF(2^16) share space (%d)",
			design.N, shamir16.MaxShares)
	}
	// One (k, n) sharing serves every copy: copy c's switch i guards share
	// i. Reuse is safe — each copy exposes the same share set, so the
	// adversary's best case is still k−1 distinct shares — and it keeps
	// the share storage proportional to one structure (the paper's §4.3.2
	// area accounting).
	var dec decoder
	switch {
	case design.K == 1:
		dup := make([]byte, len(secret))
		copy(dup, secret)
		dec = replicaDecoder{secret: dup}
	case design.N <= shamir.MaxShares:
		shares, err := shamir.Split(secret, design.K, design.N, r)
		if err != nil {
			return nil, fmt.Errorf("core: encoding secret: %w", err)
		}
		dec = &narrowDecoder{shares: shares, k: design.K, got: make([]shamir.Share, 0, design.K)}
	default:
		shares, err := shamir16.Split(secret, design.K, design.N, r)
		if err != nil {
			return nil, fmt.Errorf("core: encoding secret: %w", err)
		}
		dec = &wideDecoder{shares: shares, k: design.K, got: make([]shamir16.Share, 0, design.K)}
	}
	a := &Architecture{design: design, copies: make([]*archCopy, design.Copies), r: r, leveling: lv}
	phys := design.N
	if lv != nil {
		phys += lv.Spares
	}
	for ci, sw := range fabricateCopies(design, phys, r) {
		c := &archCopy{switches: sw, dec: dec, k: design.K}
		if lv != nil {
			b, err := nems.NewBank(c.switches, design.N)
			if err != nil {
				return nil, fmt.Errorf("core: building bank: %w", err)
			}
			c.bank = b
		}
		a.copies[ci] = c
	}
	return a, nil
}

// fabricateCopies draws design.Copies×width switches from the design's
// lifetime distribution into one contiguous pool and returns each copy's
// capped window of it. The draw order is copy by copy in slot order, as
// with one slice per copy, so the hidden lifetimes are unchanged; the cap
// keeps an append on one copy from spilling into the next.
func fabricateCopies(design dse.Design, width int, r *rng.RNG) [][]nems.Switch {
	pool := make([]nems.Switch, design.Copies*width)
	for i := range pool {
		pool[i] = nems.Fabricate(design.Spec.Dist, r)
	}
	out := make([][]nems.Switch, design.Copies)
	for ci := range out {
		lo, hi := ci*width, (ci+1)*width
		out[ci] = pool[lo:hi:hi]
	}
	return out
}

// Access performs one access under env. On success it returns the secret.
// ErrTransient means this access failed but the architecture may recover on
// retry (the next copy takes over); ErrExhausted means the secret is gone.
// It is equivalent to AccessContext(context.Background(), env).
func (a *Architecture) Access(env nems.Environment) ([]byte, error) {
	//lemonvet:allow ctxflow documented bit-identical fast path: Access is defined as AccessContext rooted at Background
	return a.AccessContext(context.Background(), env)
}

// AccessContext is Access with cancellation: if ctx is done before the
// hardware fires, no wearout is consumed and ctx.Err() is returned. Once
// the traversal starts it runs to completion — a physical access cannot be
// un-fired, so cancellation mid-flight would desynchronize the simulated
// wearout state from the counters. Safe for concurrent use.
func (a *Architecture) AccessContext(ctx context.Context, env nems.Environment) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.total++
	if a.leveling != nil {
		a.opsSince++
	}
	for a.cur < len(a.copies) {
		c := a.copies[a.cur]
		if !c.alive() {
			a.cur++
			continue
		}
		secret, conducting, decErr := c.access(env)
		if secret == nil {
			// The active copy could not serve this access: it degraded
			// below threshold mid-access or its share state failed to
			// decode. Unleveled wearout is monotone, so the next copy
			// takes over on retry; a leveled copy with spare potential
			// stays active — the next rotation moves spares under the
			// dead slots. Decode failure retires the copy either way:
			// the shares themselves are corrupt, and remapping switches
			// cannot repair share state.
			outcome := AccessTransient
			err := error(ErrTransient)
			if decErr != nil {
				outcome = AccessDecodeFailed
				err = decErr
			}
			a.emit(AccessEvent{Attempt: a.total, Copy: a.cur, Conducting: conducting, Outcome: outcome})
			if decErr != nil || !c.alive() {
				a.cur++
			}
			return nil, err
		}
		a.ok++
		a.emit(AccessEvent{Attempt: a.total, Copy: a.cur, Conducting: conducting, Outcome: AccessSuccess})
		return secret, nil
	}
	a.emit(AccessEvent{Attempt: a.total, Copy: len(a.copies), Outcome: AccessExhausted})
	return nil, ErrExhausted
}

func (a *Architecture) emit(ev AccessEvent) {
	if a.observer != nil {
		a.observer(ev)
	}
}

// Alive reports whether a future access could still succeed.
func (a *Architecture) Alive() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := a.cur; i < len(a.copies); i++ {
		if a.copies[i].alive() {
			return true
		}
	}
	return false
}

// Design returns the design the architecture was built from.
func (a *Architecture) Design() dse.Design { return a.design }

// Accesses returns (attempted, successful) access counts.
func (a *Architecture) Accesses() (total, successful uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total, a.ok
}

// CurrentCopy returns the index of the copy serving accesses.
func (a *Architecture) CurrentCopy() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cur
}

// TotalDevices returns the switch count of the fabricated hardware,
// including any wear-leveling spares.
func (a *Architecture) TotalDevices() int {
	n := a.design.N
	if a.leveling != nil {
		n += a.leveling.Spares
	}
	return n * a.design.Copies
}

// ExhaustedCopies returns how many copies have fully degraded.
func (a *Architecture) ExhaustedCopies() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cur
}
