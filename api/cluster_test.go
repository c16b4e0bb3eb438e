package api

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lemonade/internal/cluster"
	"lemonade/internal/rng"
	"lemonade/internal/shamir"
)

// fakeNode is one scripted cluster member: it owns a set of shares and
// serves POST /v1/cluster/access from them, with an optional per-node
// behavior override. It counts how often it is asked, because "each
// owner asked at most once per call" is a wear guarantee, not a perf
// nicety.
type fakeNode struct {
	name   string
	srv    *httptest.Server
	hits   atomic.Int64
	shares map[int]shamir.Share // share index -> share
	// behave, when non-nil, runs instead of the default share reply.
	behave func(w http.ResponseWriter, r *http.Request, req ClusterAccessRequest)
}

func (f *fakeNode) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster/access" {
			http.NotFound(w, r)
			return
		}
		f.hits.Add(1)
		var req ClusterAccessRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		if f.behave != nil {
			f.behave(w, r, req)
			return
		}
		f.reply(w, req)
	})
}

func (f *fakeNode) reply(w http.ResponseWriter, req ClusterAccessRequest) {
	sh, ok := f.shares[req.ShareIndex]
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(ErrorResponse{Error: "unknown share"})
		return
	}
	json.NewEncoder(w).Encode(ClusterAccessResponse{
		Node:     f.name,
		ShareHex: hex.EncodeToString(cluster.EncodeShare(sh.X, sh.Data)),
	})
}

// fakeCluster splits secret k-of-n across three scripted nodes placed
// by the real ring, and returns the nodes keyed by name plus the owner
// order for the given cluster ID.
func fakeCluster(t *testing.T, id string, secret []byte, k, n int) (map[string]*fakeNode, []string, map[string]string) {
	t.Helper()
	nodes := map[string]*fakeNode{}
	urls := map[string]string{}
	for _, name := range []string{"n0", "n1", "n2"} {
		f := &fakeNode{name: name, shares: map[int]shamir.Share{}}
		f.srv = httptest.NewServer(f.handler())
		t.Cleanup(f.srv.Close)
		nodes[name] = f
		urls[name] = f.srv.URL
	}
	ring, err := cluster.NewRing([]string{"n0", "n1", "n2"}, 42)
	if err != nil {
		t.Fatal(err)
	}
	owners, err := ring.Owners(id, n)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := shamir.Split(secret, k, n, rng.New(7).Derive("test/split"))
	if err != nil {
		t.Fatal(err)
	}
	for i, owner := range owners {
		nodes[owner].shares[i] = shares[i]
	}
	return nodes, owners, urls
}

// TestClusterHedgeFiresAfterDelay pins the hedged-fetch contract end to
// end: a slow owner does not stall the access (the spare is consulted
// after exactly the configured hedge delay), the first k shares win,
// the straggler's request is cancelled if it reached its handler at all —
// and the slow owner was asked at most once, so losing the race never
// costs duplicate wear. Whether the straggler's request is sent before
// the winners finish is a scheduling outcome, so the test asserts the
// invariant for both orders rather than one of them.
func TestClusterHedgeFiresAfterDelay(t *testing.T) {
	const id = "arch-000001"
	secret := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	nodes, owners, urls := fakeCluster(t, id, secret, 2, 3)

	release := make(chan struct{})
	cancelled := make(chan struct{})
	var entered atomic.Bool
	nodes[owners[0]].behave = func(w http.ResponseWriter, r *http.Request, req ClusterAccessRequest) {
		entered.Store(true)
		select {
		case <-r.Context().Done():
			close(cancelled)
		case <-release:
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	defer close(release)

	const hedge = 50 * time.Millisecond
	cc, err := NewClusterClient(urls, 42, WithHedgeDelay(hedge))
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic hedging: the shared sleep records each requested wait
	// and returns immediately, so the test never waits wall-clock time.
	var mu sync.Mutex
	var slept []time.Duration
	record := func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
		return ctx.Err()
	}
	cc.sleep = record
	for _, c := range cc.clients {
		c.sleep = record
	}
	if err := cc.RegisterCluster(id, 2, 3); err != nil {
		t.Fatal(err)
	}

	res, err := cc.Access(context.Background(), id, AccessRequest{})
	if err != nil {
		t.Fatalf("hedged access failed: %v", err)
	}
	if res.SecretHex != hex.EncodeToString(secret) {
		t.Fatalf("reconstructed %q, want %q", res.SecretHex, hex.EncodeToString(secret))
	}
	if len(res.Served) != 2 {
		t.Fatalf("Served = %v, want 2 winners", res.Served)
	}
	for _, n := range res.Served {
		if n == owners[0] {
			t.Fatalf("slow owner %q listed among winners %v", owners[0], res.Served)
		}
	}
	mu.Lock()
	sawHedge := false
	for _, d := range slept {
		if d == hedge {
			sawHedge = true
		}
	}
	mu.Unlock()
	if !sawHedge {
		t.Fatalf("hedge delay %v never went through the shared sleep: %v", hedge, slept)
	}
	// First k wins must cancel the straggler. Closing the slow owner's
	// server drops a request that never reached its handler and waits for
	// one that did; that handler only returns early through cancellation
	// (release stays open until the test ends), so a close that completes
	// means every entered straggler was cancelled.
	closed := make(chan struct{})
	go func() {
		nodes[owners[0]].srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("straggler request never cancelled after k shares won")
	}
	if entered.Load() {
		select {
		case <-cancelled:
		default:
			t.Fatal("straggler handler was entered but never saw its request cancelled")
		}
	}
	// ...and hedging must not have asked it a second time.
	if got := nodes[owners[0]].hits.Load(); got > 1 {
		t.Fatalf("slow owner asked %d times, want at most 1 (duplicate wear)", got)
	}
	for _, name := range []string{owners[1], owners[2]} {
		if got := nodes[name].hits.Load(); got != 1 {
			t.Fatalf("owner %q asked %d times, want 1", name, got)
		}
	}
}

// TestClusterFailoverWithoutHedge pins the lazy-spare baseline: with
// hedging disabled, a failed owner triggers an instant spare launch —
// no hedge delay, no sleep at all — and every owner is still consulted
// at most once.
func TestClusterFailoverWithoutHedge(t *testing.T) {
	const id = "arch-000001"
	secret := []byte{9, 9, 9, 9}
	nodes, owners, urls := fakeCluster(t, id, secret, 2, 3)
	nodes[owners[1]].behave = func(w http.ResponseWriter, r *http.Request, req ClusterAccessRequest) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(ErrorResponse{Error: "degraded"})
	}
	cc, err := NewClusterClient(urls, 42)
	if err != nil {
		t.Fatal(err)
	}
	var sleeps atomic.Int64
	record := func(ctx context.Context, d time.Duration) error {
		sleeps.Add(1)
		return ctx.Err()
	}
	cc.sleep = record
	for _, c := range cc.clients {
		c.sleep = record
	}
	if err := cc.RegisterCluster(id, 2, 3); err != nil {
		t.Fatal(err)
	}
	res, err := cc.Access(context.Background(), id, AccessRequest{})
	if err != nil {
		t.Fatalf("failover access failed: %v", err)
	}
	if res.SecretHex != hex.EncodeToString(secret) {
		t.Fatal("failover reconstructed the wrong secret")
	}
	if n := sleeps.Load(); n != 0 {
		t.Fatalf("instant failover slept %d times, want 0", n)
	}
	for name, f := range nodes {
		if got := f.hits.Load(); got > 1 {
			t.Fatalf("owner %q asked %d times, want at most 1", name, got)
		}
	}
}

// TestClusterRetrySleepCappedByContext is the regression test for the
// shared-sleep fix: a malicious or miscalibrated node answering 503
// with Retry-After: 3600 must not pin a cancelled cluster access for an
// hour — the per-node retry wait goes through the cluster's ctx-capped
// sleep, so the call returns roughly at the caller's deadline.
func TestClusterRetrySleepCappedByContext(t *testing.T) {
	const id = "arch-000001"
	secret := []byte{5, 5, 5, 5}
	nodes, _, urls := fakeCluster(t, id, secret, 3, 3)
	for _, f := range nodes {
		f.behave = func(w http.ResponseWriter, r *http.Request, req ClusterAccessRequest) {
			w.Header().Set("Retry-After", "3600")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "try much later"})
		}
	}
	// Real sleeps, real retries: only the context cap stands between this
	// test and an hour-long hang.
	cc, err := NewClusterClient(urls, 42, WithClusterNodeOptions(WithRetryOn503(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.RegisterCluster(id, 3, 3); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cc.Access(ctx, id, AccessRequest{})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("access against all-503 nodes succeeded")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("access outlived its 100ms deadline by %v — a retry slept past the context", elapsed)
	}
}

// TestClusterHedgeSleepCappedByContext is the same regression on the
// hedge path: an hour-long hedge delay against a blocked owner must die
// with the caller's context, not wait out the delay.
func TestClusterHedgeSleepCappedByContext(t *testing.T) {
	const id = "arch-000001"
	secret := []byte{4, 4, 4, 4}
	nodes, owners, urls := fakeCluster(t, id, secret, 1, 2)
	release := make(chan struct{})
	defer close(release)
	nodes[owners[0]].behave = func(w http.ResponseWriter, r *http.Request, req ClusterAccessRequest) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	cc, err := NewClusterClient(urls, 42, WithHedgeDelay(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.RegisterCluster(id, 1, 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cc.Access(ctx, id, AccessRequest{})
	if err == nil {
		t.Fatal("access with a blocked sole owner succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("access outlived its 100ms deadline by %v — the hedge slept past the context", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) && !IsTransient(err) {
		t.Fatalf("want deadline or transient error, got %v", err)
	}
}

// TestClusterSharedSleepIsShared proves the fix is structural, not
// incidental: the hedge pump and a per-node 503 retry both wait through
// the ONE recorded sleep function, so capping it caps every wait the
// cluster path can take.
func TestClusterSharedSleepIsShared(t *testing.T) {
	const id = "arch-000001"
	secret := []byte{8, 8}
	nodes, owners, urls := fakeCluster(t, id, secret, 2, 3)

	// owners[0] answers 503 once (with Retry-After so the retry path
	// waits), then serves its share; owners[1] blocks until cancelled.
	var flaky atomic.Bool
	nodes[owners[0]].behave = func(w http.ResponseWriter, r *http.Request, req ClusterAccessRequest) {
		if flaky.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "flap"})
			return
		}
		nodes[owners[0]].reply(w, req)
	}
	release := make(chan struct{})
	defer close(release)
	nodes[owners[1]].behave = func(w http.ResponseWriter, r *http.Request, req ClusterAccessRequest) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}

	const hedge = 30 * time.Millisecond
	cc, err := NewClusterClient(urls, 42,
		WithHedgeDelay(hedge),
		WithClusterNodeOptions(WithRetryOn503(2)))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var slept []time.Duration
	record := func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
		return ctx.Err()
	}
	cc.sleep = record
	for _, c := range cc.clients {
		c.sleep = record
	}
	if err := cc.RegisterCluster(id, 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Access(context.Background(), id, AccessRequest{}); err != nil {
		t.Fatalf("access failed: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	var sawRetry, sawHedge bool
	for _, d := range slept {
		if d == time.Second {
			sawRetry = true // Retry-After: 1 from the flapping owner
		}
		if d == hedge {
			sawHedge = true
		}
	}
	if !sawRetry || !sawHedge {
		t.Fatalf("shared sleep saw retry=%v hedge=%v (waits: %v) — both paths must flow through it",
			sawRetry, sawHedge, slept)
	}
}
