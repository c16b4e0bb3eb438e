package e2ebench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lemonade/api"
)

// clientTimeout bounds one client call; a call that takes longer is a
// failed op.
const clientTimeout = 10 * time.Second

// newHTTPClient builds the benchmark's client side: at most conns
// connections per server, no proxy, and the traced RoundTripper and
// connection counter when tr is set. api.Client retries nothing unless
// asked, and the benchmark never asks.
func newHTTPClient(conns int, tr *Tracer, nodes map[string]int, guard *keyGuard) *http.Client {
	dial := (&net.Dialer{Timeout: 5 * time.Second}).DialContext
	if tr != nil {
		dial = tr.countingDialer(dial)
	}
	var rt http.RoundTripper = &http.Transport{
		DialContext:         dial,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns * max(1, len(nodes)),
		DisableCompression:  true,
	}
	if tr != nil {
		rt = &transport{t: tr, inner: rt, nodes: nodes}
	}
	if guard != nil {
		guard.inner = rt
		rt = guard
	}
	return &http.Client{Transport: rt, Timeout: clientTimeout}
}

// hostIndex maps each server URL's host:port to its index, so spans can
// name the server a request went to.
func hostIndex(urls []string) map[string]int {
	m := make(map[string]int, len(urls))
	for i, u := range urls {
		m[strings.TrimPrefix(u, "http://")] = i
	}
	return m
}

// keyGuard checks that stress responses never carry key bytes: it reads
// every /stress response body and looks for the hex of the stressed
// architecture's secret.
type keyGuard struct {
	inner   http.RoundTripper
	mu      sync.Mutex
	secrets map[string]string // guarded by mu; architecture ID -> secret hex
	leaks   atomic.Int64
}

func newKeyGuard() *keyGuard { return &keyGuard{secrets: make(map[string]string)} }

func (g *keyGuard) register(id, secretHex string) {
	g.mu.Lock()
	g.secrets[id] = secretHex
	g.mu.Unlock()
}

func (g *keyGuard) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := g.inner.RoundTrip(req)
	route, id := routeOf(req.Method, req.URL.Path)
	if err != nil || route != routeStress {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	cerr := resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	if cerr != nil {
		return nil, cerr
	}
	g.mu.Lock()
	secret := g.secrets[id]
	g.mu.Unlock()
	if secret == "" || bytes.Contains(bytes.ToLower(body), []byte(secret)) {
		g.leaks.Add(1)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// scrape reads one node's /metrics into a map keyed by the sample's
// name and labels exactly as exposed, e.g.
// `lemonaded_accesses_total{outcome="transient"}`.
func scrape(ctx context.Context, c *api.Client) (map[string]float64, string, error) {
	text, err := c.MetricsText(ctx)
	if err != nil {
		return nil, "", fmt.Errorf("scraping /metrics: %w", err)
	}
	return parseMetrics(text), text, nil
}

func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out
}

// seriesCount is the number of samples a /metrics page exposes.
func seriesCount(text string) int {
	n := 0
	for _, line := range strings.Split(text, "\n") {
		if line != "" && line[0] != '#' {
			n++
		}
	}
	return n
}

// Counters the benchmark reads from /metrics as deltas over a phase.
const (
	mTransient   = `lemonaded_accesses_total{outcome="transient"}`
	mSuccess     = `lemonaded_accesses_total{outcome="success"}`
	mExhausted   = `lemonaded_accesses_total{outcome="exhausted"}`
	mShed        = `lemonaded_shed_total`
	mBreakerOpen = `lemonaded_breaker_opens_total`
	mStoreFail   = `lemonaded_store_failures_total`
	mCacheHits   = `lemonaded_dse_cache_hits_total`
	mCacheMisses = `lemonaded_dse_cache_misses_total`
	mBatchSum    = `lemonaded_wal_batch_size_sum`
	mBatchCount  = `lemonaded_wal_batch_size_count`
)

// delta subtracts two scrapes, summing over every node scraped.
func delta(before, after []map[string]float64, name string) float64 {
	var d float64
	for i := range after {
		d += after[i][name] - before[i][name]
	}
	return d
}
