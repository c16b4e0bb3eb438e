package e2ebench

import (
	"bytes"
	"context"
	"encoding/hex"
	"io"
	"math"
	"net/http"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"lemonade/internal/fault"
)

func testOptions(t *testing.T, workload string, seed uint64) Options {
	t.Helper()
	start := time.Now()
	return Options{
		Workload: workload,
		Seed:     seed,
		Seconds:  1,
		Dir:      t.TempDir(),
		Now:      func() int64 { return int64(time.Since(start)) },
		Conns:    2,
		Log:      io.Discard,
	}
}

func TestPlansArePureFunctionsOfTheSeed(t *testing.T) {
	plans := []struct {
		name string
		plan func(seed uint64) any
	}{
		{"unlock", func(s uint64) any { return PlanUnlock(s, 2) }},
		{"targeting", func(s uint64) any { return PlanTargeting(s, 2) }},
		{"cluster", func(s uint64) any { return PlanCluster(s, 2) }},
	}
	for _, p := range plans {
		if !reflect.DeepEqual(p.plan(7), p.plan(7)) {
			t.Errorf("%s: two plans from seed 7 differ", p.name)
		}
		if reflect.DeepEqual(p.plan(7), p.plan(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", p.name)
		}
	}
	u := PlanUnlock(7, 2)
	statuses := 0
	for i, op := range u.Ops {
		if op.Kind == OpStatus {
			statuses++
		}
		if i > 0 && op.At < u.Ops[i-1].At {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
	}
	if want := int(math.Round(unlockStatusShare * float64(len(u.Ops)))); statuses != want {
		t.Errorf("unlock plan has %d status reads, want exactly %d", statuses, want)
	}
}

func TestTailReportsHighestSupportedPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: Tail must sort
		}
		return xs
	}
	cases := []struct {
		n         int
		p         float64
		value, at float64
	}{
		{2000, 99, 1980, 99}, // 20 samples beyond: p99 is supported
		{1000, 99, 990, 99},  // exactly 10 beyond
		{100, 99, 90, 90},    // capped: p90 is the highest with 10 beyond
		{100, 50, 50, 50},
		{5, 99, 3, 60}, // no percentile has 10 beyond: the median
	}
	for _, c := range cases {
		v, at := Tail(seq(c.n), c.p)
		if v != c.value || at != c.at {
			t.Errorf("Tail(1..%d, %v) = %v at p%v, want %v at p%v", c.n, c.p, v, at, c.value, c.at)
		}
	}
	if v, at := Tail(nil, 99); v != 0 || at != 0 {
		t.Errorf("Tail(nil) = %v, %v", v, at)
	}
	if m := Median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("Median = %v, want 2.5", m)
	}
}

// secretHexField matches an access response's secret, or a cluster
// access response's share, up to its closing quote.
var secretHexField = regexp.MustCompile(`"(secret|share)_hex":\s*"[0-9a-f]+"`)

// lyingServer changes the last byte of every secret or share an access
// response carries, as a server revealing the wrong key would.
type lyingServer struct{ inner http.RoundTripper }

func (l lyingServer) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := l.inner.RoundTrip(req)
	if route, _ := routeOf(req.Method, req.URL.Path); err != nil || (route != routeAccess && route != routeClusterAccess) {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	body = secretHexField.ReplaceAllFunc(body, func(m []byte) []byte {
		m = slices.Clone(m)
		i := len(m) - 2 // the last hex digit, before the closing quote
		if m[i] == '0' {
			m[i] = '1'
		} else {
			m[i] = '0'
		}
		return m
	})
	resp.Body = io.NopCloser(bytes.NewReader(body)) // same length: one digit changed
	return resp, nil
}

func TestGateFailsOnWrongSecret(t *testing.T) {
	g := &gate{}
	if g.checkSecret("unit", hex.EncodeToString([]byte{1, 2}), []byte{1, 3}); g.ok() {
		t.Fatal("checkSecret accepted a wrong secret")
	}
	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) {
			o := testOptions(t, w, 3)
			o.Transport = func(rt http.RoundTripper) http.RoundTripper { return lyingServer{rt} }
			res, err := Run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Pass() {
				t.Fatalf("a run revealing unexpected secrets passed the gate: %d of %d failed", res.Failed, res.Attempted)
			}
			wrong := func(p string) bool { return strings.Contains(p, "secret other than the provisioned one") }
			if res.Failed == 0 || !slices.ContainsFunc(res.Problems, wrong) {
				t.Fatalf("wrong secrets not reported as such: %d of %d failed; %v", res.Failed, res.Attempted, res.Problems)
			}
		})
	}
}

// TestFailedFsyncsAreReportedNotPassed fails a few syncs early in a
// traced targeting run's timed phase, in every pass or only in the
// untraced pass (the first to start a node): the commit groups fail
// closed, their accesses fail, and the run must report them.
func TestFailedFsyncsAreReportedNotPassed(t *testing.T) {
	for _, c := range []struct {
		name   string
		faulty func(started int) bool
	}{
		{"every_pass", func(int) bool { return true }},
		{"untraced_pass_only", func(started int) bool { return started == 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := testOptions(t, "targeting", 5)
			o.Trace = true
			started := 0
			o.FS = func(int) fault.FS {
				started++
				if !c.faulty(started) {
					return fault.OS{}
				}
				var rules []fault.Rule
				for op := uint64(60); op < 66; op++ {
					rules = append(rules, fault.Rule{Op: op, Kind: fault.FailFsync})
				}
				return fault.NewInjector(fault.OS{}, fault.Plan{Rules: rules})
			}
			res, err := Run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if started < 2 {
				t.Fatalf("%d nodes started, want the untraced and the traced pass's", started)
			}
			if res.Pass() || res.Failed == 0 {
				t.Fatalf("a run with failed fsyncs passed: %d of %d failed", res.Failed, res.Attempted)
			}
			if er := res.Metrics["error_rate"].Value; er <= 0 {
				t.Fatalf("error_rate = %v with failed fsyncs, want > 0", er)
			}
		})
	}
}

func TestTracedRunIsCorrectAndComplete(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) {
			o := testOptions(t, w, 11)
			o.Trace = true
			res, err := Run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Pass() {
				t.Fatalf("traced run failed: %d of %d ops failed; %v", res.Failed, res.Attempted, res.Problems)
			}
			for _, l := range layerUnits {
				if _, ok := res.Metrics[l.name]; !ok {
					t.Errorf("per-layer metric %s missing", l.name)
				}
			}
			want := len(layerUnits)
			if w == "unlock" {
				want++ // load.lateness_p99_ms
			}
			if len(res.Metrics) != want {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), want)
			}
			if c := res.Metrics["api.conns_opened"].Value; c < 1 || c > float64(o.Conns) {
				t.Errorf("api.conns_opened = %v, want 1..%d", c, o.Conns)
			}
			if er := res.Metrics["error_rate"].Value; er != 0 {
				t.Errorf("error_rate = %v, want 0", er)
			}
		})
	}
}

func TestChecksumRepeatsForOneSeed(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) {
			run := func() Result {
				res, err := Run(context.Background(), testOptions(t, w, 4))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Pass() {
					t.Fatalf("run failed: %d of %d ops failed; %v", res.Failed, res.Attempted, res.Problems)
				}
				return res
			}
			a, b := run(), run()
			if a.Checksum != b.Checksum {
				t.Fatalf("checksums differ across runs of one seed: %s vs %s", a.Checksum, b.Checksum)
			}
			if len(a.Metrics) != len(endToEndUnits) {
				t.Errorf("%d end-to-end metrics, want %d", len(a.Metrics), len(endToEndUnits))
			}
			for _, e := range endToEndUnits {
				if v := a.Metrics[e.name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", e.name, v)
				}
			}
		})
	}
}
