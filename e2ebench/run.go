package e2ebench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"lemonade/api"
	"lemonade/internal/cluster"
	"lemonade/internal/fault"
)

// Workloads lists the benchmark's workloads in the order they are
// documented.
var Workloads = []string{"unlock", "targeting", "cluster"}

// Options configures one benchmark run.
type Options struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	// Dir is a scratch directory the run owns; it is emptied on return.
	Dir string
	// Now is the run's only clock, in nanoseconds; main injects it.
	Now func() int64
	// Conns caps client connections per server (GOMAXPROCS in main).
	Conns int
	// FS, when set, is the filesystem node i's WAL writes through (the
	// tests inject faults this way); nil is the real filesystem.
	FS func(node int) fault.FS
	// Transport, when set, wraps the clients' RoundTripper (the tests
	// corrupt responses this way); nil leaves it as built.
	Transport func(http.RoundTripper) http.RoundTripper
	// Log receives progress and the traced run's breakdown.
	Log io.Writer
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's outcome, in the shape the benchmark prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Checksum hashes the per-architecture transcripts; it is equal for
	// every run of one (workload, seed, seconds).
	Checksum string   `json:"-"`
	Problems []string `json:"-"`
}

// Pass reports whether the run was correct and no op failed.
func (r Result) Pass() bool { return r.Correct && r.Failed == 0 }

// setupReps is how many times a run sets up from scratch: setup_s is
// the median, and the last set-up serves the timed phase. A fleet set-up
// takes about half a second, so 15 of them spread the provisions timed
// for provision_p50_ms over several seconds rather than one burst of
// disk noise. Targeting's set-up is only opening the store and starting
// the node, well under a millisecond, so it repeats more to keep the
// median steady.
const (
	setupReps          = 15
	targetingSetupReps = 51
)

// recoveryReps is how many recoveries of each node the traced run's
// untraced pass times for recovery_s.
const recoveryReps = 3

// ringSeed is the cluster placement seed shared by nodes and client.
const ringSeed = 42

// Run performs one benchmark run. With Trace off it reports the
// end-to-end metrics; with Trace on it reports the per-layer metrics,
// from an untraced pass, a traced pass and the layer ladder.
func Run(ctx context.Context, o Options) (Result, error) {
	if o.Seconds < 1 {
		return Result{}, fmt.Errorf("seconds must be at least 1, got %d", o.Seconds)
	}
	if o.Conns < 1 {
		o.Conns = 1
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	defer func() { _ = os.RemoveAll(o.Dir) }() // scratch space; nothing in it is a result
	w, err := newRunner(o)
	if err != nil {
		return Result{}, err
	}
	if !o.Trace {
		plain, err := runPass(ctx, o, w, passConfig{label: "plain", setups: w.setupReps(), recoveries: 1, graceful: true})
		if err != nil {
			return Result{}, err
		}
		return plain.result(plain.endToEnd()), nil
	}
	plain, err := runPass(ctx, o, w, passConfig{label: "plain", setups: 1, recoveries: recoveryReps, graceful: true})
	if err != nil {
		return Result{}, err
	}
	if w, err = newRunner(o); err != nil {
		return Result{}, err
	}
	traced, err := runPass(ctx, o, w, passConfig{label: "traced", tracer: NewTracer(o.Now), setups: 1, recoveries: 1})
	if err != nil {
		return Result{}, err
	}
	lad, err := runLadder(ctx, o)
	if err != nil {
		return Result{}, err
	}
	// Both passes' ops count: the untraced one supplies error_rate,
	// recovery_s and the tails, so its failures fail the run too.
	res := traced.result(perLayer(o, plain, traced, lad))
	res.Attempted += plain.out.attempted
	res.Failed += plain.out.failed
	if traced.checksum != plain.checksum {
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf("traced checksum %s differs from untraced %s", traced.checksum, plain.checksum))
	}
	if !lad.agree {
		res.Correct = false
		res.Problems = append(res.Problems, "ladder rungs disagree: "+lad.describe())
	}
	if len(plain.gate.problems) > 0 {
		res.Correct = false
		res.Problems = append(res.Problems, plain.gate.problems...)
	}
	return res, nil
}

// runner is one workload's behaviour inside the shared pass pipeline.
type runner interface {
	nodes() int
	// setupReps is how many times an untraced run sets up from scratch.
	setupReps() int
	// setup provisions the fleet on a freshly started rig.
	setup(ctx context.Context, r *rig) error
	// run performs the timed phase.
	run(ctx context.Context, r *rig) (*phaseOut, error)
	// check verifies the served state against the in-process replay
	// while the rig still serves.
	check(ctx context.Context, r *rig, out *phaseOut, g *gate) error
}

func newRunner(o Options) (runner, error) {
	switch o.Workload {
	case "unlock":
		return &unlockRun{o: o, plan: PlanUnlock(o.Seed, o.Seconds)}, nil
	case "targeting":
		return &targetingRun{o: o, plan: PlanTargeting(o.Seed, o.Seconds)}, nil
	case "cluster":
		return &clusterRun{o: o, plan: PlanCluster(o.Seed, o.Seconds)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.Workload, Workloads)
}

// phaseOut is what a timed phase observed.
type phaseOut struct {
	// Client-side latencies in ms; provisions are those of every set-up
	// on unlock and cluster.
	access, status, provision samples
	lateness                  []float64 // open-loop generator lateness, ms
	revealed                  []int64   // completion of each correct secret returned
	wrong                     int       // secrets returned that were not the provisioned one
	attempted, failed         int
	transient503              int // ops answered 503 as a hardware transient
	start, stop               int64
	transcripts               [][]byte
	remaps                    []float64 // per targeting lifecycle
}

// seconds is the timed phase's length.
func (p *phaseOut) seconds() float64 { return float64(p.stop-p.start) / 1e9 }

// rig is a set of running in-process nodes and the clients facing them.
type rig struct {
	tr      *Tracer
	dirs    []string
	nodes   []*node
	urls    []string
	hc      *http.Client
	clients []*api.Client
	cc      *api.ClusterClient
	guard   *keyGuard
}

func startRig(ctx context.Context, o Options, tr *Tracer, dir string, count int) (*rig, error) {
	r := &rig{tr: tr, guard: newKeyGuard()}
	lns := make([]net.Listener, count)
	names := make(map[string]string, count)
	for i := range lns {
		ln, url, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close() // abandoning a half-built rig
			}
			return nil, err
		}
		lns[i] = ln
		names["n"+strconv.Itoa(i)] = url
		r.urls = append(r.urls, url)
	}
	for i, ln := range lns {
		name := "n" + strconv.Itoa(i)
		cfg := nodeConfig{index: i, dir: filepath.Join(dir, name), now: o.Now, tracer: tr}
		if count > 1 {
			cn, err := cluster.NewNode(cluster.Config{Self: name, Nodes: names, Seed: ringSeed})
			if err != nil {
				return nil, r.abandon(ctx, lns[i:], err)
			}
			cfg.cluster = cn
		}
		if o.FS != nil {
			cfg.fs = o.FS(i)
		}
		n, err := newNode(cfg)
		if err != nil {
			return nil, r.abandon(ctx, lns[i:], err)
		}
		n.serve(ln)
		r.nodes = append(r.nodes, n)
		r.dirs = append(r.dirs, cfg.dir)
	}
	r.hc = newHTTPClient(o.Conns, tr, hostIndex(r.urls), r.guard)
	if o.Transport != nil {
		r.hc.Transport = o.Transport(r.hc.Transport)
	}
	for _, u := range r.urls {
		c, err := api.NewClient(u, api.WithHTTPClient(r.hc))
		if err != nil {
			return nil, r.abandon(ctx, nil, err)
		}
		r.clients = append(r.clients, c)
	}
	if count > 1 {
		cc, err := api.NewClusterClient(names, ringSeed, api.WithClusterNodeOptions(api.WithHTTPClient(r.hc)))
		if err != nil {
			return nil, r.abandon(ctx, nil, err)
		}
		r.cc = cc
	}
	return r, nil
}

// abandon tears down a half-built rig after err.
func (r *rig) abandon(ctx context.Context, unserved []net.Listener, err error) error {
	for _, l := range unserved {
		_ = l.Close() // never served; the build error is what matters
	}
	return errors.Join(err, r.stop(ctx, false))
}

// stop stops every node (gracefully or as a crash, see node.stop); the
// data directories stay for recovery.
func (r *rig) stop(ctx context.Context, graceful bool) error {
	var errs []error
	for _, n := range r.nodes {
		errs = append(errs, n.stop(ctx, graceful))
	}
	if r.hc != nil {
		r.hc.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

// scrapeAll reads every node's /metrics.
func (r *rig) scrapeAll(ctx context.Context) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(r.clients))
	for i, c := range r.clients {
		m, _, err := scrape(ctx, c)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}
