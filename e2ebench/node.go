package e2ebench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"lemonade/internal/cluster"
	"lemonade/internal/fault"
	"lemonade/internal/metrics"
	"lemonade/internal/registry"
	"lemonade/internal/resilience"
	"lemonade/internal/server"
	"lemonade/internal/wal"
)

// The lemonaded serve defaults (cmd/lemonaded): the benchmark composes
// each in-process node exactly as the daemon composes itself.
const (
	defaultSnapshotRecords  = 4096
	defaultSnapshotInterval = time.Minute
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 5 * time.Second
	defaultAccessTimeout    = 10 * time.Second
	defaultMaxAccess        = 256
	defaultAccessQueue      = 1024
)

// nodeConfig describes one in-process lemonaded.
type nodeConfig struct {
	index   int
	dir     string
	now     func() int64
	fs      fault.FS      // nil: the real filesystem
	cluster *cluster.Node // nil outside cluster mode
	tracer  *Tracer       // nil: no seam decorators
}

// node is one durable lemonaded composed as runServe composes it: a
// DiskStore behind the circuit breaker, a shedder and access timeout on
// the server, and the snapshot loop.
type node struct {
	cfg    nodeConfig
	met    *metrics.Registry
	store  *wal.DiskStore
	reg    *registry.Registry
	srv    *server.Server
	hs     *http.Server
	served chan error

	snapStop chan struct{}
	snapWG   sync.WaitGroup
	snapMu   sync.Mutex
	snapMs   []float64 // guarded by snapMu; duration of each Snapshot call
	snapErr  error     // guarded by snapMu; first snapshot failure
}

// listen reserves a loopback port so a cluster's URL table exists before
// any node's ring is built.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// newNode opens and recovers the store and builds the server, without
// serving. The caller either serves it on a listener (start) or calls
// its handler directly.
func newNode(cfg nodeConfig) (*node, error) {
	n := &node{cfg: cfg, met: metrics.NewRegistry(), snapStop: make(chan struct{})}
	var fs fault.FS = fault.OS{}
	if cfg.fs != nil {
		fs = cfg.fs
	}
	if cfg.tracer != nil {
		fs = &fileSystem{FS: fs, t: cfg.tracer, node: cfg.index}
	}
	st, err := wal.Open(wal.Config{
		Dir:               cfg.dir,
		NowNanos:          cfg.now,
		Metrics:           n.met,
		SnapshotThreshold: defaultSnapshotRecords,
		FS:                fs,
	})
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", cfg.dir, err)
	}
	n.store = st
	var under registry.Store = st
	if cfg.tracer != nil {
		under = &store{t: cfg.tracer, node: cfg.index, inner: st}
	}
	breaker := resilience.NewBreaker(resilience.BreakerConfig{
		Store:            under,
		FailureThreshold: defaultBreakerThreshold,
		Cooldown:         defaultBreakerCooldown,
		NowNanos:         cfg.now,
		Metrics:          n.met,
	})
	n.reg = registry.NewWithStore(0, breaker)
	if _, err := st.Recover(n.reg); err != nil {
		return nil, errors.Join(fmt.Errorf("recovering %s: %w", cfg.dir, err), st.Close())
	}
	n.srv = server.New(server.Config{
		Registry: n.reg,
		Metrics:  n.met,
		NowNanos: cfg.now,
		Breaker:  breaker,
		Shedder: resilience.NewShedder(resilience.ShedderConfig{
			MaxConcurrent: defaultMaxAccess,
			MaxQueue:      defaultAccessQueue,
			Metrics:       n.met,
		}),
		AccessTimeout: defaultAccessTimeout,
		Cluster:       cfg.cluster,
	})
	n.startSnapshots()
	return n, nil
}

// handler is what the node serves: the server's handler, traced when
// the run is.
func (n *node) handler() http.Handler {
	if n.cfg.tracer != nil {
		return &handler{t: n.cfg.tracer, node: n.cfg.index, inner: n.srv.Handler()}
	}
	return n.srv.Handler()
}

// serve starts answering on ln.
func (n *node) serve(ln net.Listener) {
	n.hs = &http.Server{Handler: n.handler()}
	n.served = make(chan error, 1)
	go func() { n.served <- n.hs.Serve(ln) }()
}

// startSnapshots runs the daemon's snapshot loop: compact when the WAL
// passes the record threshold or the interval elapses. The benchmark
// times each Snapshot call itself.
func (n *node) startSnapshots() {
	n.snapWG.Add(1)
	go func() {
		defer n.snapWG.Done()
		ticker := time.NewTicker(defaultSnapshotInterval)
		defer ticker.Stop()
		for {
			select {
			case <-n.snapStop:
				return
			case <-ticker.C:
				if n.store.RecordsSinceSnapshot() == 0 {
					continue
				}
			case <-n.store.SnapshotNeeded():
			}
			start := n.cfg.now()
			err := n.store.Snapshot(n.reg)
			ms := float64(n.cfg.now()-start) / 1e6
			n.snapMu.Lock()
			n.snapMs = append(n.snapMs, ms)
			if err != nil && n.snapErr == nil {
				n.snapErr = err
			}
			n.snapMu.Unlock()
		}
	}()
}

// stopSnapshots ends the snapshot loop, waiting out a snapshot in
// flight.
func (n *node) stopSnapshots() {
	if n.snapStop != nil {
		close(n.snapStop)
		n.snapWG.Wait()
		n.snapStop = nil
	}
}

// snapshots returns the durations of the snapshots taken so far and the
// first snapshot failure.
func (n *node) snapshots() ([]float64, error) {
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	return append([]float64(nil), n.snapMs...), n.snapErr
}

// stop drains the listener, ends the snapshot loop and closes the
// store. Graceful is lemonaded's drain: a parting snapshot when the log
// has records past the last one. Otherwise the store closes as is, and
// the restart that follows replays the log tail as after a crash.
func (n *node) stop(ctx context.Context, graceful bool) error {
	var errs []error
	if n.hs != nil {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		errs = append(errs, n.hs.Shutdown(sctx))
		cancel()
		if err := <-n.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		n.hs = nil
	}
	n.stopSnapshots()
	if n.store != nil && graceful && n.store.RecordsSinceSnapshot() > 0 {
		errs = append(errs, n.store.Snapshot(n.reg))
	}
	if n.store != nil {
		errs = append(errs, n.store.Close())
		n.store = nil
	}
	return errors.Join(errs...)
}

// recovery is one timed restart of a stopped node's data directory.
type recovery struct {
	seconds float64
	stats   wal.RecoveryStats
	reg     *registry.Registry
}

// recoverDir reopens dir and recovers it into a fresh registry, timing
// both, then closes the store again.
func recoverDir(dir string, now func() int64) (recovery, error) {
	start := now()
	st, err := wal.Open(wal.Config{Dir: dir, NowNanos: now})
	if err != nil {
		return recovery{}, fmt.Errorf("reopening %s: %w", dir, err)
	}
	reg := registry.NewWithStore(0, st)
	stats, err := st.Recover(reg)
	sec := float64(now()-start) / 1e9
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return recovery{}, fmt.Errorf("recovering %s: %w", dir, err)
	}
	return recovery{seconds: sec, stats: stats, reg: reg}, nil
}
