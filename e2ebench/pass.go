package e2ebench

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// pass is one complete execution of a workload: set-up, timed phase,
// checks, restart.
type pass struct {
	o        Options
	tr       *Tracer
	out      *phaseOut
	gate     *gate
	checksum string

	setupS   []float64
	before   []map[string]float64 // /metrics at phase start, per node
	after    []map[string]float64 // /metrics at phase end, per node
	scrapeMs float64              // one /metrics GET after the phase
	scrapeB  int
	series   int
	heapMB   float64
	proc     procDelta
	live     int     // architectures registered at the end, all nodes
	recS     float64 // slowest node's recovery
	replayed int     // records replayed, all nodes
	snapMs   []float64
}

// procDelta is the process's own cost over the timed phase.
type procDelta struct {
	cpuUs, allocs, allocBytes, gcCycles, gcPauseMs float64
}

func procSample() (syscall.Rusage, runtime.MemStats, error) {
	var ru syscall.Rusage
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru, ms, err
}

func cpuMicros(ru syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// passConfig says how one pass runs.
type passConfig struct {
	label      string
	tracer     *Tracer // nil: untraced
	setups     int     // set-ups from scratch; setup_s is their median
	recoveries int     // recoveries of each node; recovery_s is their median
	// graceful restarts the way lemonaded drains (a parting snapshot,
	// then close); otherwise the restart is a crash restart that replays
	// the log tail.
	graceful bool
}

// runPass executes workload w once.
func runPass(ctx context.Context, o Options, w runner, pc passConfig) (*pass, error) {
	var err error
	tr := pc.tracer
	base := filepath.Join(o.Dir, pc.label)
	p := &pass{o: o, tr: tr, gate: &gate{}}
	var r *rig
	for rep := 0; rep < pc.setups; rep++ {
		dir := filepath.Join(base, fmt.Sprintf("setup-%d", rep))
		start := o.Now()
		r, err = startRig(ctx, o, tr, dir, w.nodes())
		if err == nil {
			err = w.setup(ctx, r)
			if err != nil {
				err = errors.Join(err, r.stop(ctx, false))
			}
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setupS = append(p.setupS, float64(o.Now()-start)/1e9)
		if rep < pc.setups-1 {
			if err := errors.Join(r.stop(ctx, false), os.RemoveAll(dir)); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", rep, err)
			}
		}
	}
	fmt.Fprintf(o.Log, "%s/%s: set-up %.3fs, timed phase\n", o.Workload, pc.label, Median(p.setupS))
	if err := p.timed(ctx, w, r); err != nil {
		return nil, errors.Join(err, r.stop(ctx, false))
	}
	t0 := o.Now()
	if err := w.check(ctx, r, p.out, p.gate); err != nil {
		return nil, errors.Join(err, r.stop(ctx, false))
	}
	p.checksum = checksum(p.out.transcripts)
	t1 := o.Now()
	if err := p.restart(ctx, r, pc); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Log, "%s/%s: phase %.2fs, checks %.2fs, restart %.2fs\n", o.Workload, pc.label,
		p.out.seconds(), float64(t1-t0)/1e9, float64(o.Now()-t1)/1e9)
	return p, os.RemoveAll(base)
}

// timed runs the timed phase between two /metrics scrapes and samples
// what it cost the process.
func (p *pass) timed(ctx context.Context, w runner, r *rig) error {
	var err error
	if p.before, err = r.scrapeAll(ctx); err != nil {
		return err
	}
	ru0, ms0, err := procSample()
	if err != nil {
		return err
	}
	if p.tr != nil {
		p.tr.SetOn(true)
	}
	p.out, err = w.run(ctx, r)
	if p.tr != nil {
		p.tr.SetOn(false)
	}
	if err != nil {
		return err
	}
	ru1, ms1, err := procSample()
	if err != nil {
		return err
	}
	p.proc = procDelta{
		cpuUs:      cpuMicros(ru1) - cpuMicros(ru0),
		allocs:     float64(ms1.Mallocs - ms0.Mallocs),
		allocBytes: float64(ms1.TotalAlloc - ms0.TotalAlloc),
		gcCycles:   float64(ms1.NumGC - ms0.NumGC),
		gcPauseMs:  float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
	}
	start := p.o.Now()
	m, text, err := scrape(ctx, r.clients[0])
	if err != nil {
		return err
	}
	p.scrapeMs = float64(p.o.Now()-start) / 1e6
	p.scrapeB, p.series = len(text), seriesCount(text)
	p.after = []map[string]float64{m}
	for _, c := range r.clients[1:] {
		m, _, err := scrape(ctx, c)
		if err != nil {
			return err
		}
		p.after = append(p.after, m)
	}
	// A snapshot still encoding would count its buffers as live heap.
	for _, n := range r.nodes {
		n.stopSnapshots()
	}
	// Two collections: objects awaiting finalizers and the sync.Pool
	// victim caches survive the first.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	for _, n := range r.nodes {
		d, serr := n.snapshots()
		if serr != nil {
			p.gate.failf("snapshot: %v", serr)
		}
		p.snapMs = append(p.snapMs, d...)
		p.live += n.reg.Len()
	}
	if p.out.wrong > 0 {
		p.gate.failf("%d reveals returned a secret other than the provisioned one", p.out.wrong)
	}
	// Ops refused with 503 beyond what the hardware reported as
	// transients were shed, breaker or store refusals.
	if excess := p.out.transient503 - int(delta(p.before, p.after, mTransient)); excess > 0 {
		p.out.failed += excess
	}
	return nil
}

// restart stops the rig, then recovers every node's directory into a
// fresh registry and checks it against the live state. Each recovery
// starts right after a collection, so the garbage of the one before
// does not bill it.
func (p *pass) restart(ctx context.Context, r *rig, pc passConfig) error {
	if err := r.stop(ctx, pc.graceful); err != nil {
		return fmt.Errorf("stopping: %w", err)
	}
	for i, n := range r.nodes {
		want, count, err := stateDigest(n.reg)
		if err != nil {
			return err
		}
		var secs []float64
		for rep := 0; rep < pc.recoveries; rep++ {
			runtime.GC()
			rec, err := recoverDir(r.dirs[i], p.o.Now)
			if err != nil {
				return err
			}
			got, gotCount, err := stateDigest(rec.reg)
			if err != nil {
				return err
			}
			if got != want || gotCount != count {
				p.gate.failf("node %d: recovered state %s (%d architectures) differs from live %s (%d)", i, got, gotCount, want, count)
			}
			secs = append(secs, rec.seconds)
			if rep == 0 {
				p.replayed += rec.stats.ReplayedRecords()
			}
		}
		p.recS = max(p.recS, Median(secs))
	}
	return nil
}

func (p *pass) result(metrics map[string]Metric) Result {
	return Result{
		Correct:   p.gate.ok(),
		Attempted: p.out.attempted,
		Failed:    p.out.failed,
		Metrics:   metrics,
		Checksum:  p.checksum,
		Problems:  p.gate.problems,
	}
}

// endToEndUnits lists every end-to-end metric with its unit, in report
// order.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"}, {"access_p50_ms", "ms"}, {"status_p50_ms", "ms"},
	{"provision_p50_ms", "ms"}, {"reveals_per_s", "1/s"}, {"heap_mb", "MB"},
}

// endToEnd is the untraced run's report: what a caller of lemonaded
// waits for.
func (p *pass) endToEnd() map[string]Metric {
	out := p.out
	v := map[string]float64{
		"setup_s":          Median(p.setupS),
		"access_p50_ms":    out.access.windowed(Median),
		"status_p50_ms":    out.status.windowed(Median),
		"provision_p50_ms": out.provision.windowed(Median),
		"reveals_per_s":    windowedRate(out.revealed, out.start, out.stop),
		"heap_mb":          p.heapMB,
	}
	m := make(map[string]Metric, len(endToEndUnits))
	for _, e := range endToEndUnits {
		m[e.name] = Metric{Value: v[e.name], Unit: e.unit}
	}
	return m
}
