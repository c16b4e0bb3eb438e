package e2ebench

import (
	"fmt"
	"slices"

	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/shamir"
)

// layerUnits lists every per-layer metric with its unit, in report
// order. A layer a workload does not exercise reports 0. The unlock
// workload reports load.lateness_p99_ms (its open-loop generator's
// lateness) besides these; the closed loops have no lateness.
var layerUnits = []struct{ name, unit string }{
	{"api.client_self_us", "us"}, {"api.transport_us", "us"}, {"api.conns_opened", "count"},
	{"server.access.handler_us", "us"}, {"server.status.handler_us", "us"},
	{"server.provision.handler_us", "us"}, {"server.stress.handler_us", "us"},
	{"server.cluster_access.handler_us", "us"},
	{"server.access.self_us", "us"}, {"server.status.self_us", "us"},
	{"server.status.resp_bytes", "bytes"}, {"server.access.resp_bytes", "bytes"},
	{"resilience.shed", "count"}, {"resilience.breaker_opens", "count"}, {"resilience.store_failures", "count"},
	{"registry.append_us", "us"}, {"registry.commit_wait_us", "us"}, {"registry.live_archs", "count"},
	{"wal.group_size", "count"}, {"wal.queue_us", "us"}, {"wal.bytes_per_op", "bytes"},
	{"wal.snapshots", "count"}, {"wal.snapshot_ms", "ms"}, {"wal.snapshot_bytes", "bytes"},
	{"wal.replayed_records", "count"}, {"wal.replay_records_per_s", "1/s"},
	{"fault.fsyncs_per_op", "count"}, {"fault.fsync_us", "us"}, {"fault.writes_per_op", "count"},
	{"core.access_us", "us"}, {"core.build_ms", "ms"}, {"core.transient_ratio", "ratio"},
	{"core.remaps_per_lifecycle", "count"},
	{"dse.cache_hit_ratio", "ratio"}, {"dse.explore_ms", "ms"},
	{"cluster.asks_per_access", "count"}, {"cluster.useful_share_ratio", "ratio"},
	{"cluster.fanout_self_us", "us"}, {"cluster.node_skew", "ratio"},
	{"shamir.combine_us", "us"},
	{"metrics.series", "count"}, {"metrics.scrape_bytes", "bytes"}, {"metrics.scrape_ms", "ms"},
	{"proc.cpu_us_per_op", "us"}, {"proc.allocs_per_op", "count"}, {"proc.alloc_bytes_per_op", "bytes"},
	{"proc.gc_cycles", "count"}, {"proc.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"}, {"trace.residual_us", "us"},
	{"access_p90_ms", "ms"}, {"access_p99_ms", "ms"}, {"recovery_s", "s"}, {"error_rate", "ratio"},
	{"ladder.core_us", "us"}, {"ladder.core_allocs", "count"},
	{"ladder.registry_us", "us"}, {"ladder.registry_allocs", "count"},
	{"ladder.registry_wal_us", "us"}, {"ladder.registry_wal_allocs", "count"},
	{"ladder.handler_us", "us"}, {"ladder.handler_allocs", "count"},
	{"ladder.http_us", "us"}, {"ladder.http_allocs", "count"},
	{"ladder.cluster_us", "us"}, {"ladder.cluster_allocs", "count"},
}

func durs(spans []Span, keep func(Span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if keep(s) {
			out = append(out, float64(s.Dur())/1e3)
		}
	}
	return out
}

func medianUs(spans []Span, keep func(Span) bool) float64 { return Median(durs(spans, keep)) }

// traceView indexes one traced pass's spans.
type traceView struct {
	ops, rts, handlers, appends, waits, writes, syncs []Span
	rtByOp, hByOp                                     map[uint64][]Span
	store                                             map[int][]Span // append+wait spans per node, by start
}

func newTraceView(t *Tracer) *traceView {
	v := &traceView{
		ops: t.Spans(spanOp), rts: t.Spans(spanRT), handlers: t.Spans(spanHandler),
		appends: t.Spans(spanAppend), waits: t.Spans(spanWait),
		writes: t.Spans(spanWrite), syncs: t.Spans(spanSync),
		rtByOp: make(map[uint64][]Span), hByOp: make(map[uint64][]Span), store: make(map[int][]Span),
	}
	for _, s := range v.rts {
		v.rtByOp[s.Op] = append(v.rtByOp[s.Op], s)
	}
	for _, s := range v.handlers {
		v.hByOp[s.Op] = append(v.hByOp[s.Op], s)
	}
	for _, s := range append(slices.Clone(v.appends), v.waits...) {
		v.store[s.Node] = append(v.store[s.Node], s)
	}
	for _, ss := range v.store {
		slices.SortFunc(ss, func(a, b Span) int { return int(a.Start - b.Start) })
	}
	return v
}

// storeTime is the time of the store spans a handler span covers (same
// node, inside the handler's interval, and the same architecture when
// the handler knows it from its URL), split into appends and waits.
func (v *traceView) storeTime(h Span) (appends, waits int64) {
	ss := v.store[h.Node]
	i, _ := slices.BinarySearchFunc(ss, h.Start, func(s Span, t int64) int { return int(s.Start - t) })
	for ; i < len(ss) && ss[i].Start <= h.End; i++ {
		s := ss[i]
		if s.End > h.End || (h.Arch != "" && s.Arch != h.Arch) {
			continue
		}
		if s.Kind == spanAppend {
			appends += s.Dur()
		} else {
			waits += s.Dur()
		}
	}
	return appends, waits
}

// queueWait is a commit wait minus the fsync of the group that ended it:
// the latest log fsync on the node that ended inside the wait.
func (v *traceView) queueWaits() []float64 {
	syncs := make(map[int][]Span)
	for _, s := range v.syncs {
		if !s.Snap {
			syncs[s.Node] = append(syncs[s.Node], s)
		}
	}
	for _, ss := range syncs {
		slices.SortFunc(ss, func(a, b Span) int { return int(a.End - b.End) })
	}
	var out []float64
	for _, w := range v.waits {
		ss := syncs[w.Node]
		i, _ := slices.BinarySearchFunc(ss, w.End+1, func(s Span, t int64) int { return int(s.End - t) })
		if i == 0 || ss[i-1].End < w.Start {
			continue
		}
		out = append(out, float64(max(0, w.Dur()-ss[i-1].Dur()))/1e3)
	}
	return out
}

// perLayer assembles the traced report: span-derived figures from the
// traced pass, process and counter figures from the untraced one, and
// the ladder.
func perLayer(o Options, plain, traced *pass, lad ladderOut) map[string]Metric {
	v := newTraceView(traced.tr)
	m := make(map[string]float64)
	accessRoute := routeAccess
	if o.Workload == "cluster" {
		accessRoute = routeClusterAccess
	}
	isAccess := func(s Span) bool { return s.Route == accessRoute }
	ops := float64(traced.out.attempted)

	var self, transport, fanout []float64
	for _, op := range v.ops {
		if op.Route != accessRoute {
			continue
		}
		rts := slices.Clone(v.rtByOp[op.Op])
		if len(rts) == 0 {
			continue
		}
		slices.SortFunc(rts, func(a, b Span) int { return int(a.End - b.End) })
		slowest := slices.MaxFunc(rts, func(a, b Span) int { return int(a.Dur() - b.Dur()) })
		self = append(self, float64(op.Dur()-slowest.Dur())/1e3)
		if o.Workload == "cluster" && len(rts) >= clusterK {
			fanout = append(fanout, float64(op.Dur()-rts[clusterK-1].Dur())/1e3)
			seen := make(map[int]bool)
			for _, rt := range rts {
				if seen[rt.Node] {
					traced.gate.failf("op %d asked node %d twice", op.Op, rt.Node)
				}
				seen[rt.Node] = true
			}
		}
		for _, rt := range rts {
			for _, h := range v.hByOp[op.Op] {
				if h.Node == rt.Node {
					transport = append(transport, float64(rt.Dur()-h.Dur())/1e3)
				}
			}
		}
	}
	m["api.client_self_us"] = Median(self)
	m["api.transport_us"] = Median(transport)
	m["api.conns_opened"] = float64(traced.tr.MaxDials())

	for r := routeAccess; r <= routeClusterAccess; r++ {
		r := r
		m["server."+routeNames[r]+".handler_us"] = medianUs(v.handlers, func(s Span) bool { return s.Route == r })
	}
	// The registry figures are the store spans inside access handlers,
	// so that the access decomposition below adds up.
	var accessSelf, statusSelf, accessBytes, statusBytes, appends, waits []float64
	for _, h := range v.handlers {
		a, w := v.storeTime(h)
		switch {
		case isAccess(h):
			accessSelf = append(accessSelf, float64(h.Dur()-a-w)/1e3)
			accessBytes = append(accessBytes, float64(h.Bytes))
			appends = append(appends, float64(a)/1e3)
			waits = append(waits, float64(w)/1e3)
		case h.Route == routeStatus:
			statusSelf = append(statusSelf, float64(h.Dur()-a-w)/1e3)
			statusBytes = append(statusBytes, float64(h.Bytes))
		}
	}
	m["server.access.self_us"] = Median(accessSelf)
	m["server.status.self_us"] = Median(statusSelf)
	m["server.access.resp_bytes"] = Median(accessBytes)
	m["server.status.resp_bytes"] = Median(statusBytes)

	m["resilience.shed"] = delta(plain.before, plain.after, mShed)
	m["resilience.breaker_opens"] = delta(plain.before, plain.after, mBreakerOpen)
	m["resilience.store_failures"] = delta(plain.before, plain.after, mStoreFail)

	m["registry.append_us"] = Median(appends)
	m["registry.commit_wait_us"] = Median(waits)
	m["registry.live_archs"] = float64(traced.live)

	m["wal.group_size"] = ratio(delta(plain.before, plain.after, mBatchSum), delta(plain.before, plain.after, mBatchCount))
	m["wal.queue_us"] = Median(v.queueWaits())
	var logBytes, snapBytes, logWrites float64
	for _, w := range v.writes {
		if w.Snap {
			snapBytes += float64(w.Bytes)
		} else {
			logBytes += float64(w.Bytes)
			logWrites++
		}
	}
	m["wal.bytes_per_op"] = ratio(logBytes, ops)
	m["wal.snapshots"] = float64(len(traced.snapMs))
	m["wal.snapshot_ms"] = Median(traced.snapMs)
	m["wal.snapshot_bytes"] = ratio(snapBytes, float64(len(traced.snapMs)))
	m["recovery_s"] = plain.recS
	m["wal.replayed_records"] = float64(traced.replayed)
	m["wal.replay_records_per_s"] = ratio(float64(traced.replayed), traced.recS)

	logSync := func(s Span) bool { return !s.Snap }
	m["fault.fsyncs_per_op"] = ratio(float64(len(durs(v.syncs, logSync))), ops)
	m["fault.fsync_us"] = medianUs(v.syncs, logSync)
	m["fault.writes_per_op"] = ratio(logWrites, ops)

	hw := delta(plain.before, plain.after, mSuccess) + delta(plain.before, plain.after, mTransient) + delta(plain.before, plain.after, mExhausted)
	m["core.transient_ratio"] = ratio(delta(plain.before, plain.after, mTransient), hw)
	var remaps float64
	for _, r := range plain.out.remaps {
		remaps += r
	}
	m["core.remaps_per_lifecycle"] = ratio(remaps, float64(len(plain.out.remaps)))
	hits, misses := 0.0, 0.0
	for _, a := range plain.after {
		hits += a[mCacheHits]
		misses += a[mCacheMisses]
	}
	m["dse.cache_hit_ratio"] = ratio(hits, hits+misses)
	inproc := measureInProcess(o)
	m["dse.explore_ms"] = inproc.exploreMs
	m["core.build_ms"] = inproc.buildMs
	m["shamir.combine_us"] = inproc.combineUs

	if o.Workload == "cluster" {
		asks := float64(len(durs(v.handlers, isAccess)))
		accesses := float64(len(durs(v.ops, isAccess)))
		m["cluster.asks_per_access"] = ratio(asks, accesses)
		m["cluster.useful_share_ratio"] = ratio(float64(clusterK*len(traced.out.revealed)), asks)
		m["cluster.fanout_self_us"] = Median(fanout)
		var per []float64
		for n := 0; n < clusterN; n++ {
			n := n
			per = append(per, medianUs(v.handlers, func(s Span) bool { return isAccess(s) && s.Node == n }))
		}
		m["cluster.node_skew"] = ratio(slices.Max(per), slices.Min(per))
	}

	m["metrics.series"] = float64(plain.series)
	m["metrics.scrape_bytes"] = float64(plain.scrapeB)
	m["metrics.scrape_ms"] = plain.scrapeMs

	pops := float64(plain.out.attempted)
	m["proc.cpu_us_per_op"] = ratio(plain.proc.cpuUs, pops)
	m["proc.allocs_per_op"] = ratio(plain.proc.allocs, pops)
	m["proc.alloc_bytes_per_op"] = ratio(plain.proc.allocBytes, pops)
	m["proc.gc_cycles"] = plain.proc.gcCycles
	m["proc.gc_pause_ms"] = plain.proc.gcPauseMs

	tracedP50, plainP50 := traced.out.access.windowed(Median), plain.out.access.windowed(Median)
	m["trace.overhead_pct"] = 100 * ratio(tracedP50-plainP50, plainP50)
	opUs := medianUs(v.ops, isAccess)
	parts := []string{"api.client_self_us", "api.transport_us", "server.access.self_us", "registry.append_us", "registry.commit_wait_us"}
	if o.Workload == "cluster" {
		parts[0] = "cluster.fanout_self_us"
	}
	sum := 0.0
	fmt.Fprintf(o.Log, "%s: client-side access median %.1f µs =\n", o.Workload, opUs)
	for _, name := range parts {
		sum += m[name]
		fmt.Fprintf(o.Log, "  %-26s %8.1f µs\n", name, m[name])
	}
	m["trace.residual_us"] = opUs - sum
	fmt.Fprintf(o.Log, "  %-26s %8.1f µs (unexplained)\n", "residual", opUs-sum)

	m["access_p90_ms"] = plain.out.access.windowed(p90)
	m["access_p99_ms"], _ = Tail(plain.out.access.ms, 99)
	m["error_rate"] = ratio(float64(plain.out.failed), float64(plain.out.attempted))
	for _, r := range lad.rungs {
		m["ladder."+r.name+"_us"] = r.us
		m["ladder."+r.name+"_allocs"] = r.allocs
		if r.name == "core" {
			m["core.access_us"] = r.us
		}
	}

	out := make(map[string]Metric, len(layerUnits))
	for _, l := range layerUnits {
		out[l.name] = Metric{Value: m[l.name], Unit: l.unit}
	}
	if o.Workload == "unlock" {
		lat, _ := Tail(plain.out.lateness, 99)
		out["load.lateness_p99_ms"] = Metric{Value: lat, Unit: "ms"}
	}
	return out
}

// inProcess is what the benchmark times by calling library functions
// directly: the DSE solve, fabrication and Shamir reconstruction.
type inProcess struct {
	exploreMs, buildMs, combineUs float64
}

func measureInProcess(o Options) inProcess {
	var specs []dse.Spec
	var devs []Device
	switch o.Workload {
	case "targeting":
		for _, s := range targetingSpecs {
			specs = append(specs, wireSpec(s))
		}
		for _, lc := range PlanTargeting(o.Seed, o.Seconds).Clients[0] {
			devs = append(devs, lc.Device)
		}
	case "unlock":
		specs = []dse.Spec{wireSpec(phoneSpec)}
		devs = PlanUnlock(o.Seed, o.Seconds).Fleet
	default:
		specs = []dse.Spec{wireSpec(phoneSpec)}
		devs = PlanCluster(o.Seed, o.Seconds).Fleet
	}
	var res inProcess
	var explore, build, combine []float64
	var design dse.Design
	for _, s := range specs {
		start := o.Now()
		d, err := dse.Explore(s)
		explore = append(explore, float64(o.Now()-start)/1e6)
		if err == nil {
			design = d
		}
	}
	res.exploreMs = Median(explore)
	devs = devs[:min(16, len(devs))]
	var lv *core.Leveling
	if o.Workload == "targeting" {
		lv = &core.Leveling{Spares: targetingSpares, Epoch: targetingEpoch}
	}
	for _, dev := range devs {
		start := o.Now()
		if _, err := buildArch(design, dev, lv); err == nil {
			build = append(build, float64(o.Now()-start)/1e6)
		}
	}
	res.buildMs = Median(build)
	if o.Workload == "cluster" {
		dst := make([]byte, 64)
		for _, dev := range devs {
			sd, err := shareDevices(dev)
			if err != nil {
				continue
			}
			shares := make([]shamir.Share, 0, clusterK)
			for _, s := range sd[:clusterK] {
				shares = append(shares, shamir.Share{X: s.Secret[0], Data: s.Secret[1:]})
			}
			const reps = 64
			start := o.Now()
			for i := 0; i < reps; i++ {
				if _, err := shamir.CombineInto(shares, clusterK, dst); err != nil {
					break
				}
			}
			combine = append(combine, float64(o.Now()-start)/1e3/reps)
		}
	}
	res.combineUs = Median(combine)
	return res
}
