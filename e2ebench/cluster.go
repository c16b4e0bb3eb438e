package e2ebench

import (
	"context"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"lemonade/api"
	"lemonade/internal/cluster"
	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/shamir"
)

// clusterRun is the k-of-n deployment: three durable nodes, a fleet of
// 2-of-3 week-budget keys, one closed-loop caller through
// api.ClusterClient.
type clusterRun struct {
	o      Options
	plan   ClusterPlan
	ids    []string
	owners [][]string
	prov   samples
}

func (w *clusterRun) nodes() int     { return clusterN }
func (w *clusterRun) setupReps() int { return setupReps }

func (w *clusterRun) setup(ctx context.Context, r *rig) error {
	w.ids = make([]string, len(w.plan.Fleet))
	w.owners = make([][]string, len(w.plan.Fleet))
	for i, dev := range w.plan.Fleet {
		pctx, end := r.tr.StartOp(ctx, routeProvision, "")
		start := w.o.Now()
		res, err := r.cc.Provision(pctx, api.ClusterProvision{
			Spec: phoneSpec, SecretHex: hex.EncodeToString(dev.Secret), Seed: dev.Seed,
			ShareK: clusterK, ShareN: clusterN,
		})
		end()
		if err != nil {
			return fmt.Errorf("provisioning cluster key %d: %w", i, err)
		}
		now := w.o.Now()
		w.prov.add(float64(now-start)/1e6, now)
		w.ids[i], w.owners[i] = res.ClusterID, res.Owners
	}
	return nil
}

func (w *clusterRun) run(ctx context.Context, r *rig) (*phaseOut, error) {
	out := &phaseOut{
		attempted:   len(w.plan.Ops),
		provision:   w.prov,
		transcripts: make([][]byte, len(w.plan.Fleet)),
	}
	out.start = w.o.Now()
	for _, a := range w.plan.Ops {
		id := w.ids[a]
		actx, end := r.tr.StartOp(ctx, routeClusterAccess, id)
		t0 := w.o.Now()
		res, err := r.cc.Access(actx, id, api.AccessRequest{})
		end()
		done := w.o.Now()
		out.access.add(float64(done-t0)/1e6, done)
		code := apiOutcome(err)
		t := append(out.transcripts[a], code)
		switch code {
		case outSuccess:
			t = append(t, shareList(w.owners[a], res.Served)...)
			if res.SecretHex == hex.EncodeToString(w.plan.Fleet[a].Secret) {
				out.revealed = append(out.revealed, done)
			} else {
				out.wrong++
				out.failed++
			}
		case outTransient:
			out.transient503++
		default:
			out.failed++
		}
		out.transcripts[a] = t
	}
	out.stop = w.o.Now()
	return out, nil
}

// nodeIndex is the rig index of the node named name ("n0", "n1", ...).
func nodeIndex(name string) int {
	i, _ := strconv.Atoi(strings.TrimPrefix(name, "n")) // rig names are always n<index>
	return i
}

// shareList renders the share indices whose owners served, sorted: the
// order shares arrive in is scheduling, the set is not.
func shareList(owners, served []string) []byte {
	idx := make([]int, 0, len(served))
	for _, s := range served {
		idx = append(idx, slices.Index(owners, s))
	}
	slices.Sort(idx)
	b := []byte{'['}
	for _, i := range idx {
		b = strconv.AppendInt(b, int64(i), 10)
	}
	return append(b, ']')
}

// shareTwins fabricates a cluster key's shares in process exactly as
// ClusterClient.Provision and the owning nodes do.
func shareTwins(d dse.Design, dev Device) ([]*core.Architecture, error) {
	devs, err := shareDevices(dev)
	if err != nil {
		return nil, err
	}
	out := make([]*core.Architecture, len(devs))
	for i, sd := range devs {
		if out[i], err = buildArch(d, sd, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// clusterAccessVia emulates one first-k access through ask, which
// accesses share s of the key: ask shares 0..k-1, and one spare per
// failed ask, each owner at most once, as api.ClusterClient does
// without a hedge. It returns the transcript entry and the combined
// secret (nil when the access failed).
func clusterAccessVia(ask func(s int) ([]byte, byte)) ([]byte, []byte) {
	var won []shamir.Share
	var served []int
	exhausted := 0
	pending := make([]int, 0, clusterN)
	for i := 0; i < clusterK; i++ {
		pending = append(pending, i)
	}
	next := clusterK
	for len(pending) > 0 && len(won) < clusterK {
		i := pending[0]
		pending = pending[1:]
		payload, code := ask(i)
		if code == outSuccess {
			if x, data, err := cluster.DecodeShare(payload); err == nil {
				won = append(won, shamir.Share{X: x, Data: data})
				served = append(served, i)
				continue
			}
			code = outDecode
		}
		if code == outExhausted {
			exhausted++
		}
		if next < clusterN {
			pending = append(pending, next)
			next++
		}
	}
	if len(won) < clusterK {
		if clusterN-exhausted < clusterK {
			return []byte{outExhausted}, nil
		}
		return []byte{outTransient}, nil
	}
	secret, err := shamir.Combine(won, clusterK)
	if err != nil {
		return []byte{outDecode}, nil
	}
	slices.Sort(served)
	t := []byte{outSuccess, '['}
	for _, i := range served {
		t = strconv.AppendInt(t, int64(i), 10)
	}
	return append(t, ']'), secret
}

// check replays every cluster key over in-process share twins and
// compares transcripts, per-share final wear, the global reveal ceiling
// ⌈n·budget/k⌉ and the once-per-access ask rule. The timed phase reads
// no status, so status_p50_ms on cluster is the latency of these share
// status reads, one per share, on the nodes that served the phase.
func (w *clusterRun) check(ctx context.Context, r *rig, out *phaseOut, g *gate) error {
	d, err := dse.Explore(wireSpec(phoneSpec))
	if err != nil {
		return fmt.Errorf("exploring the phone spec: %w", err)
	}
	ceiling := (clusterN*budget(d, 0) + clusterK - 1) / clusterK
	ops := make([]int, len(w.plan.Fleet))
	for _, a := range w.plan.Ops {
		ops[a]++
	}
	// Every share's status first, back to back, so the replays' work
	// does not land inside the timed reads.
	finals := make([][]*api.StatusResponse, len(w.plan.Fleet))
	for a, owners := range w.owners {
		for i, owner := range owners {
			t0 := w.o.Now()
			st, err := r.clients[nodeIndex(owner)].Status(ctx, cluster.ShareID(w.ids[a], i))
			now := w.o.Now()
			out.status.add(float64(now-t0)/1e6, now)
			if err != nil {
				return fmt.Errorf("status of share %d of %s: %w", i, w.ids[a], err)
			}
			finals[a] = append(finals[a], st)
		}
	}
	for a, dev := range w.plan.Fleet {
		twins, err := shareTwins(d, dev)
		if err != nil {
			return err
		}
		var want []byte
		reveals := 0
		for k := 0; k < ops[a]; k++ {
			t, secret := clusterAccessVia(func(s int) ([]byte, byte) {
				payload, err := twins[s].Access(nems.RoomTemp)
				return payload, coreOutcome(err)
			})
			if secret != nil {
				reveals++
				g.checkSecret("replay of "+w.ids[a], hex.EncodeToString(secret), dev.Secret)
			}
			want = append(want, t...)
		}
		if string(want) != string(out.transcripts[a]) {
			g.failf("cluster key %s: served %q, replay %q", w.ids[a], out.transcripts[a], want)
		}
		if reveals > ceiling {
			g.failf("cluster key %s: %d reveals exceed ⌈n·budget/k⌉ = %d", w.ids[a], reveals, ceiling)
		}
		for i, st := range finals[a] {
			if got, exp := statusFinal(st), archFinal(twins[i]); got != exp {
				g.failf("share %d of %s: final %+v, replay %+v", i, w.ids[a], got, exp)
			}
			if st.Attempts > uint64(ops[a]) {
				g.failf("share %d of %s asked %d times over %d accesses", i, w.ids[a], st.Attempts, ops[a])
			}
		}
	}
	return nil
}
