package e2ebench

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"lemonade/api"
	"lemonade/internal/cluster"
	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
	"lemonade/internal/registry"
	"lemonade/internal/rng"
	"lemonade/internal/shamir"
	"lemonade/internal/wal"
)

// The layer ladder replays a prefix of the workload's own access
// sequence, one op at a time, on fresh fleets built from the same seeds,
// once per layer: core, registry on NullStore, registry on a DiskStore,
// the server handler called with no socket, loopback api.Client, and
// (on the cluster workload) api.ClusterClient. Every rung must produce
// the same transcript checksum; the difference between neighbouring
// rungs' per-access time is what that layer adds.

// Ladder sizes: the first ladderFleet fleet members and the workload's
// own ops on them, enough accesses for a steady median and few enough
// that the HTTP rungs take about a second.
const (
	ladderFleet      = 32
	ladderUnlockOps  = 1500
	ladderLifecycles = 8
	ladderClusterOps = 800
)

// rungNames in ladder order.
var rungNames = []string{"core", "registry", "registry_wal", "handler", "http", "cluster"}

type rungOut struct {
	name     string
	us       float64 // median per-access time, µs
	allocs   float64 // heap allocations per access, whole process
	checksum string
}

type ladderOut struct {
	rungs []rungOut
	agree bool
}

func (l ladderOut) describe() string {
	var b strings.Builder
	for _, r := range l.rungs {
		fmt.Fprintf(&b, "%s=%s ", r.name, r.checksum)
	}
	return b.String()
}

// rungOps is one layer's view of a fleet: provision untimed, then access
// and stress.
type rungOps interface {
	provision(ctx context.Context, dev Device, spec api.SpecRequest, d dse.Design, lv *core.Leveling) (int, error)
	access(ctx context.Context, h int) ([]byte, byte)
	stress(ctx context.Context, h int, idx []int) []byte
	close(ctx context.Context) error
}

// ladderDevice is one fleet member of the ladder with its spec.
type ladderDevice struct {
	Device
	spec   api.SpecRequest
	design dse.Design
}

// fleetOps is one rung's view of the ladder fleet: fleet member a's
// access, which returns its transcript entry and the revealed secret,
// and a stress burst against it.
type fleetOps struct {
	access func(a int) (entry, secret []byte)
	stress func(a int, idx []int) []byte
}

// ladderJob is the workload-specific part of a ladder run.
type ladderJob struct {
	lv      *core.Leveling
	devices []ladderDevice
	// shares splits each device into cluster shares when the workload is
	// the cluster one.
	shares bool
	// drive replays the sequence through f, timing each access with
	// time(), and returns per-device transcripts.
	drive func(f fleetOps, time func(func())) [][]byte
}

func runLadder(ctx context.Context, o Options) (ladderOut, error) {
	job, err := newLadderJob(o)
	if err != nil {
		return ladderOut{}, err
	}
	var out ladderOut
	for i, name := range rungNames {
		if name == "cluster" && !job.shares {
			break
		}
		dir := filepath.Join(o.Dir, "ladder", name)
		var r rungOut
		if name == "cluster" {
			r, err = job.clusterRung(ctx, o, dir)
		} else {
			r, err = job.rung(ctx, o, i, dir)
		}
		if err != nil {
			return ladderOut{}, fmt.Errorf("ladder rung %s: %w", name, err)
		}
		r.name = name
		out.rungs = append(out.rungs, r)
		fmt.Fprintf(o.Log, "%s/ladder: %-12s %8.2f µs/access %8.1f allocs/access checksum %s\n", o.Workload, name, r.us, r.allocs, r.checksum)
	}
	out.agree = true
	for _, r := range out.rungs[1:] {
		out.agree = out.agree && r.checksum == out.rungs[0].checksum
	}
	return out, os.RemoveAll(filepath.Join(o.Dir, "ladder"))
}

// entry is a transcript entry that also records a wrong secret as '!'.
func entry(e, secret, want []byte) []byte {
	if e[0] == outSuccess && !bytes.Equal(secret, want) {
		return []byte{'!'}
	}
	return e
}

func newLadderJob(o Options) (*ladderJob, error) {
	designs := make(map[api.SpecRequest]dse.Design)
	member := func(dev Device, spec api.SpecRequest) (ladderDevice, error) {
		d, ok := designs[spec]
		if !ok {
			var err error
			if d, err = dse.Explore(wireSpec(spec)); err != nil {
				return ladderDevice{}, err
			}
			designs[spec] = d
		}
		return ladderDevice{Device: dev, spec: spec, design: d}, nil
	}
	job := &ladderJob{}
	// seq is the workload's access sequence over the first ladderFleet
	// fleet members (unlock, cluster).
	var seq []int
	switch o.Workload {
	case "unlock", "cluster":
		var fl []Device
		if o.Workload == "unlock" {
			p := PlanUnlock(o.Seed, o.Seconds)
			fl = p.Fleet
			for _, op := range p.Ops {
				if op.Kind == OpAccess && op.Arch < ladderFleet && len(seq) < ladderUnlockOps {
					seq = append(seq, op.Arch)
				}
			}
		} else {
			p := PlanCluster(o.Seed, o.Seconds)
			fl = p.Fleet
			job.shares = true
			for _, a := range p.Ops {
				if a < ladderFleet && len(seq) < ladderClusterOps {
					seq = append(seq, a)
				}
			}
		}
		for _, dev := range fl[:ladderFleet] {
			m, err := member(dev, phoneSpec)
			if err != nil {
				return nil, err
			}
			job.devices = append(job.devices, m)
		}
		job.drive = func(f fleetOps, time func(func())) [][]byte {
			t := make([][]byte, ladderFleet)
			for _, a := range seq {
				var e []byte
				time(func() {
					got, secret := f.access(a)
					e = entry(got, secret, fl[a].Secret)
				})
				t[a] = append(t[a], e...)
			}
			return t
		}
	case "targeting":
		lives := PlanTargeting(o.Seed, o.Seconds).Clients[0][:ladderLifecycles]
		job.lv = &core.Leveling{Spares: targetingSpares, Epoch: targetingEpoch}
		for _, lc := range lives {
			m, err := member(lc.Device, targetingSpecs[lc.Spec])
			if err != nil {
				return nil, err
			}
			job.devices = append(job.devices, m)
		}
		job.drive = func(f fleetOps, time func(func())) [][]byte {
			t := make([][]byte, len(lives))
			for i, lc := range lives {
				victims := stressIndices(lc.Victim, job.devices[i].design.N)
				for a := 0; len(t[i]) < maxLifecycleOps; a++ {
					if a > 0 && a%lc.StressEvery == 0 {
						e := f.stress(i, victims)
						t[i] = append(t[i], e...)
						if e[0] == outExhausted {
							break
						}
					}
					var e []byte
					time(func() {
						got, secret := f.access(i)
						e = entry(got, secret, lc.Secret)
					})
					t[i] = append(t[i], e...)
					if e[0] == outExhausted {
						break
					}
				}
			}
			return t
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	return job, nil
}

// shareDevices splits dev into the share devices the cluster provisions.
func shareDevices(dev Device) ([]Device, error) {
	shares, err := shamir.Split(dev.Secret, clusterK, clusterN, rng.New(dev.Seed).Derive("cluster/split"))
	if err != nil {
		return nil, err
	}
	out := make([]Device, clusterN)
	for i, sh := range shares {
		out[i] = Device{
			Seed:   rng.New(dev.Seed).DeriveIndex("cluster/arch", i).Uint64(),
			Secret: cluster.EncodeShare(sh.X, sh.Data),
		}
	}
	return out, nil
}

// rung provisions the job's fleet on layer i and replays the sequence.
// On the cluster workload each fleet member is its shares, asked the
// way ClusterClient asks them.
func (j *ladderJob) rung(ctx context.Context, o Options, i int, dir string) (rungOut, error) {
	ops, err := openRung(ctx, o, i, dir)
	if err != nil {
		return rungOut{}, err
	}
	handles := make([][]int, len(j.devices))
	for a, dev := range j.devices {
		devs := []Device{dev.Device}
		if j.shares {
			if devs, err = shareDevices(dev.Device); err != nil {
				return rungOut{}, errors.Join(err, ops.close(ctx))
			}
		}
		for _, sd := range devs {
			h, err := ops.provision(ctx, sd, dev.spec, dev.design, j.lv)
			if err != nil {
				return rungOut{}, errors.Join(err, ops.close(ctx))
			}
			handles[a] = append(handles[a], h)
		}
	}
	f := fleetOps{
		access: func(a int) ([]byte, []byte) {
			if j.shares {
				return clusterAccessVia(func(s int) ([]byte, byte) { return ops.access(ctx, handles[a][s]) })
			}
			secret, code := ops.access(ctx, handles[a][0])
			return []byte{code}, secret
		},
		stress: func(a int, idx []int) []byte { return ops.stress(ctx, handles[a][0], idx) },
	}
	r := j.measure(o, f)
	return r, ops.close(ctx)
}

func (j *ladderJob) measure(o Options, f fleetOps) rungOut {
	var us []float64
	time := func(fn func()) {
		start := o.Now()
		fn()
		us = append(us, float64(o.Now()-start)/1e3)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t := j.drive(f, time)
	runtime.ReadMemStats(&m1)
	return rungOut{us: Median(us), allocs: ratio(float64(m1.Mallocs-m0.Mallocs), float64(len(us))), checksum: checksum(t)}
}

// clusterRung is the top rung: a 3-node cluster behind api.ClusterClient.
func (j *ladderJob) clusterRung(ctx context.Context, o Options, dir string) (rungOut, error) {
	r, err := startRig(ctx, Options{Now: o.Now, Conns: o.Conns}, nil, dir, clusterN)
	if err != nil {
		return rungOut{}, err
	}
	ids := make([]string, len(j.devices))
	owners := make([][]string, len(j.devices))
	for a, dev := range j.devices {
		res, err := r.cc.Provision(ctx, api.ClusterProvision{
			Spec: dev.spec, SecretHex: hex.EncodeToString(dev.Secret), Seed: dev.Seed, ShareK: clusterK, ShareN: clusterN,
		})
		if err != nil {
			return rungOut{}, errors.Join(err, r.stop(ctx, false))
		}
		ids[a], owners[a] = res.ClusterID, res.Owners
	}
	out := j.measure(o, fleetOps{access: func(a int) ([]byte, []byte) {
		res, err := r.cc.Access(ctx, ids[a], api.AccessRequest{})
		code := apiOutcome(err)
		if code != outSuccess {
			return []byte{code}, nil
		}
		secret, _ := hex.DecodeString(res.SecretHex) // a bad hex reads as a wrong secret
		return append([]byte{code}, shareList(owners[a], res.Served)...), secret
	}})
	return out, r.stop(ctx, false)
}

// coreRung is the bottom rung: in-process architectures.
type coreRung struct{ archs []*core.Architecture }

func (c *coreRung) provision(_ context.Context, dev Device, _ api.SpecRequest, d dse.Design, lv *core.Leveling) (int, error) {
	a, err := buildArch(d, dev, lv)
	if err != nil {
		return 0, err
	}
	c.archs = append(c.archs, a)
	return len(c.archs) - 1, nil
}

func (c *coreRung) access(_ context.Context, h int) ([]byte, byte) {
	a := c.archs[h]
	secret, err := a.Access(nems.RoomTemp)
	if merr := maintain(a); merr != nil && err == nil {
		err = merr
	}
	return secret, coreOutcome(err)
}

func (c *coreRung) stress(_ context.Context, h int, idx []int) []byte {
	a := c.archs[h]
	conducted, err := a.Stress(stressEnv, idx, stressPulses)
	if merr := maintain(a); merr != nil && err == nil {
		err = merr
	}
	if err != nil {
		return []byte{coreOutcome(err)}
	}
	return stressCode(conducted)
}

func (c *coreRung) close(context.Context) error { return nil }

// registryRung is registry.Entry over a NullStore or a DiskStore.
type registryRung struct {
	reg     *registry.Registry
	st      *wal.DiskStore // nil on NullStore
	entries []*registry.Entry
}

func (r *registryRung) provision(_ context.Context, dev Device, _ api.SpecRequest, d dse.Design, lv *core.Leveling) (int, error) {
	a, err := buildArch(d, dev, lv)
	if err != nil {
		return 0, err
	}
	e, err := r.reg.Provision(a, dev.Seed, dev.Secret)
	if err != nil {
		return 0, err
	}
	r.entries = append(r.entries, e)
	return len(r.entries) - 1, nil
}

func (r *registryRung) access(ctx context.Context, h int) ([]byte, byte) {
	secret, err := r.entries[h].Access(ctx, nems.RoomTemp)
	return secret, coreOutcome(err)
}

func (r *registryRung) stress(ctx context.Context, h int, idx []int) []byte {
	conducted, err := r.entries[h].Stress(ctx, stressEnv, idx, stressPulses)
	if err != nil {
		return []byte{coreOutcome(err)}
	}
	return stressCode(conducted)
}

func (r *registryRung) close(context.Context) error {
	if r.st == nil {
		return nil
	}
	return r.st.Close()
}

// handlerRung calls Server.Handler().ServeHTTP directly, no socket.
type handlerRung struct {
	n   *node
	h   http.Handler
	ids []string
}

func (r *handlerRung) call(method, path string, in, out any) (int, []byte, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, nil, err
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, req)
	if rec.Code/100 == 2 && out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			return rec.Code, nil, err
		}
	}
	return rec.Code, rec.Body.Bytes(), nil
}

func provisionRequest(dev Device, spec api.SpecRequest, lv *core.Leveling) api.ProvisionRequest {
	req := api.ProvisionRequest{Spec: spec, SecretHex: hex.EncodeToString(dev.Secret), Seed: dev.Seed}
	if lv != nil {
		req.Spares, req.RemapEpoch = lv.Spares, lv.Epoch
	}
	return req
}

func (r *handlerRung) provision(_ context.Context, dev Device, spec api.SpecRequest, _ dse.Design, lv *core.Leveling) (int, error) {
	var resp api.ProvisionResponse
	code, body, err := r.call(http.MethodPost, "/v1/architectures", provisionRequest(dev, spec, lv), &resp)
	if err != nil {
		return 0, err
	}
	if code != http.StatusCreated {
		return 0, fmt.Errorf("provision: %d %s", code, body)
	}
	r.ids = append(r.ids, resp.ID)
	return len(r.ids) - 1, nil
}

// wireOutcome maps a raw response status and body to an outcome code.
func wireOutcome(code int, body []byte) byte {
	switch code {
	case http.StatusOK:
		return outSuccess
	case http.StatusGone:
		return outExhausted
	case http.StatusUnprocessableEntity:
		return outDecode
	case http.StatusServiceUnavailable:
		if bytes.Contains(body, []byte(transientText)) {
			return outTransient
		}
		return outRefused
	}
	return outOther
}

func (r *handlerRung) access(_ context.Context, h int) ([]byte, byte) {
	var resp api.AccessResponse
	code, body, err := r.call(http.MethodPost, "/v1/architectures/"+r.ids[h]+"/access", api.AccessRequest{}, &resp)
	if err != nil {
		return nil, outOther
	}
	secret, _ := hex.DecodeString(resp.SecretHex) // a bad hex reads as a wrong secret
	return secret, wireOutcome(code, body)
}

func (r *handlerRung) stress(_ context.Context, h int, idx []int) []byte {
	var resp api.StressResponse
	code, body, err := r.call(http.MethodPost, "/v1/architectures/"+r.ids[h]+"/stress",
		api.StressRequest{TempCelsius: stressTemp, Indices: idx, Pulses: stressPulses}, &resp)
	if err != nil {
		return []byte{outOther}
	}
	if code != http.StatusOK {
		return []byte{wireOutcome(code, body)}
	}
	return stressCode(resp.Conducted)
}

func (r *handlerRung) close(ctx context.Context) error { return r.n.stop(ctx, false) }

// httpRung is loopback api.Client against a served node.
type httpRung struct {
	r   *rig
	ids []string
}

func (h *httpRung) provision(ctx context.Context, dev Device, spec api.SpecRequest, _ dse.Design, lv *core.Leveling) (int, error) {
	resp, err := h.r.clients[0].Provision(ctx, provisionRequest(dev, spec, lv))
	if err != nil {
		return 0, err
	}
	h.ids = append(h.ids, resp.ID)
	return len(h.ids) - 1, nil
}

func (h *httpRung) access(ctx context.Context, i int) ([]byte, byte) {
	resp, err := h.r.clients[0].Access(ctx, h.ids[i], api.AccessRequest{})
	code := apiOutcome(err)
	if code != outSuccess {
		return nil, code
	}
	secret, _ := hex.DecodeString(resp.SecretHex) // a bad hex reads as a wrong secret
	return secret, code
}

func (h *httpRung) stress(ctx context.Context, i int, idx []int) []byte {
	resp, err := h.r.clients[0].Stress(ctx, h.ids[i], api.StressRequest{TempCelsius: stressTemp, Indices: idx, Pulses: stressPulses})
	if err != nil {
		return []byte{apiOutcome(err)}
	}
	return stressCode(resp.Conducted)
}

func (h *httpRung) close(ctx context.Context) error { return h.r.stop(ctx, false) }

// openRung builds rung i's empty fleet host.
func openRung(ctx context.Context, o Options, i int, dir string) (rungOps, error) {
	switch rungNames[i] {
	case "core":
		return &coreRung{}, nil
	case "registry":
		return &registryRung{reg: registry.New(0)}, nil
	case "registry_wal":
		st, err := wal.Open(wal.Config{Dir: dir, NowNanos: o.Now})
		if err != nil {
			return nil, err
		}
		reg := registry.NewWithStore(0, st)
		if _, err := st.Recover(reg); err != nil {
			return nil, errors.Join(err, st.Close())
		}
		return &registryRung{reg: reg, st: st}, nil
	case "handler":
		n, err := newNode(nodeConfig{dir: dir, now: o.Now})
		if err != nil {
			return nil, err
		}
		return &handlerRung{n: n, h: n.handler()}, nil
	case "http":
		r, err := startRig(ctx, Options{Now: o.Now, Conns: o.Conns}, nil, dir, 1)
		if err != nil {
			return nil, err
		}
		return &httpRung{r: r}, nil
	}
	return nil, fmt.Errorf("no rung %d", i)
}
