package e2ebench

import (
	"context"
	"encoding/hex"
	"fmt"
	"sync"

	"lemonade/api"
	"lemonade/internal/core"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
)

// maxLifecycleOps caps one lifecycle: a leveled key that has not locked
// out by then is a failure, not a longer run. A client gives up on a key
// after maxFailStreak failed ops in a row (a refusing store, say).
const (
	maxLifecycleOps = 2000
	maxFailStreak   = 16
)

// targetingRun churns targeting-system keys to lockout: two closed-loop
// clients each provision a leveled architecture, drive it to 410 under
// a targeted stress adversary, read its status, and start over.
type targetingRun struct {
	o     Options
	plan  TargetingPlan
	lives []lifeOut // in plan order: client 0's lifecycles, then client 1's
}

// lifeOut is one lifecycle's observation.
type lifeOut struct {
	id         string
	transcript []byte
	final      *api.StatusResponse
	reveals    int
}

func (w *targetingRun) nodes() int     { return 1 }
func (w *targetingRun) setupReps() int { return targetingSetupReps }

func (w *targetingRun) setup(context.Context, *rig) error { return nil }

// note keeps the first few failures for the log.
func (co *clientOut) note(err error) {
	if len(co.notes) < 5 {
		co.notes = append(co.notes, err.Error())
	}
}

type clientOut struct {
	notes                     []string
	access, status, provision samples
	revealed                  []int64
	lives                     []lifeOut
	attempted, failed         int
	transient503, wrong       int
}

func (w *targetingRun) run(ctx context.Context, r *rig) (*phaseOut, error) {
	outs := make([]clientOut, len(w.plan.Clients))
	errs := make([]error, len(w.plan.Clients))
	var wg sync.WaitGroup
	start := w.o.Now()
	for c := range w.plan.Clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = w.client(ctx, r, w.plan.Clients[c], &outs[c])
		}(c)
	}
	wg.Wait()
	out := &phaseOut{start: start, stop: w.o.Now()}
	for c := range outs {
		if errs[c] != nil {
			return nil, errs[c]
		}
		co := &outs[c]
		out.access.merge(co.access)
		out.status.merge(co.status)
		out.provision.merge(co.provision)
		out.revealed = append(out.revealed, co.revealed...)
		out.attempted += co.attempted
		out.failed += co.failed
		out.transient503 += co.transient503
		out.wrong += co.wrong
		for _, n := range co.notes {
			fmt.Fprintf(w.o.Log, "targeting: failed op: %s\n", n)
		}
		for _, l := range co.lives {
			out.transcripts = append(out.transcripts, l.transcript)
			if l.final != nil && l.final.WearLeveling != nil {
				out.remaps = append(out.remaps, float64(l.final.WearLeveling.Remaps))
			}
		}
	}
	w.lives = nil
	for c := range outs {
		w.lives = append(w.lives, outs[c].lives...)
	}
	return out, nil
}

// client runs one closed-loop client's lifecycles in order.
func (w *targetingRun) client(ctx context.Context, r *rig, lives []Lifecycle, co *clientOut) error {
	c := r.clients[0]
	// record adds the latency of an op begun at start, ending now.
	record := func(s *samples, start int64) int64 {
		now := w.o.Now()
		s.add(float64(now-start)/1e6, now)
		return now
	}
	for _, lc := range lives {
		secretHex := hex.EncodeToString(lc.Secret)
		pctx, end := r.tr.StartOp(ctx, routeProvision, "")
		start := w.o.Now()
		prov, err := c.Provision(pctx, api.ProvisionRequest{
			Spec: targetingSpecs[lc.Spec], SecretHex: secretHex, Seed: lc.Seed,
			Spares: targetingSpares, RemapEpoch: targetingEpoch,
		})
		end()
		co.attempted++
		if err != nil {
			co.failed++
			co.lives = append(co.lives, lifeOut{transcript: []byte{apiOutcome(err)}})
			continue
		}
		record(&co.provision, start)
		r.guard.register(prov.ID, secretHex)
		l := lifeOut{id: prov.ID}
		victims := stressIndices(lc.Victim, prov.Design.N)
		streak := 0 // failed ops in a row
		fail := func(err error) {
			co.failed++
			co.note(err)
			streak++
		}
		for a := 0; len(l.transcript) < maxLifecycleOps && streak < maxFailStreak; a++ {
			if a > 0 && a%lc.StressEvery == 0 {
				sctx, end := r.tr.StartOp(ctx, routeStress, prov.ID)
				resp, err := c.Stress(sctx, prov.ID, api.StressRequest{TempCelsius: stressTemp, Indices: victims, Pulses: stressPulses})
				end()
				co.attempted++
				code := apiOutcome(err)
				if err == nil {
					l.transcript = append(l.transcript, stressCode(resp.Conducted)...)
					streak = 0
				} else {
					l.transcript = append(l.transcript, code)
				}
				if code == outExhausted {
					break // the burst wore out the last copy: lockout
				}
				if err != nil {
					fail(err)
				}
			}
			actx, end := r.tr.StartOp(ctx, routeAccess, prov.ID)
			start := w.o.Now()
			resp, err := c.Access(actx, prov.ID, api.AccessRequest{})
			end()
			done := record(&co.access, start)
			co.attempted++
			code := apiOutcome(err)
			l.transcript = append(l.transcript, code)
			switch {
			case code == outSuccess && resp.SecretHex == secretHex:
				l.reveals++
				co.revealed = append(co.revealed, done)
				streak = 0
			case code == outSuccess:
				co.wrong++
				fail(fmt.Errorf("access to %s revealed %s", prov.ID, resp.SecretHex))
			case code == outTransient:
				co.transient503++
				streak = 0
			case code != outExhausted:
				fail(err)
			}
			if code == outExhausted {
				break
			}
		}
		sctx, end := r.tr.StartOp(ctx, routeStatus, prov.ID)
		start = w.o.Now()
		st, err := c.Status(sctx, prov.ID)
		end()
		co.attempted++
		if err != nil {
			co.failed++
		} else {
			record(&co.status, start)
			l.final = st
		}
		co.lives = append(co.lives, l)
	}
	return nil
}

// check replays every lifecycle in process: the same leveled
// architecture, the same stress bursts and maintenance, the same
// accesses, must give the same transcript and final wear, and the
// reveals must stay within the leveled budget.
func (w *targetingRun) check(_ context.Context, r *rig, out *phaseOut, g *gate) error {
	if n := r.guard.leaks.Load(); n > 0 {
		g.failf("%d stress responses carried key bytes", n)
	}
	designs := make([]dse.Design, len(targetingSpecs))
	for i, s := range targetingSpecs {
		d, err := dse.Explore(wireSpec(s))
		if err != nil {
			return fmt.Errorf("exploring targeting spec %d: %w", i, err)
		}
		designs[i] = d
	}
	i := 0
	for _, lives := range w.plan.Clients {
		for _, lc := range lives {
			l := w.lives[i]
			i++
			d := designs[lc.Spec]
			want, arch, err := replayLifecycle(d, lc)
			if err != nil {
				return err
			}
			if string(want) != string(l.transcript) {
				g.failf("lifecycle %s: served %q, replay %q", l.id, l.transcript, want)
				continue
			}
			if len(want) == 0 || want[len(want)-1] != outExhausted {
				g.failf("lifecycle %s: no lockout within %d ops", l.id, maxLifecycleOps)
			}
			if l.final == nil {
				continue
			}
			if got, exp := statusFinal(l.final), archFinal(arch); got != exp {
				g.failf("lifecycle %s: final %+v, replay %+v", l.id, got, exp)
			}
			if limit := budget(d, targetingSpares); l.reveals > limit {
				g.failf("lifecycle %s: %d reveals exceed the leveled budget %d", l.id, l.reveals, limit)
			}
		}
	}
	return nil
}

// replayLifecycle runs one lifecycle against an in-process leveled twin.
func replayLifecycle(d dse.Design, lc Lifecycle) ([]byte, *core.Architecture, error) {
	arch, err := buildArch(d, lc.Device, &core.Leveling{Spares: targetingSpares, Epoch: targetingEpoch})
	if err != nil {
		return nil, nil, err
	}
	victims := stressIndices(lc.Victim, d.N)
	var t []byte
	for a := 0; len(t) < maxLifecycleOps; a++ {
		if a > 0 && a%lc.StressEvery == 0 {
			conducted, err := arch.Stress(stressEnv, victims, stressPulses)
			if merr := maintain(arch); merr != nil {
				return nil, nil, merr
			}
			if err != nil {
				t = append(t, coreOutcome(err))
				if coreOutcome(err) == outExhausted {
					break
				}
			} else {
				t = append(t, stressCode(conducted)...)
			}
		}
		_, err := arch.Access(nems.RoomTemp)
		if merr := maintain(arch); merr != nil {
			return nil, nil, merr
		}
		code := coreOutcome(err)
		t = append(t, code)
		if code == outExhausted {
			break
		}
	}
	return t, arch, nil
}
