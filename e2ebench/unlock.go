package e2ebench

import (
	"context"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"time"

	"lemonade/api"
	"lemonade/internal/dse"
	"lemonade/internal/nems"
)

// unlockInflight bounds the open loop's outstanding requests; beyond it
// the generator itself stalls, and that shows as lateness.
const unlockInflight = 64

// unlockRun is the smartphone fleet: an open loop of independent owners
// against week-budget phone keys, a fifth of them reading status.
type unlockRun struct {
	o    Options
	plan UnlockPlan
	ids  []string
	prov samples
}

func (w *unlockRun) nodes() int     { return 1 }
func (w *unlockRun) setupReps() int { return setupReps }

func (w *unlockRun) setup(ctx context.Context, r *rig) error {
	w.ids = make([]string, len(w.plan.Fleet))
	for i, dev := range w.plan.Fleet {
		pctx, end := r.tr.StartOp(ctx, routeProvision, "")
		start := w.o.Now()
		resp, err := r.clients[0].Provision(pctx, api.ProvisionRequest{
			Spec: phoneSpec, SecretHex: hex.EncodeToString(dev.Secret), Seed: dev.Seed,
		})
		end()
		if err != nil {
			return fmt.Errorf("provisioning phone %d: %w", i, err)
		}
		now := w.o.Now()
		w.prov.add(float64(now-start)/1e6, now)
		w.ids[i] = resp.ID
	}
	return nil
}

// unlockRec is one open-loop op's observation.
type unlockRec struct {
	ms   float64 // from the op's due time
	end  int64   // clock at completion
	code byte
	ok   bool // answered as the op's contract allows
}

func (w *unlockRun) run(ctx context.Context, r *rig) (*phaseOut, error) {
	ops := w.plan.Ops
	recs := make([]unlockRec, len(ops))
	late := make([]float64, len(ops))
	sem := make(chan struct{}, unlockInflight)
	var wg sync.WaitGroup
	c := r.clients[0]
	start := w.o.Now()
	for i, op := range ops {
		due := start + op.At
		sleepUntil(w.o.Now, due)
		late[i] = float64(w.o.Now()-due) / 1e6
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, op Op, due int64) {
			defer func() { <-sem; wg.Done() }()
			recs[i] = w.do(ctx, r, c, op, due)
		}(i, op, due)
	}
	wg.Wait()
	out := &phaseOut{
		start:       start,
		stop:        w.o.Now(),
		attempted:   len(ops),
		lateness:    late,
		provision:   w.prov,
		transcripts: make([][]byte, len(w.plan.Fleet)),
	}
	for i, rec := range recs {
		op := ops[i]
		if op.Kind == OpStatus {
			out.status.add(rec.ms, rec.end)
		} else {
			out.access.add(rec.ms, rec.end)
			out.transcripts[op.Arch] = append(out.transcripts[op.Arch], rec.code)
			switch rec.code {
			case outSuccess:
				if rec.ok {
					out.revealed = append(out.revealed, rec.end)
				} else {
					out.wrong++
				}
			case outTransient:
				out.transient503++
			}
		}
		if !rec.ok {
			out.failed++
		}
	}
	// Two owners of one phone may race; the outcome multiset per phone
	// is what a seed fixes, so transcripts are kept sorted.
	for _, t := range out.transcripts {
		slices.Sort(t)
	}
	return out, nil
}

func (w *unlockRun) do(ctx context.Context, r *rig, c *api.Client, op Op, due int64) unlockRec {
	id := w.ids[op.Arch]
	if op.Kind == OpStatus {
		ctx, end := r.tr.StartOp(ctx, routeStatus, id)
		st, err := c.Status(ctx, id)
		end()
		now := w.o.Now()
		return unlockRec{ms: float64(now-due) / 1e6, end: now, code: apiOutcome(err), ok: err == nil && st.ID == id}
	}
	ctx, end := r.tr.StartOp(ctx, routeAccess, id)
	resp, err := c.Access(ctx, id, api.AccessRequest{})
	end()
	now := w.o.Now()
	rec := unlockRec{ms: float64(now-due) / 1e6, end: now, code: apiOutcome(err)}
	switch rec.code {
	case outSuccess:
		rec.ok = resp.SecretHex == hex.EncodeToString(w.plan.Fleet[op.Arch].Secret)
	case outTransient:
		rec.ok = true
	}
	return rec
}

// check replays every phone in process: the same seed and access count
// must give the same outcomes and the same final wear.
func (w *unlockRun) check(ctx context.Context, r *rig, out *phaseOut, g *gate) error {
	d, err := dse.Explore(wireSpec(phoneSpec))
	if err != nil {
		return fmt.Errorf("exploring the phone spec: %w", err)
	}
	limit := budget(d, 0)
	for i, dev := range w.plan.Fleet {
		arch, err := buildArch(d, dev, nil)
		if err != nil {
			return err
		}
		want := make([]byte, 0, len(out.transcripts[i]))
		for range out.transcripts[i] {
			secret, err := arch.Access(nems.RoomTemp)
			code := coreOutcome(err)
			if code == outSuccess && !g.checkSecret("replay of phone "+w.ids[i], hex.EncodeToString(secret), dev.Secret) {
				break
			}
			want = append(want, code)
		}
		slices.Sort(want)
		if string(want) != string(out.transcripts[i]) {
			g.failf("phone %s: served outcomes %q, replay %q", w.ids[i], out.transcripts[i], want)
		}
		st, err := r.clients[0].Status(ctx, w.ids[i])
		if err != nil {
			return fmt.Errorf("final status of %s: %w", w.ids[i], err)
		}
		if got, exp := statusFinal(st), archFinal(arch); got != exp {
			g.failf("phone %s: final %+v, replay %+v", w.ids[i], got, exp)
		}
		if int(st.Successful) > limit {
			g.failf("phone %s: %d reveals exceed the budget %d", w.ids[i], st.Successful, limit)
		}
	}
	return nil
}

// sleepUntil blocks until the clock reads due.
func sleepUntil(now func() int64, due int64) {
	if d := due - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}
