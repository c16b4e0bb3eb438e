package attack

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"lemonade/api"
	"lemonade/internal/core"
	"lemonade/internal/rng"
)

// live.go aims the paper's §3 adversaries at a RUNNING daemon instead of
// a bare simulated device: every attack below speaks the public HTTP API
// through api.Client, so it exercises the full serving stack — the
// log-ahead durability path, the resilience envelope, and the
// wear-leveling defense — exactly as a network-position attacker would.
//
// Two live attack modes:
//
//   - StressPattern: a wearout accelerator. The attacker cannot read the
//     secret (the /stress route never reconstructs), but can concentrate
//     actuations on chosen share indices under hostile environments —
//     heat-gun hot phases and cold-soak phases cycled per burst — to
//     burn the budget far faster than legitimate use would.
//   - Campaign: availability depletion at scale (§7). N deterministic
//     attackers interleave with M legitimate users on one architecture in
//     a seeded order; the report captures the degradation window (first
//     transient → lockout), the served timeline, and the confidentiality
//     invariants: the attacker sees zero key bytes, and total reveals
//     never exceed the designed budget.

// StressPlan shapes one attacker's burst sequence. The zero value is not
// runnable: Bursts and Indices are required.
type StressPlan struct {
	Indices []int // share indices to concentrate wear on
	// HotTemp/ColdTemp are the cycled environments; zero means room
	// temperature for that phase (a pure hot attack sets only HotTemp).
	HotTemp  float64
	ColdTemp float64
	// Period is the phase length in bursts: bursts [0,Period) run hot,
	// [Period,2·Period) cold, and so on. Period 0 runs every burst hot.
	Period int
	Pulses int // actuations per index per burst (0 = 1)
	Bursts int // bursts to send
}

// Temperature returns the environment override for burst i — the
// deterministic hot/cold cycle, so a replayed attack sends the identical
// request sequence.
func (p StressPlan) Temperature(i int) float64 {
	if p.Period <= 0 {
		return p.HotTemp
	}
	if (i/p.Period)%2 == 0 {
		return p.HotTemp
	}
	return p.ColdTemp
}

// StressReport summarizes one StressPattern run.
type StressReport struct {
	Bursts     int    // bursts the daemon accepted
	PulsesSent int    // total pulses across accepted bursts
	Conducted  int    // actuations that found a still-working switch
	Stressed   uint64 // daemon's lifetime stress count afterwards
	Remaps     uint64 // wear-leveling rotations the defense performed
	Transients int    // 503 refusals absorbed (no wear consumed)
	// LockedOutAt is the burst index at which the daemon answered 410 —
	// the architecture died under the attack — or -1 if it survived.
	LockedOutAt int
}

// maxStressTransients bounds how many consecutive 503s a stress attacker
// absorbs before concluding the daemon is wedged rather than busy.
const maxStressTransients = 1000

// StressPattern runs one attacker's full burst sequence against the
// architecture. It stops early at lockout (the attack killed the device)
// or when ctx ends; other API failures abort with the error.
func StressPattern(ctx context.Context, c *api.Client, id string, plan StressPlan) (StressReport, error) {
	rep := StressReport{LockedOutAt: -1}
	if plan.Bursts <= 0 {
		return rep, errors.New("attack: stress plan needs at least one burst")
	}
	pulses := plan.Pulses
	if pulses <= 0 {
		pulses = 1
	}
	streak := 0
	for i := 0; i < plan.Bursts; i++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		resp, err := c.Stress(ctx, id, api.StressRequest{
			TempCelsius: plan.Temperature(i),
			Indices:     plan.Indices,
			Pulses:      pulses,
		})
		switch {
		case err == nil:
			streak = 0
			rep.Bursts++
			rep.PulsesSent += resp.Pulses
			rep.Conducted += resp.Conducted
			rep.Stressed = resp.Stressed
			rep.Remaps = resp.Remaps
		case api.IsExhausted(err):
			rep.LockedOutAt = i
			return rep, nil
		case api.IsTransient(err):
			rep.Transients++
			streak++
			if streak >= maxStressTransients {
				return rep, fmt.Errorf("attack: %d consecutive transients, daemon wedged: %w", streak, err)
			}
			i-- // the burst was refused before any wear; resend it
		default:
			return rep, err
		}
	}
	return rep, nil
}

// CampaignConfig parameterizes a depletion campaign: Attackers stress
// workers each running Plan, racing Users legitimate access workers.
type CampaignConfig struct {
	Attackers int        // stress attackers (default 1)
	Users     int        // legitimate users (default 1)
	Plan      StressPlan // per-attacker burst sequence
	// MaxUserOps bounds each user's access attempts, a safety valve for
	// configurations that never reach lockout (default 10000).
	MaxUserOps int
	// SecretHex, when set, is the provisioned secret: successful user
	// accesses are checked against it, and every attacker-visible
	// response is scanned for it.
	SecretHex string
	// Seed picks the interleaving. At every step one still-running
	// worker, drawn uniformly from a stream seeded here, sends its next
	// request and waits for the answer before any worker moves again, so
	// equal seeds send identical request sequences and the order served
	// is the order sent.
	Seed uint64
}

// CampaignOp is one served operation of a campaign, in service order:
// enough to replay the campaign against an in-process architecture and
// compare every outcome.
type CampaignOp struct {
	Stress      bool    // an attacker burst; otherwise a user access at room temperature
	TempCelsius float64 // the burst's environment (stress only)
	Outcome     string  // core.AccessOutcome label, or "ok" for an accepted burst
	Conducted   int     // actuations that conducted (accepted bursts only)
}

// CampaignReport is the outcome of one depletion campaign. Operation
// indices are 1-based positions in Ops, the single served timeline, so
// FirstTransientOp and LockoutOp order attacker and user traffic exactly.
type CampaignReport struct {
	AttackerBursts  int    // stress bursts the daemon accepted
	AttackerPulses  int    // total stress pulses landed
	AttackerRemaps  uint64 // defense rotations observed by the attackers
	AttackerReveals int    // attacker-visible responses carrying key bytes — MUST be 0
	UserSuccesses   int    // legitimate reveals (bounded by the design budget)
	UserTransients  int    // 503s users absorbed
	UserDecodeFails int    // 422s users absorbed (conducted but unreconstructable)
	WrongSecrets    int    // successful accesses returning wrong bytes — MUST be 0

	// FirstTransientOp is the op index of the first degradation signal a
	// user saw; LockoutOp the first 410 anyone saw; -1 if never.
	FirstTransientOp int64
	LockoutOp        int64

	Ops []CampaignOp // every served operation, in order
}

// DegradationWindow is the number of operations between the first
// user-visible transient and lockout — how much warning the legitimate
// owner gets that an attack is burning their budget. -1 when the
// campaign never exhibited both endpoints.
func (r CampaignReport) DegradationWindow() int64 {
	if r.FirstTransientOp < 0 || r.LockoutOp < 0 {
		return -1
	}
	return r.LockoutOp - r.FirstTransientOp
}

// campaignWorker is one attacker or user's progress through its script.
type campaignWorker struct {
	attacker bool
	sent     int // attacker: bursts accepted; user: accesses attempted
	streak   int // attacker: consecutive transients
}

// Campaign interleaves cfg.Attackers stress workers with cfg.Users
// legitimate access workers on one architecture, in the seeded order
// cfg.Seed fixes, until every worker finishes (lockout, plan complete,
// or op budget spent). The first error other than the expected refusals
// aborts the campaign.
func Campaign(ctx context.Context, c *api.Client, id string, cfg CampaignConfig) (CampaignReport, error) {
	maxUserOps := cfg.MaxUserOps
	if maxUserOps <= 0 {
		maxUserOps = 10000
	}
	pulsesPerBurst := cfg.Plan.Pulses
	if pulsesPerBurst <= 0 {
		pulsesPerBurst = 1
	}
	rep := CampaignReport{FirstTransientOp: -1, LockoutOp: -1}
	noteFirst := func(slot *int64, op int64) {
		if *slot < 0 {
			*slot = op
		}
	}
	// leaked reports whether an attacker-visible payload carries the
	// provisioned key bytes — the confidentiality invariant, checked
	// against the JSON the attacker actually received.
	leaked := func(v any) bool {
		if cfg.SecretHex == "" {
			return false
		}
		b, err := json.Marshal(v)
		return err == nil && strings.Contains(strings.ToLower(string(b)), strings.ToLower(cfg.SecretHex))
	}

	// step sends w's next request and reports whether w has finished.
	step := func(w *campaignWorker) (bool, error) {
		op := int64(len(rep.Ops) + 1)
		if w.attacker {
			temp := cfg.Plan.Temperature(w.sent)
			resp, err := c.Stress(ctx, id, api.StressRequest{
				TempCelsius: temp, Indices: cfg.Plan.Indices, Pulses: pulsesPerBurst,
			})
			rec := CampaignOp{Stress: true, TempCelsius: temp}
			switch {
			case err == nil:
				w.streak = 0
				w.sent++
				rep.AttackerBursts++
				rep.AttackerPulses += resp.Pulses
				rep.AttackerRemaps = resp.Remaps
				if leaked(resp) {
					rep.AttackerReveals++
				}
				rec.Outcome, rec.Conducted = "ok", resp.Conducted
				rep.Ops = append(rep.Ops, rec)
				return w.sent >= cfg.Plan.Bursts, nil
			case api.IsExhausted(err):
				rec.Outcome = core.AccessExhausted.String()
				rep.Ops = append(rep.Ops, rec)
				noteFirst(&rep.LockoutOp, op)
				return true, nil
			case api.IsTransient(err):
				// Refused before any wear, so not a served op: the burst
				// is resent on this worker's next turn.
				w.streak++
				if w.streak >= maxStressTransients {
					return true, fmt.Errorf("attack: attacker wedged on transients: %w", err)
				}
				return false, nil
			default:
				return true, err
			}
		}
		w.sent++
		resp, err := c.Access(ctx, id, api.AccessRequest{})
		rec := CampaignOp{}
		switch {
		case err == nil:
			rep.UserSuccesses++
			if cfg.SecretHex != "" && resp.SecretHex != cfg.SecretHex {
				rep.WrongSecrets++
			}
			rec.Outcome = core.AccessSuccess.String()
		case api.IsExhausted(err):
			rec.Outcome = core.AccessExhausted.String()
			rep.Ops = append(rep.Ops, rec)
			noteFirst(&rep.LockoutOp, op)
			return true, nil
		case api.IsTransient(err):
			rep.UserTransients++
			noteFirst(&rep.FirstTransientOp, op)
			rec.Outcome = core.AccessTransient.String()
		case isDecodeFailed(err):
			rep.UserDecodeFails++
			noteFirst(&rep.FirstTransientOp, op)
			rec.Outcome = core.AccessDecodeFailed.String()
		default:
			return true, err
		}
		rep.Ops = append(rep.Ops, rec)
		return w.sent >= maxUserOps, nil
	}

	var running []*campaignWorker
	for a := 0; a < max(cfg.Attackers, 1); a++ {
		if cfg.Plan.Bursts > 0 {
			running = append(running, &campaignWorker{attacker: true})
		}
	}
	for u := 0; u < max(cfg.Users, 1); u++ {
		running = append(running, &campaignWorker{})
	}
	pick := rng.New(cfg.Seed)
	for len(running) > 0 {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		i := pick.Intn(len(running))
		done, err := step(running[i])
		if err != nil {
			return rep, err
		}
		if done {
			running = append(running[:i], running[i+1:]...)
		}
	}
	return rep, nil
}

// isDecodeFailed reports a 422: the access conducted (wear consumed) but
// reconstruction failed — a degradation signal short of lockout.
func isDecodeFailed(err error) bool {
	var ae *api.Error
	return errors.As(err, &ae) && ae.StatusCode == 422
}
