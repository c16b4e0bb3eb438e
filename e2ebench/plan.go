package e2ebench

import (
	"math"

	"lemonade/api"
	"lemonade/internal/rng"
)

// The workload plans below are pure functions of (seed, seconds): the
// same pair always yields the same fleet, the same operations in the
// same order and, for the open loop, the same arrival schedule. The
// program under test only ever sees what a plan generated.

// OpKind names one client operation.
type OpKind uint8

const (
	// OpAccess is one wearout-consuming access.
	OpAccess OpKind = iota
	// OpStatus is one GET /v1/architectures/{id}.
	OpStatus
)

// Device is one architecture the benchmark provisions: the fabrication
// seed and the secret it protects.
type Device struct {
	Seed   uint64
	Secret []byte
}

// Op is one open-loop operation: due At nanoseconds after the phase
// starts, against fleet member Arch.
type Op struct {
	At   int64
	Arch int
	Kind OpKind
}

// phoneSpec is the smartphone storage key of the paper's first
// deployment: a week of ~50 reads a day (LAB 350), 3,360 switches.
var phoneSpec = api.SpecRequest{Alpha: 14, Beta: 8, LAB: 350, KFrac: 0.1, ContinuousT: true}

// Workload sizing. The rates and counts were sized on a 2-vCPU VM with
// an ext4 virtio disk so that one run's timed phase lasts about the
// requested seconds on a quiet host; the cluster's is shorter (about 12
// s of 20), because more accesses would lock keys out. See README.md for
// the measurements behind them.
// Fleets stay at 128 keys per node: a node's snapshot is one WAL frame,
// and recovery refuses frames over 16 MiB, about 190 phone keys.
const (
	unlockFleet       = 128 // phones; each sees ~75 of its ~360 budget in 20 s
	unlockRate        = 600 // ops/s offered by the open loop
	unlockStatusShare = 0.2 // share of unlock ops that are status reads

	targetingClients   = 2
	targetingPerSecond = 13 // lifecycles per client per second of run
	targetingSpares    = 4
	targetingEpoch     = 8
	// The adversary's burst is the one the repo's attack tests run
	// against the live daemon (internal/attack, StressPlan{HotTemp: 400,
	// Pulses: 2} on two indices), at the temperature lemonbench's
	// access/leveled uses.
	stressTemp   = 400.0 // °C
	stressPulses = 2

	clusterFleet     = 128  // 2-of-3 cluster architectures
	clusterPerSecond = 1700 // each key sees ~265 of its ~360 budget in 20 s
	clusterK         = 2
	clusterN         = 3
)

// targetingSpecs is the small pool of leveled specs the targeting
// lifecycles draw from: each spec misses the DSE cache once.
var targetingSpecs = []api.SpecRequest{
	{Alpha: 6, Beta: 8, LAB: 90, KFrac: 0.1, ContinuousT: true},
	{Alpha: 6, Beta: 8, LAB: 100, KFrac: 0.1, ContinuousT: true},
	{Alpha: 6, Beta: 8, LAB: 110, KFrac: 0.1, ContinuousT: true},
	{Alpha: 8, Beta: 8, LAB: 100, KFrac: 0.1, ContinuousT: true},
}

func newDevice(r *rng.RNG) Device {
	d := Device{Seed: r.Uint64(), Secret: make([]byte, 16)}
	r.Bytes(d.Secret)
	return d
}

func fleet(r *rng.RNG, n int) []Device {
	out := make([]Device, n)
	for i := range out {
		out[i] = newDevice(r)
	}
	return out
}

// UnlockPlan is the smartphone fleet: independent owners arriving as a
// Poisson stream at unlockRate, a fixed share of them reading status.
type UnlockPlan struct {
	Fleet []Device
	Ops   []Op
}

// PlanUnlock generates the unlock workload for seed over seconds.
func PlanUnlock(seed uint64, seconds int) UnlockPlan {
	root := rng.New(seed)
	p := UnlockPlan{Fleet: fleet(root.Derive("unlock/fleet"), unlockFleet)}
	n := unlockRate * seconds
	statuses := int(math.Round(unlockStatusShare * float64(n)))
	kinds := make([]OpKind, n)
	for i := 0; i < statuses; i++ {
		kinds[i] = OpStatus
	}
	r := root.Derive("unlock/ops")
	r.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	p.Ops = make([]Op, n)
	var at float64
	for i := range p.Ops {
		at += -math.Log(r.Float64Open()) / unlockRate * 1e9
		p.Ops[i] = Op{At: int64(at), Arch: r.Intn(unlockFleet), Kind: kinds[i]}
	}
	return p
}

// Lifecycle is one targeting-system key from provision to lockout: a
// leveled architecture of Spec, accessed until it answers 410, with a
// targeted high-temperature stress burst against share indices
// Victim and Victim+1 (mod n) before every StressEvery-th access.
type Lifecycle struct {
	Device
	Spec        int
	StressEvery int
	Victim      int
}

// TargetingPlan holds each closed-loop client's lifecycles, run in order.
type TargetingPlan struct {
	Clients [][]Lifecycle
}

// PlanTargeting generates the targeting workload for seed over seconds.
func PlanTargeting(seed uint64, seconds int) TargetingPlan {
	root := rng.New(seed)
	p := TargetingPlan{Clients: make([][]Lifecycle, targetingClients)}
	for c := range p.Clients {
		r := root.DeriveIndex("targeting/client", c)
		p.Clients[c] = make([]Lifecycle, targetingPerSecond*seconds)
		for i := range p.Clients[c] {
			p.Clients[c][i] = Lifecycle{
				Device:      newDevice(r),
				Spec:        r.Intn(len(targetingSpecs)),
				StressEvery: 3 + r.Intn(3),
				Victim:      r.Intn(1 << 16),
			}
		}
	}
	return p
}

// ClusterPlan is the k-of-n fleet and one closed-loop caller's access
// sequence over it.
type ClusterPlan struct {
	Fleet []Device
	Ops   []int // fleet index of each access, in order
}

// PlanCluster generates the cluster workload for seed over seconds.
func PlanCluster(seed uint64, seconds int) ClusterPlan {
	root := rng.New(seed)
	p := ClusterPlan{Fleet: fleet(root.Derive("cluster/fleet"), clusterFleet)}
	r := root.Derive("cluster/ops")
	p.Ops = make([]int, clusterPerSecond*seconds)
	for i := range p.Ops {
		p.Ops[i] = r.Intn(clusterFleet)
	}
	return p
}
