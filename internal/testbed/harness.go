package testbed

import (
	"fmt"
	"math/rand"

	"pagerankvm/internal/opt"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
	"pagerankvm/internal/trace"
)

// The paper's testbed configuration: 10 instances, 4 CPU cores each,
// 4 vCPUs per core, CPU-only profiles, VM (job) types [1,1] and
// [1,1,1,1].
const (
	// PMType is the emulated instance type name.
	PMType = "geni"
	// DefaultPMs is the paper's instance count.
	DefaultPMs = 10
)

// PMShape returns the testbed PM shape: a 4-dimensional CPU vector
// with capacity 4 per core.
func PMShape() *resource.Shape {
	return resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
}

// JobTypes returns the two job (VM) types of the experiment.
func JobTypes() []resource.VMType {
	return []resource.VMType{
		resource.NewVMType("[1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1}}),
		resource.NewVMType("[1,1,1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1, 1, 1}}),
	}
}

// NewRegistry builds the Profile→score table registry for the testbed
// PM type. The testbed fleet is homogeneous (one PM type, one joint
// table), so no cache is defaulted here; callers sharing tables across
// harnesses can pass a ranktable.Cache via opts.Cache.
func NewRegistry(opts ranktable.Options) (*ranktable.Registry, error) {
	table, err := ranktable.NewJoint(PMShape(), JobTypes(), opts)
	if err != nil {
		return nil, err
	}
	reg := ranktable.NewRegistry()
	reg.Add(PMType, table)
	return reg, nil
}

// Transport selects how controller and agents communicate.
type Transport int

const (
	// TransportInMemory uses channel pipes (fast, used by the
	// repetition harness).
	TransportInMemory Transport = iota
	// TransportTCP uses gob over loopback TCP sockets — real message
	// framing, as on the GENI control network.
	TransportTCP
)

// Harness owns the agents of one experiment.
type Harness struct {
	cluster    *placement.Cluster
	conns      map[int]Conn
	agentConns map[int]Conn
	agents     []*Agent
}

// Launch starts numPMs agents over the chosen transport and builds
// the matching (empty) cluster mirror.
func Launch(numPMs int, tr Transport) (*Harness, error) {
	return LaunchWithFaults(numPMs, tr, nil)
}

// LaunchWithFaults is Launch with every controller-side connection
// wrapped in a deterministic fault injector (nil faults means none).
// Each PM's injector gets its own seed derived from faults.Seed, so a
// fixed seed reproduces the same fault pattern across runs.
func LaunchWithFaults(numPMs int, tr Transport, faults *FaultConfig) (*Harness, error) {
	if numPMs <= 0 {
		return nil, fmt.Errorf("testbed: numPMs must be positive, got %d", numPMs)
	}
	shape := PMShape()
	h := &Harness{
		conns:      make(map[int]Conn, numPMs),
		agentConns: make(map[int]Conn, numPMs),
	}
	pms := make([]*placement.PM, numPMs)
	for i := 0; i < numPMs; i++ {
		var ctrlEnd, agentEnd Conn
		switch tr {
		case TransportTCP:
			var err error
			ctrlEnd, agentEnd, err = DialTCPPair()
			if err != nil {
				return nil, err
			}
		default:
			ctrlEnd, agentEnd = Pipe()
		}
		if faults != nil {
			perPM := *faults
			perPM.Seed = faults.Seed*1_000_003 + int64(i)
			ctrlEnd = NewFaultConn(ctrlEnd, perPM)
		}
		agent := NewAgent(i, shape, agentEnd)
		agent.Start()
		h.agents = append(h.agents, agent)
		h.conns[i] = ctrlEnd
		h.agentConns[i] = agentEnd
		pms[i] = placement.NewPM(i, PMType, shape)
	}
	h.cluster = placement.NewCluster(pms)
	return h, nil
}

// Cluster returns the controller-side mirror.
func (h *Harness) Cluster() *placement.Cluster { return h.cluster }

// Conns returns the controller-side connections keyed by PM id.
func (h *Harness) Conns() map[int]Conn { return h.conns }

// Agents returns the launched agents, indexed by PM id.
func (h *Harness) Agents() []*Agent { return h.agents }

// KillAgent emulates an agent crash mid-experiment: its connection is
// closed, which ends the agent loop; the controller discovers the
// death on its next call to that agent and recovers its jobs.
func (h *Harness) KillAgent(id int) {
	if conn, ok := h.agentConns[id]; ok {
		_ = conn.Close()
	}
}

// Close waits for the agents to exit and closes the connections. Call
// after Controller.Run (which shuts the agents down, closing every
// conn — even toward agents that stopped answering).
func (h *Harness) Close() {
	for _, a := range h.agents {
		a.Wait()
	}
	for _, c := range h.conns {
		_ = c.Close()
	}
	for _, c := range h.agentConns {
		_ = c.Close()
	}
}

// JobConfig parameterizes the synthetic job stream of the experiment.
type JobConfig struct {
	// NumJobs is the total jobs submitted over the experiment (the
	// paper sweeps 100-300).
	NumJobs int
	// Steps is the experiment length in control intervals.
	Steps int
	// Seed drives arrivals, types and traces.
	Seed int64
	// MeanLeaseSteps is the mean job duration; 0 selects Steps/12.
	MeanLeaseSteps int
	// WideShare is the fraction of [1,1,1,1] jobs; nil selects 0.5
	// (set with opt.F).
	WideShare *float64
}

// GenJobs builds the job stream: users submit 1-5 jobs together (with
// a shared load-burst series), arrivals are spread over the first 80%
// of the experiment, and each job runs for an exponential lease.
func GenJobs(cat func(id int, vt resource.VMType) *placement.VM, cfg JobConfig) ([]Job, error) {
	if cfg.NumJobs <= 0 || cfg.Steps <= 0 {
		return nil, fmt.Errorf("testbed: job config needs NumJobs and Steps")
	}
	if cfg.MeanLeaseSteps == 0 {
		cfg.MeanLeaseSteps = cfg.Steps / 12
	}
	wideShare := opt.Or(cfg.WideShare, 0.5)
	types := JobTypes()
	rng := rand.New(rand.NewSource(cfg.Seed * 31 / 7))

	jobs := make([]Job, 0, cfg.NumJobs)
	burstIDs := make([]int, 0, cfg.NumJobs)
	user := 0
	for len(jobs) < cfg.NumJobs {
		group := 1 + rng.Intn(5)
		vt := types[0]
		if rng.Float64() < wideShare {
			vt = types[1]
		}
		start := rng.Intn(cfg.Steps * 8 / 10)
		for g := 0; g < group && len(jobs) < cfg.NumJobs; g++ {
			lease := 1 + int(rng.ExpFloat64()*float64(cfg.MeanLeaseSteps))
			end := start + lease
			if end >= cfg.Steps {
				end = 0
			}
			jobs = append(jobs, Job{VM: cat(len(jobs), vt), Start: start, End: end})
			burstIDs = append(burstIDs, 1<<24+user)
		}
		user++
	}
	gen := trace.Google{Seed: cfg.Seed, Mean: opt.F(0.5)}
	bursts := trace.BurstConfig{Prob: opt.F(0.03), Min: 0.8, Max: opt.F(1.0)}
	for id, s := range trace.OverlaidSeries(gen, cfg.Steps, cfg.Seed, bursts, burstIDs) {
		jobs[id].Trace = s
	}
	return jobs, nil
}

// NewJobVM is the default cat function for GenJobs: a VM whose only
// demand entry targets the testbed PM type.
func NewJobVM(id int, vt resource.VMType) *placement.VM {
	return &placement.VM{
		ID:   id,
		Type: vt.Name,
		Req:  map[string]resource.VMType{PMType: vt},
	}
}
