package testbed

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"pagerankvm/internal/obs"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/opt"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/resource"
	"pagerankvm/internal/sim"
	"pagerankvm/internal/trace"
)

// Job is one workload unit submitted to the testbed: an emulated VM
// with its trace and lease window, the simulator's workload. As in the
// paper's GENI experiment, jobs run on instances, and killing a job
// and continuing it on another instance emulates VM migration.
type Job = sim.Workload

// DefaultCallRetries is how many times a failed call is retried before
// the agent is declared dead.
const DefaultCallRetries = 2

// DefaultRetryBackoff is the initial backoff before the first retry;
// it doubles on each subsequent retry.
const DefaultRetryBackoff = 2 * time.Millisecond

// Config parameterizes a testbed run.
type Config struct {
	// Steps is the number of control intervals (paper: 4 h at 10 s
	// per interval = 1440).
	Steps int
	// CallTimeout bounds one control-protocol round trip (request plus
	// reply). Zero disables deadlines — safe for the in-memory
	// transport without fault injection, where an agent always
	// answers. Drop or delay faults require a timeout to be detected.
	CallTimeout time.Duration
	// CallRetries is how many times a failed round trip is retried
	// (with exponential backoff) before the agent is declared dead;
	// nil selects DefaultCallRetries. Set with opt.I — zero means fail
	// fast on the first error.
	CallRetries *int
	// RetryBackoff is the sleep before the first retry, doubling per
	// subsequent retry; 0 selects DefaultRetryBackoff.
	RetryBackoff time.Duration
	// Obs, when non-nil, records controller telemetry: per-request
	// control-protocol latency, transport errors, retries, timeouts,
	// dead agents and recovery placements (testbed.*).
	Obs *obs.Observer
	// Recorder, when non-nil, appends "testbed.round" spans (one per
	// control interval, labelled with the step index) and a closing
	// "testbed.run" span to the decision recording. Attach the same
	// recorder to the placer (placement.WithRecorder) for the decision
	// stream itself.
	Recorder *record.Recorder
}

func (c Config) withDefaults() Config {
	if c.Steps == 0 {
		c.Steps = 1440
	}
	if c.CallRetries == nil {
		c.CallRetries = opt.I(DefaultCallRetries)
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = DefaultRetryBackoff
	}
	return c
}

// Result mirrors the metrics of the paper's Figures 4 and 8, plus the
// fault-tolerance accounting of the emulated control plane.
type Result struct {
	PMsUsed         int
	Migrations      int
	FailedMoves     int
	Rejected        int
	SLOViolationPct float64
	ActivePMSteps   int
	ViolatedPMSteps int
	OverloadEvents  int
	// DeadAgents counts agents declared dead after exhausting call
	// retries; their PMs are retired from the mirror.
	DeadAgents int
	// Recovered counts jobs re-placed onto surviving PMs after their
	// agent died.
	Recovered int
	// Lost counts jobs that could not be recovered — no surviving PM
	// had capacity, or an agent rejected the recovery start.
	Lost int
}

// Controller is the centralized scheduler of the emulated testbed. It
// keeps a local mirror of every agent's assignments (a
// placement.Cluster), drives lock-step rounds, and applies the
// simulator's monitoring rule (sim.Classify, sim.Schedule and
// placement.Cluster.Migrate) to the loads the agents report. Agents
// that stop answering (after bounded retries) are declared dead: their
// mirror VMs are re-placed onto surviving PMs via the configured placer
// and the run continues.
type Controller struct {
	cfg     Config
	cluster *placement.Cluster
	placer  placement.Placer
	evictor placement.Evictor
	conns   map[int]Conn // pm id -> conn
	traces  map[int]trace.Series
	arrives [][]*placement.VM // step -> arriving jobs
	departs [][]int           // step -> departing job ids
	over    []int             // sim.Classify's overloaded dimensions, reused
	met     controllerMetrics

	pms  []*placement.PM // inventory order, stable across retires
	seqs map[int]uint64  // pm id -> last issued request sequence
	dead map[int]bool    // pm id -> agent declared dead
}

// controllerMetrics pre-resolves the controller's instruments; all nil
// without Config.Obs.
type controllerMetrics struct {
	calls           *obs.Counter   // testbed.calls
	transportErrors *obs.Counter   // testbed.transport_errors
	retries         *obs.Counter   // testbed.retries
	timeouts        *obs.Counter   // testbed.timeouts
	migrations      *obs.Counter   // testbed.migrations
	failedMoves     *obs.Counter   // testbed.failed_moves
	deadAgents      *obs.Counter   // testbed.dead_agents
	recoveredJobs   *obs.Counter   // testbed.recovered_jobs
	lostJobs        *obs.Counter   // testbed.lost_jobs
	callSeconds     *obs.Histogram // testbed.call_seconds
}

func newControllerMetrics(o *obs.Observer) controllerMetrics {
	return controllerMetrics{
		calls:           o.Counter("testbed.calls"),
		transportErrors: o.Counter("testbed.transport_errors"),
		retries:         o.Counter("testbed.retries"),
		timeouts:        o.Counter("testbed.timeouts"),
		migrations:      o.Counter("testbed.migrations"),
		failedMoves:     o.Counter("testbed.failed_moves"),
		deadAgents:      o.Counter("testbed.dead_agents"),
		recoveredJobs:   o.Counter("testbed.recovered_jobs"),
		lostJobs:        o.Counter("testbed.lost_jobs"),
		callSeconds:     o.Histogram("testbed.call_seconds", nil),
	}
}

// agentDownError marks a call that exhausted its retries: the agent is
// unreachable and the caller should trigger dead-agent recovery rather
// than abort the run.
type agentDownError struct {
	pm  int
	err error
}

func (e *agentDownError) Error() string {
	return fmt.Sprintf("testbed: agent %d down: %v", e.pm, e.err)
}

func (e *agentDownError) Unwrap() error { return e.err }

// NewController assembles a controller. The cluster's PMs must match
// the agents one-to-one by id and carry the simulator's CPU group
// (sim.DefaultCPUGroup); jobs must have valid leases (sim.Schedule).
func NewController(cfg Config, cluster *placement.Cluster, placer placement.Placer,
	evictor placement.Evictor, conns map[int]Conn, jobs []Job) (*Controller, error) {
	if cluster == nil || placer == nil || evictor == nil {
		return nil, errors.New("testbed: cluster, placer and evictor are required")
	}
	cfg = cfg.withDefaults()
	if cfg.Steps < 0 {
		return nil, fmt.Errorf("testbed: negative Steps %d", cfg.Steps)
	}
	for _, pm := range cluster.PMs() {
		if _, ok := conns[pm.ID]; !ok {
			return nil, fmt.Errorf("testbed: no agent connection for pm %d", pm.ID)
		}
		if pm.Shape.GroupIndex(sim.DefaultCPUGroup) < 0 {
			return nil, fmt.Errorf("testbed: pm %d has no group %q", pm.ID, sim.DefaultCPUGroup)
		}
	}
	arrives, departs, err := sim.Schedule(jobs, cfg.Steps)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:     cfg,
		cluster: cluster,
		placer:  placer,
		evictor: evictor,
		conns:   conns,
		traces:  make(map[int]trace.Series, len(jobs)),
		arrives: arrives,
		departs: departs,
		met:     newControllerMetrics(cfg.Obs),
		pms:     append([]*placement.PM(nil), cluster.PMs()...),
		seqs:    make(map[int]uint64, len(conns)),
		dead:    make(map[int]bool),
	}
	for _, j := range jobs {
		if _, dup := c.traces[j.VM.ID]; dup {
			return nil, fmt.Errorf("testbed: duplicate job id %d", j.VM.ID)
		}
		c.traces[j.VM.ID] = j.Trace
	}
	return c, nil
}

// DeadAgents returns the ids of agents declared dead, sorted.
func (c *Controller) DeadAgents() []int {
	ids := make([]int, 0, len(c.dead))
	for id := range c.dead {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Run drives the experiment and shuts the agents down afterwards.
// Shutdown is best-effort and runs on every exit path, so a failed
// round never leaks live agent goroutines.
func (c *Controller) Run() (Result, error) {
	var res Result
	defer c.shutdown()
	rec := c.cfg.Recorder.Active()
	var runStart time.Time
	if rec {
		runStart = time.Now()
	}
	for step := 0; step < c.cfg.Steps; step++ {
		var roundStart time.Time
		if rec {
			roundStart = time.Now()
		}
		if err := c.round(step, &res); err != nil {
			return res, err
		}
		if rec {
			c.cfg.Recorder.RecordSpan("testbed.round", time.Since(roundStart).Nanoseconds(),
				map[string]string{"step": strconv.Itoa(step)})
		}
	}
	if rec {
		c.cfg.Recorder.RecordSpan("testbed.run", time.Since(runStart).Nanoseconds(),
			map[string]string{"steps": strconv.Itoa(c.cfg.Steps)})
	}
	res.PMsUsed = c.cluster.MaxUsed
	if res.ActivePMSteps > 0 {
		res.SLOViolationPct = 100 * float64(res.ViolatedPMSteps) / float64(res.ActivePMSteps)
	}
	return res, nil
}

func (c *Controller) round(step int, res *Result) error {
	// Departures then arrivals, mirroring the simulator's order.
	for _, id := range c.departs[step] {
		pm, placed := c.cluster.Locate(id)
		if !placed {
			continue // rejected at arrival, or lost
		}
		if _, err := c.cluster.Release(id); err != nil {
			return err
		}
		// The job was departing anyway; a dead agent here only orphans
		// the PM's other jobs.
		if err := c.kill(pm, id); err != nil && !c.recoverIfDown(err, res) {
			return err
		}
	}
	for _, vm := range c.arrives[step] {
		pm, assign, err := c.placer.Place(c.cluster, vm, nil)
		if errors.Is(err, placement.ErrNoCapacity) {
			res.Rejected++
			continue
		}
		if err != nil {
			return fmt.Errorf("testbed: place job %d: %w", vm.ID, err)
		}
		// Recovery re-places the arriving job together with the dead
		// agent's other mirror VMs.
		if err := c.startOn(pm, vm, assign); err != nil && !c.recoverIfDown(err, res) {
			return err
		}
	}

	// Tick every active agent and react to the reported loads.
	active := append([]*placement.PM(nil), c.cluster.UsedPMs()...)
	for _, pm := range active {
		if c.dead[pm.ID] || !pm.Active() {
			continue
		}
		status, err := c.tick(pm, step)
		if err == nil {
			err = c.handleStatus(pm, status, res)
		}
		if err != nil && !c.recoverIfDown(err, res) {
			return err
		}
	}
	return nil
}

// handleStatus applies the simulator's monitoring rule (sim.Classify at
// sim.DefaultOverloadThreshold) to one agent's reported load and, on
// overload, moves one victim. One victim per round keeps the control
// loop simple; a still-overloaded PM is handled again next round.
func (c *Controller) handleStatus(pm *placement.PM, status *Status, res *Result) error {
	gi := pm.Shape.GroupIndex(sim.DefaultCPUGroup)
	lo, hi := pm.Shape.GroupRange(gi)
	res.ActivePMSteps++
	_, violated, over := sim.Classify(status.Load[lo:hi], lo, float64(pm.Shape.Group(gi).Cap), sim.DefaultOverloadThreshold, c.over[:0])
	c.over = over
	if violated {
		res.ViolatedPMSteps++
	}
	if len(over) == 0 {
		return nil
	}
	res.OverloadEvents++
	victimID, ok := c.evictor.SelectVictim(pm, over)
	if !ok {
		return nil
	}
	if _, hosted := pm.Get(victimID); !hosted {
		// The evictor named a job this PM does not host: skip the move
		// rather than kill a job we cannot restart.
		return nil
	}
	return c.migrate(pm, victimID, res)
}

// migrate kills a job on its agent and continues it elsewhere — the
// paper's testbed migration — through placement.Cluster.Migrate, whose
// accept issues the remote start. With no destination, or one that
// refuses or dies, the job restarts on src with its original
// assignment, in the mirror and on the agent.
func (c *Controller) migrate(src *placement.PM, jobID int, res *Result) error {
	if err := c.kill(src, jobID); err != nil {
		// A dead source's recovery re-places the job with its others.
		if c.recoverIfDown(err, res) {
			return nil
		}
		return err
	}
	var startErr error
	h, dest, _ := c.cluster.Migrate(c.placer, jobID, func(h placement.Hosted, dest *placement.PM, assign resource.Assignment) bool {
		startErr = c.start(dest, h.VM, assign)
		return startErr == nil
	})
	if dest != nil {
		res.Migrations++
		c.met.migrations.Inc()
		return nil
	}
	res.FailedMoves++
	c.met.failedMoves.Inc()
	if err := c.start(src, h.VM, h.Assign); err != nil && !c.recoverIfDown(err, res) {
		_, _ = c.cluster.Release(jobID) // the source refused its own job back
		return err
	}
	c.recoverIfDown(startErr, res) // a destination that died mid-move
	return nil
}

// recoverIfDown converts an agent-down error into recovery (and
// reports true); any other error is the caller's to propagate.
func (c *Controller) recoverIfDown(err error, res *Result) bool {
	var down *agentDownError
	if !errors.As(err, &down) {
		return false
	}
	c.recoverAgent(down, res)
	return true
}

// recoverAgent handles a dead agent: its mirror VMs are released, the
// PM is retired, and the orphaned jobs are re-placed onto surviving
// PMs via the configured placer (Algorithm 2 under PageRankVM).
func (c *Controller) recoverAgent(down *agentDownError, res *Result) {
	c.replaceVMs(c.markDead(down.pm, res), res)
}

// markDead declares pm's agent dead: the conn is closed (fencing the
// agent if it is merely slow), the mirror VMs are released and the PM
// is retired from the cluster. Returns the orphaned VMs in ascending
// id order; nil if the agent was already dead.
func (c *Controller) markDead(pmID int, res *Result) []*placement.VM {
	if c.dead[pmID] {
		return nil
	}
	c.dead[pmID] = true
	res.DeadAgents++
	c.met.deadAgents.Inc()
	_ = c.conns[pmID].Close()
	var pm *placement.PM
	for _, p := range c.pms {
		if p.ID == pmID {
			pm = p
			break
		}
	}
	if pm == nil {
		return nil
	}
	orphans := make([]*placement.VM, 0, pm.NumVMs())
	for _, id := range pm.VMIDs() {
		h, err := c.cluster.Release(id)
		if err != nil {
			continue
		}
		orphans = append(orphans, h.VM)
	}
	_ = c.cluster.Retire(pm)
	return orphans
}

// replaceVMs re-places orphaned jobs onto surviving PMs, counting each
// success as Recovered and each failure as Lost. A destination agent
// dying mid-recovery enqueues its own orphans.
func (c *Controller) replaceVMs(queue []*placement.VM, res *Result) {
	for len(queue) > 0 {
		vm := queue[0]
		queue = queue[1:]
		pm, assign, err := c.placer.Place(c.cluster, vm, nil)
		if err != nil {
			res.Lost++
			c.met.lostJobs.Inc()
			continue
		}
		if err := c.startOn(pm, vm, assign); err != nil {
			var down *agentDownError
			if errors.As(err, &down) {
				// The destination died too; its orphans (including vm,
				// hosted just before the failed call) rejoin the queue.
				queue = append(queue, c.markDead(down.pm, res)...)
				continue
			}
			// The agent rejected the recovery start: mirror rolled back
			// by startOn, job unrecoverable.
			res.Lost++
			c.met.lostJobs.Inc()
			continue
		}
		res.Recovered++
		c.met.recoveredJobs.Inc()
	}
}

// start asks pm's agent to run vm with assign. A refusal is an error
// that is not an agent death.
func (c *Controller) start(pm *placement.PM, vm *placement.VM, assign resource.Assignment) error {
	reply, err := c.call(pm.ID, Message{Kind: KindStart, Job: &JobSpec{
		ID:     vm.ID,
		Assign: assign,
		Trace:  c.traces[vm.ID],
	}})
	if err != nil {
		return err
	}
	if reply.Kind != KindOK {
		return fmt.Errorf("testbed: agent %d rejected job %d: %s", pm.ID, vm.ID, reply.Err)
	}
	return nil
}

// startOn hosts vm on pm in the mirror and starts it on the agent. On a
// refusal the mirror entry is rolled back before returning, so mirror
// and agent never disagree about a job the agent refused.
func (c *Controller) startOn(pm *placement.PM, vm *placement.VM, assign resource.Assignment) error {
	if err := c.cluster.Host(pm, vm, assign); err != nil {
		return fmt.Errorf("testbed: host job %d on pm %d: %w", vm.ID, pm.ID, err)
	}
	err := c.start(pm, vm, assign)
	var down *agentDownError
	if err != nil && !errors.As(err, &down) {
		_, _ = c.cluster.Release(vm.ID)
	}
	return err
}

// kill stops a job on pm's agent; the caller updates the mirror.
func (c *Controller) kill(pm *placement.PM, jobID int) error {
	reply, err := c.call(pm.ID, Message{Kind: KindKill, JobID: jobID})
	if err != nil {
		return err
	}
	if reply.Kind != KindOK {
		return fmt.Errorf("testbed: agent %d kill job %d: %s", pm.ID, jobID, reply.Err)
	}
	return nil
}

// tick asks pm's agent for its load at step. A reply that is not a
// status with one load per dimension of pm's shape is an error.
func (c *Controller) tick(pm *placement.PM, step int) (*Status, error) {
	reply, err := c.call(pm.ID, Message{Kind: KindTick, Step: step})
	if err != nil {
		return nil, err
	}
	if reply.Kind != KindStatus || reply.Status == nil || len(reply.Status.Load) != pm.Shape.NumDims() {
		return nil, fmt.Errorf("testbed: agent %d bad tick reply %v", pm.ID, reply.Kind)
	}
	return reply.Status, nil
}

// call performs one at-most-once request: the message is stamped with
// a per-connection sequence number and retried with exponential
// backoff on transport failure (the agent answers duplicates from its
// reply cache). Exhausted retries return an *agentDownError.
func (c *Controller) call(pmID int, m Message) (Message, error) {
	if c.dead[pmID] {
		return Message{}, &agentDownError{pm: pmID, err: errors.New("agent already dead")}
	}
	conn := c.conns[pmID]
	c.seqs[pmID]++
	m.Seq = c.seqs[pmID]
	retries := opt.OrInt(c.cfg.CallRetries, DefaultCallRetries)
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			c.met.retries.Inc()
			time.Sleep(c.cfg.RetryBackoff << (attempt - 1))
		}
		var reply Message
		reply, err = c.timedRoundTrip(conn, m)
		if err == nil {
			return reply, nil
		}
		c.met.transportErrors.Inc()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			c.met.timeouts.Inc()
		}
	}
	return Message{}, &agentDownError{pm: pmID, err: err}
}

func (c *Controller) timedRoundTrip(conn Conn, m Message) (Message, error) {
	c.met.calls.Inc()
	if c.met.callSeconds == nil {
		return c.roundTrip(conn, m)
	}
	start := time.Now()
	reply, err := c.roundTrip(conn, m)
	c.met.callSeconds.Observe(time.Since(start).Seconds())
	return reply, err
}

// roundTrip sends one request and waits for its reply, arming the
// conn's deadline when CallTimeout is set and discarding stale replies
// left over from abandoned attempts (their Seq is lower).
func (c *Controller) roundTrip(conn Conn, m Message) (Message, error) {
	if c.cfg.CallTimeout > 0 {
		if d, ok := conn.(deadlineSetter); ok {
			_ = d.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
		}
	}
	if err := conn.Send(m); err != nil {
		return Message{}, err
	}
	for {
		reply, err := conn.Recv()
		if err != nil {
			return Message{}, err
		}
		if m.Seq != 0 && reply.Seq < m.Seq {
			continue // stale reply from an earlier timed-out attempt
		}
		return reply, nil
	}
}

// shutdown asks every surviving agent to exit and then closes every
// connection. Best-effort by design: a failed shutdown call only means
// the conn close terminates that agent's loop instead, so Run can
// always invoke it — including on error exits — without leaking agent
// goroutines.
func (c *Controller) shutdown() {
	for _, pm := range c.pms {
		if c.dead[pm.ID] {
			continue
		}
		_, _ = c.call(pm.ID, Message{Kind: KindShutdown})
	}
	for _, conn := range c.conns {
		_ = conn.Close()
	}
}
