package testbed

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pagerankvm/internal/obs"
	"pagerankvm/internal/opt"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/resource"
)

// assertMirrorAgentsConsistent checks that every surviving agent's own
// job set matches the controller's mirror, and that no job appears on
// two PMs. Call only after Harness.Close (agent state is unsynchronized
// until the loops exit).
func assertMirrorAgentsConsistent(t *testing.T, h *Harness, ctrl *Controller) {
	t.Helper()
	dead := map[int]bool{}
	for _, id := range ctrl.DeadAgents() {
		dead[id] = true
	}
	byPM := map[int][]int{}
	seen := map[int]int{}
	for _, pm := range h.Cluster().PMs() {
		ids := []int{}
		for id := range pm.VMs() {
			ids = append(ids, id)
			seen[id]++
		}
		sort.Ints(ids)
		byPM[pm.ID] = ids
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("job %d on %d PMs", id, n)
		}
	}
	for _, a := range h.Agents() {
		if dead[a.ID()] {
			continue
		}
		want := byPM[a.ID()]
		if want == nil {
			want = []int{}
		}
		got := a.JobIDs()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("agent %d jobs = %v, mirror says %v", a.ID(), got, want)
		}
	}
}

// TestControllerAgentCrashRecovery kills one agent's transport at a
// deterministic point mid-experiment and checks the controller
// re-places its jobs on surviving PMs instead of aborting.
func TestControllerAgentCrashRecovery(t *testing.T) {
	placer, evictor := prvmStack(t)
	h, err := Launch(3, TransportInMemory)
	if err != nil {
		t.Fatal(err)
	}
	// Agent 1's conn dies after 12 operations — mid-run, after its
	// jobs started and a couple of ticks went through.
	h.Conns()[1] = NewFaultConn(h.Conns()[1], FaultConfig{CloseAfter: 12})

	const steps = 8
	var jobs []Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, constJob(i, 1, 0.5, steps, 0, 0))
	}
	ctrl, err := NewController(Config{Steps: steps}, h.Cluster(), placer, evictor, h.Conns(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run()
	if err != nil {
		t.Fatalf("run with crashed agent: %v", err)
	}
	h.Close()

	if res.DeadAgents != 1 {
		t.Fatalf("DeadAgents = %d, want 1 (result %+v)", res.DeadAgents, res)
	}
	if got := ctrl.DeadAgents(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("DeadAgents() = %v, want [1]", got)
	}
	if res.Recovered == 0 {
		t.Fatalf("no jobs recovered: %+v", res)
	}
	if res.Lost != 0 {
		t.Fatalf("Lost = %d, want 0 (3 PMs have capacity for 8 wide jobs)", res.Lost)
	}
	if got := h.Cluster().NumVMs(); got != 8 {
		t.Fatalf("NumVMs = %d, want 8 (no job may vanish)", got)
	}
	if got := len(h.Cluster().PMs()); got != 2 {
		t.Fatalf("inventory = %d PMs, want 2 (dead PM retired)", got)
	}
	assertMirrorAgentsConsistent(t, h, ctrl)
}

// flakySends fails the first N sends of selected message kinds, then
// behaves normally — a transient transport fault targeted at specific
// protocol operations.
type flakySends struct {
	Conn
	remaining map[MsgKind]int
}

func (f *flakySends) Send(m Message) error {
	if n := f.remaining[m.Kind]; n > 0 {
		f.remaining[m.Kind] = n - 1
		return fmt.Errorf("flaky: injected %v send error", m.Kind)
	}
	return f.Conn.Send(m)
}

// TestControllerRetriesKillStart injects transient send failures on
// exactly the kill and start operations; bounded retries must mask
// them, yielding a result identical to the fault-free run.
func TestControllerRetriesKillStart(t *testing.T) {
	const steps = 4
	overloadJobs := func() []Job {
		var jobs []Job
		for i := 0; i < 4; i++ {
			jobs = append(jobs, constJob(i, 1, 1.0, steps, 0, 0))
		}
		return jobs
	}
	run := func(flaky bool, o *obs.Observer) Result {
		placer, evictor := prvmStack(t)
		h, err := Launch(2, TransportInMemory)
		if err != nil {
			t.Fatal(err)
		}
		if flaky {
			for id, conn := range h.Conns() {
				h.Conns()[id] = &flakySends{Conn: conn, remaining: map[MsgKind]int{KindKill: 2, KindStart: 2}}
			}
		}
		ctrl, err := NewController(Config{
			Steps:        steps,
			CallRetries:  opt.I(3),
			RetryBackoff: time.Millisecond,
			Obs:          o,
		}, h.Cluster(), placer, evictor, h.Conns(), overloadJobs())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ctrl.Run()
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
		assertMirrorAgentsConsistent(t, h, ctrl)
		return res
	}
	base := run(false, nil)
	o := obs.New()
	got := run(true, o)
	if got != base {
		t.Fatalf("flaky result %+v differs from fault-free %+v", got, base)
	}
	if base.Migrations == 0 {
		t.Fatal("scenario exercised no kill/start migrations")
	}
	if o.Counter("testbed.retries").Value() == 0 {
		t.Fatal("no retries recorded despite injected send failures")
	}
	if o.Counter("testbed.dead_agents").Value() != 0 {
		t.Fatal("transient faults must not kill agents")
	}
}

// flakyRecv fails every nth receive — the reply-lost case, which
// forces a duplicate request that the agent must answer from its
// dedup cache without re-executing the command.
type flakyRecv struct {
	Conn
	every int
	ops   int
}

func (f *flakyRecv) Recv() (Message, error) {
	f.ops++
	if f.every > 0 && f.ops%f.every == 0 {
		return Message{}, fmt.Errorf("flaky: injected recv error")
	}
	return f.Conn.Recv()
}

// TestControllerRetriesLostReplies drops replies (recv errors) across
// the whole run; at-most-once retries must keep the result identical
// to the fault-free run.
func TestControllerRetriesLostReplies(t *testing.T) {
	const steps = 4
	run := func(every int) Result {
		placer, evictor := prvmStack(t)
		h, err := Launch(2, TransportInMemory)
		if err != nil {
			t.Fatal(err)
		}
		if every > 0 {
			for id, conn := range h.Conns() {
				h.Conns()[id] = &flakyRecv{Conn: conn, every: every}
			}
		}
		var jobs []Job
		for i := 0; i < 4; i++ {
			jobs = append(jobs, constJob(i, 1, 1.0, steps, 0, 0))
		}
		ctrl, err := NewController(Config{
			Steps:        steps,
			CallRetries:  opt.I(3),
			RetryBackoff: time.Millisecond,
		}, h.Cluster(), placer, evictor, h.Conns(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ctrl.Run()
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
		assertMirrorAgentsConsistent(t, h, ctrl)
		return res
	}
	base := run(0)
	for _, every := range []int{5, 7} {
		if got := run(every); got != base {
			t.Fatalf("recv-fail every %d: result %+v differs from fault-free %+v", every, got, base)
		}
	}
}

// TestControllerLostJobAccounting drives the failed-migration restart
// path, also with a victim the placer can no longer place anywhere,
// and checks the job restarts on its source with its original
// assignment instead of being lost.
func TestControllerLostJobAccounting(t *testing.T) {
	placer, evictor := prvmStack(t)
	h, err := Launch(1, TransportInMemory)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		constJob(0, 1, 1.0, 4, 0, 0),
		constJob(1, 1, 1.0, 4, 0, 0),
		constJob(2, 1, 1.0, 4, 0, 0),
		constJob(3, 1, 1.0, 4, 0, 0),
	}
	ctrl, err := NewController(Config{Steps: 4}, h.Cluster(), placer, evictor, h.Conns(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	// Round 0: the packed PM overloads, the victim has nowhere to go
	// (single PM) and restarts on the source.
	if err := ctrl.round(0, &res); err != nil {
		t.Fatal(err)
	}
	if res.FailedMoves != 1 || res.Lost != 0 {
		t.Fatalf("round 0: FailedMoves=%d Lost=%d, want 1/0", res.FailedMoves, res.Lost)
	}
	if got := h.Cluster().NumVMs(); got != 4 {
		t.Fatalf("round 0: NumVMs = %d, want 4 (victim restarted on source)", got)
	}
	// Without a demand entry for the PM type, Place cannot produce an
	// assignment after the kill; the move still restores the one the
	// job held.
	before := assignments(h.Cluster())
	for i := range jobs {
		delete(jobs[i].VM.Req, PMType)
	}
	if err := ctrl.round(1, &res); err != nil {
		t.Fatal(err)
	}
	if res.FailedMoves != 2 || res.Lost != 0 {
		t.Fatalf("round 1: FailedMoves=%d Lost=%d, want 2/0 (victim restored on source)", res.FailedMoves, res.Lost)
	}
	if after := assignments(h.Cluster()); !reflect.DeepEqual(after, before) {
		t.Fatalf("round 1: assignments %v, want %v unchanged", after, before)
	}
	ctrl.shutdown()
	h.Close()
	assertMirrorAgentsConsistent(t, h, ctrl)
}

// assignments maps every placed job to "pm assignment".
func assignments(c *placement.Cluster) map[int]string {
	m := map[int]string{}
	for _, pm := range c.PMs() {
		for _, h := range pm.HostedVMs() {
			m[h.VM.ID] = fmt.Sprint(pm.ID, h.Assign)
		}
	}
	return m
}

// refuseStarts answers every start request itself with a refusal, so
// the agent behind it never sees one.
type refuseStarts struct {
	Conn
	refusal *Message
}

func (r *refuseStarts) Send(m Message) error {
	if m.Kind == KindStart {
		r.refusal = &Message{Kind: KindError, Seq: m.Seq, Err: "refused"}
		return nil
	}
	return r.Conn.Send(m)
}

func (r *refuseStarts) Recv() (Message, error) {
	if m := r.refusal; m != nil {
		r.refusal = nil
		return *m, nil
	}
	return r.Conn.Recv()
}

// recordStarts keeps every start request sent through it.
type recordStarts struct {
	Conn
	starts []JobSpec
}

func (r *recordStarts) Send(m Message) error {
	if m.Kind == KindStart {
		r.starts = append(r.starts, *m.Job)
	}
	return r.Conn.Send(m)
}

// TestControllerRefusedMigrationStart has the only possible
// destination refuse a migration start: the run goes on, and the job
// is back on its source with its original assignment, in the mirror
// and on the agent.
func TestControllerRefusedMigrationStart(t *testing.T) {
	placer, evictor := prvmStack(t)
	h, err := Launch(2, TransportInMemory)
	if err != nil {
		t.Fatal(err)
	}
	src := &recordStarts{Conn: h.Conns()[0]}
	h.Conns()[0] = src
	h.Conns()[1] = &refuseStarts{Conn: h.Conns()[1]}
	// Four wide jobs at full heat pack PM 0 to 4.0 > 3.6 per core.
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, constJob(i, 1, 1.0, 1, 0, 0))
	}
	ctrl, err := NewController(Config{Steps: 1}, h.Cluster(), placer, evictor, h.Conns(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run()
	if err != nil {
		t.Fatalf("a refused migration start aborted the run: %v", err)
	}
	h.Close()
	if res.FailedMoves != 1 || res.Migrations != 0 || res.Lost != 0 {
		t.Fatalf("result %+v, want one failed move, no migration, nothing lost", res)
	}
	if len(src.starts) != 5 {
		t.Fatalf("pm 0 saw %d starts, want 4 arrivals and 1 restore", len(src.starts))
	}
	restore := src.starts[4]
	first := src.starts[restore.ID]
	if first.ID != restore.ID || !reflect.DeepEqual(first.Assign, restore.Assign) {
		t.Fatalf("job %d restarted with %v, arrived with %v", restore.ID, restore.Assign, first.Assign)
	}
	pm, _ := h.Cluster().Locate(restore.ID)
	if held, _ := pm.Get(restore.ID); pm.ID != 0 || !reflect.DeepEqual([]resource.DimUnits(held.Assign), restore.Assign) {
		t.Fatalf("mirror holds job %d on pm %d with %v, want pm 0 with %v", restore.ID, pm.ID, held.Assign, restore.Assign)
	}
	assertMirrorAgentsConsistent(t, h, ctrl)
}

// shortLoads truncates every status reply's load vector.
type shortLoads struct{ Conn }

func (s shortLoads) Recv() (Message, error) {
	m, err := s.Conn.Recv()
	if m.Status != nil {
		m.Status.Load = m.Status.Load[:1]
	}
	return m, err
}

// TestControllerShortLoadReply checks a status whose load vector is
// shorter than the PM's shape is a bad reply, not an index panic.
func TestControllerShortLoadReply(t *testing.T) {
	placer, evictor := prvmStack(t)
	h, err := Launch(1, TransportInMemory)
	if err != nil {
		t.Fatal(err)
	}
	h.Conns()[0] = shortLoads{h.Conns()[0]}
	ctrl, err := NewController(Config{Steps: 2}, h.Cluster(), placer, evictor, h.Conns(), []Job{constJob(0, 1, 0.5, 2, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Run(); err == nil || !strings.Contains(err.Error(), "bad tick reply") {
		t.Fatalf("Run = %v, want a bad tick reply error", err)
	}
	h.Close()
}

// bogusEvictor names a victim the overloaded PM does not host.
type bogusEvictor struct{}

func (bogusEvictor) Name() string { return "bogus" }
func (bogusEvictor) SelectVictim(pm *placement.PM, overloaded []int) (int, bool) {
	return 9999, true
}

// TestControllerUnknownVictimGuard checks an evictor returning an
// unknown job id is survived: no kill, no panic, no lost job.
func TestControllerUnknownVictimGuard(t *testing.T) {
	placer, _ := prvmStack(t)
	h, err := Launch(1, TransportInMemory)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 3
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, constJob(i, 1, 1.0, steps, 0, 0))
	}
	ctrl, err := NewController(Config{Steps: steps}, h.Cluster(), placer, bogusEvictor{}, h.Conns(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if res.Lost != 0 || res.Migrations != 0 {
		t.Fatalf("unknown victim must be a no-op, got %+v", res)
	}
	if got := h.Cluster().NumVMs(); got != 4 {
		t.Fatalf("NumVMs = %d, want 4", got)
	}
}

// TestControllerShutdownOnRoundError checks a fatal round error still
// shuts the agents down — Harness.Close would hang forever on leaked
// agent loops otherwise.
func TestControllerShutdownOnRoundError(t *testing.T) {
	placer, evictor := prvmStack(t)
	h, err := Launch(2, TransportInMemory)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{constJob(0, 0, 0.5, 4, 0, 0)}
	// Agents that refuse every start make the first arrival fail
	// fatally.
	for id, conn := range h.Conns() {
		h.Conns()[id] = &refuseStarts{Conn: conn}
	}
	ctrl, err := NewController(Config{Steps: 4}, h.Cluster(), placer, evictor, h.Conns(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Run(); err == nil {
		t.Fatal("expected a fatal round error")
	}
	done := make(chan struct{})
	go func() {
		h.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Harness.Close hung: agents leaked after a failed round")
	}
}

// TestFaultToleranceOffPath checks that enabling the fault-tolerance
// knobs without any fault changes nothing: the result is identical to
// the default deterministic seeded run.
func TestFaultToleranceOffPath(t *testing.T) {
	const steps = 30
	run := func(cfg Config) Result {
		placer, evictor := prvmStack(t)
		jobs, err := GenJobs(NewJobVM, JobConfig{NumJobs: 20, Steps: steps, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Steps = steps
		h, err := Launch(2, TransportInMemory)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := NewController(cfg, h.Cluster(), placer, evictor, h.Conns(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ctrl.Run()
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
		return res
	}
	base := run(Config{})
	tuned := run(Config{
		CallTimeout:  time.Second,
		CallRetries:  opt.I(5),
		RetryBackoff: time.Millisecond,
	})
	if base != tuned {
		t.Fatalf("fault-tolerance knobs changed a fault-free run:\nbase  %+v\ntuned %+v", base, tuned)
	}
}
