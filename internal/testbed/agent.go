package testbed

import (
	"fmt"
	"sort"

	"pagerankvm/internal/resource"
	"pagerankvm/internal/trace"
)

// Agent emulates one PM instance: it hosts jobs, computes its actual
// per-dimension load from their traces on request, and applies
// start/kill commands. It owns its state; the controller only sees
// what the agent reports.
type Agent struct {
	id    int
	shape *resource.Shape
	conn  Conn
	jobs  map[int]JobSpec
	done  chan struct{}

	// lastSeq/lastReply implement at-most-once command execution: a
	// retried request (same Seq as the last one handled) is answered
	// from the cached reply instead of re-executed, so a kill or start
	// whose reply was lost in the network is not applied twice.
	lastSeq   uint64
	lastReply Message
}

// NewAgent builds an agent for one emulated PM.
func NewAgent(id int, shape *resource.Shape, conn Conn) *Agent {
	return &Agent{
		id:    id,
		shape: shape,
		conn:  conn,
		jobs:  make(map[int]JobSpec),
		done:  make(chan struct{}),
	}
}

// Start launches the agent loop in its own goroutine. The loop exits
// on a shutdown message or transport failure; Wait blocks until then.
func (a *Agent) Start() {
	go func() {
		defer close(a.done)
		a.loop()
	}()
}

// Wait blocks until the agent loop has exited.
func (a *Agent) Wait() { <-a.done }

func (a *Agent) loop() {
	for {
		msg, err := a.conn.Recv() //prvmlint:allow deadlinecall — blocks for the next command by design; controller Shutdown or conn Close unblocks it
		if err != nil {
			return
		}
		if msg.Seq != 0 && msg.Seq == a.lastSeq {
			// Duplicate of the last handled request: the reply was lost
			// and the controller retried. Resend the cached reply
			// without re-executing the command.
			a.send(a.lastReply)
			continue
		}
		switch msg.Kind {
		case KindTick:
			a.reply(msg, Message{Kind: KindStatus, Status: a.status(msg.Step)})
		case KindStart:
			if err := a.start(msg.Job); err != nil {
				a.reply(msg, Message{Kind: KindError, Err: err.Error()})
				continue
			}
			a.reply(msg, Message{Kind: KindOK})
		case KindKill:
			if _, ok := a.jobs[msg.JobID]; !ok {
				a.reply(msg, Message{Kind: KindError, Err: fmt.Sprintf("agent %d: no job %d", a.id, msg.JobID)})
				continue
			}
			delete(a.jobs, msg.JobID)
			a.reply(msg, Message{Kind: KindOK})
		case KindShutdown:
			a.reply(msg, Message{Kind: KindOK})
			return
		default:
			a.reply(msg, Message{Kind: KindError, Err: fmt.Sprintf("agent %d: unexpected %v", a.id, msg.Kind)})
		}
	}
}

// reply answers req with m, echoing the request's sequence number and
// caching the reply for duplicate suppression.
func (a *Agent) reply(req Message, m Message) {
	m.Seq = req.Seq
	if req.Seq != 0 {
		a.lastSeq, a.lastReply = req.Seq, m
	}
	a.send(m)
}

func (a *Agent) send(m Message) {
	// A failed reply means the controller is gone; the next Recv will
	// fail and end the loop.
	_ = a.conn.Send(m) //prvmlint:allow deadlinecall — reply on the controller-owned conn; the controller's per-call deadline bounds it
}

// start validates the assignment against local state — capacity and
// per-job anti-collocation — before accepting the job. The controller
// is supposed to send only valid assignments; the agent checking them
// anyway is what catches controller/agent state divergence.
func (a *Agent) start(job *JobSpec) error {
	if job == nil {
		return fmt.Errorf("agent %d: start without job", a.id)
	}
	if _, dup := a.jobs[job.ID]; dup {
		return fmt.Errorf("agent %d: job %d already running", a.id, job.ID)
	}
	used := a.used()
	caps := a.shape.Capacity()
	seen := make(map[int]bool, len(job.Assign))
	for _, du := range job.Assign {
		if du.Dim < 0 || du.Dim >= a.shape.NumDims() {
			return fmt.Errorf("agent %d: job %d dim %d out of range", a.id, job.ID, du.Dim)
		}
		if seen[du.Dim] {
			return fmt.Errorf("agent %d: job %d violates anti-collocation on dim %d", a.id, job.ID, du.Dim)
		}
		seen[du.Dim] = true
		if used[du.Dim]+du.Units > caps[du.Dim] {
			return fmt.Errorf("agent %d: job %d overflows dim %d", a.id, job.ID, du.Dim)
		}
	}
	a.jobs[job.ID] = *job
	return nil
}

// JobIDs returns the ids of the jobs the agent hosts, sorted. Only
// safe once the agent loop has exited (after Wait); tests use it to
// check the controller's mirror against the agent's own state.
func (a *Agent) JobIDs() []int {
	ids := make([]int, 0, len(a.jobs))
	for id := range a.jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// ID returns the agent's PM id.
func (a *Agent) ID() int { return a.id }

func (a *Agent) used() resource.Vec {
	v := a.shape.Zero()
	for _, job := range a.jobs {
		for _, du := range job.Assign {
			v[du.Dim] += du.Units
		}
	}
	return v
}

// status computes the actual load at a step from the hosted jobs'
// traces.
func (a *Agent) status(step int) *Status {
	load := make([]float64, a.shape.NumDims())
	ids := make([]int, 0, len(a.jobs))
	for id := range a.jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	// Accumulate in sorted job order: float addition is not
	// associative, so map-order sums would report a load that differs
	// bit-for-bit between identical runs.
	for _, id := range ids {
		job := a.jobs[id]
		u := trace.Series(job.Trace).At(step)
		for _, du := range job.Assign {
			load[du.Dim] += float64(du.Units) * u
		}
	}
	return &Status{AgentID: a.id, Step: step, Load: load, Jobs: ids}
}
