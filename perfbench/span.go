package main

import (
	"time"

	"virtnet/internal/sim"
)

// layer is a module the harness calls into. Spans are named after the call
// and charged to the layer that implements it.
type layer uint8

const (
	lHarness layer = iota // the benchmark's own proc code between calls
	lCore
	lServe
	lColl
	lMPI
	lProc
	nLayers
)

var layerNames = [nLayers]string{"harness", "core", "serve", "coll", "mpi", "proc"}

// call is one kind of harness call into a layer.
type call uint8

const (
	cRequest   call = iota // core.Endpoint.Request
	cPoll                  // core.Endpoint.Poll
	cHandler               // the harness's AM handler body, run inside Poll
	cReply                 // core.Token.Reply
	cSleep                 // sim.Proc.Sleep in a harness poll loop
	cRunClient             // serve.RunClient
	cIssue                 // serve.Workload.Issue
	cSPoll                 // serve.Workload.Poll
	cTryWait               // serve.Req.TryWait
	cAllreduce             // coll.Allreduce
	cSend                  // mpi.Comm.Send through coll.Transport
	cRecv                  // mpi.Comm.Recv through coll.Transport
	nCalls
)

var callInfo = [nCalls]struct {
	name  string
	layer layer
}{
	{"core.Request", lCore},
	{"core.Poll", lCore},
	{"harness.handler", lHarness},
	{"core.Reply", lCore},
	{"proc.Sleep", lProc},
	{"serve.RunClient", lServe},
	{"serve.Issue", lServe},
	{"serve.Poll", lServe},
	{"serve.TryWait", lServe},
	{"coll.Allreduce", lColl},
	{"mpi.Send", lMPI},
	{"mpi.Recv", lMPI},
}

// span is one harness call. Spans of one op share op (0 for calls that
// serve no single op, such as a poll). parent indexes the enclosing span of
// the same proc, or is -1.
type span struct {
	call    call
	hit     bool // Poll/TryWait found work
	blocked bool // the engine fired events during the call: the proc yielded
	parent  int32
	op      uint64
	start   int64 // host ns since epoch
	end     int64
	vstart  sim.Time
	vend    sim.Time
	fired0  uint64
	self    int64 // host ns in which this span was innermost and the proc ran
}

var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// rec records the spans of one simulated proc. Only that proc touches it
// while the cluster runs, so procs on different shards never share one.
//
// Self time is taken from outside: at every span boundary the recorder
// reads the host clock and its shard engine's fired-event count. Between two
// boundaries where the count did not move, no event fired, so the proc ran
// alone and the host time between them is its own; it is charged to the
// innermost open span (or to the harness when none is open). An interval in
// which events fired contains the engine and other procs, and is left to
// the simulator's internal share. A nil *rec records nothing: the untraced
// run calls every layer directly.
type rec struct {
	e     *sim.Engine
	shard int

	spans []span
	stack []int32

	started   bool
	lastNs    int64
	lastFired uint64
	self      [nLayers]int64
}

func newRec(e *sim.Engine, shard int) *rec { return &rec{e: e, shard: shard} }

func (r *rec) mark() int64 {
	now := nanotime()
	f := r.e.Stats().Fired
	if r.started && f == r.lastFired {
		d := now - r.lastNs
		if n := len(r.stack); n > 0 {
			s := &r.spans[r.stack[n-1]]
			s.self += d
			r.self[callInfo[s.call].layer] += d
		} else {
			r.self[lHarness] += d
		}
	}
	r.started = true
	r.lastNs, r.lastFired = now, f
	return now
}

func (r *rec) begin(p *sim.Proc, c call, op uint64) int32 {
	if r == nil {
		return -1
	}
	now := r.mark()
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{call: c, parent: parent, op: op, start: now, vstart: p.Now(), fired0: r.lastFired})
	i := int32(len(r.spans) - 1)
	r.stack = append(r.stack, i)
	return i
}

func (r *rec) end(p *sim.Proc, i int32, hit bool) {
	if r == nil {
		return
	}
	now := r.mark()
	s := &r.spans[i]
	s.end, s.vend, s.hit = now, p.Now(), hit
	s.blocked = r.lastFired != s.fired0
	r.stack = r.stack[:len(r.stack)-1]
}

// sleep is the harness's poll-loop sleep.
func (r *rec) sleep(p *sim.Proc, d sim.Duration) {
	if r == nil {
		p.Sleep(d)
		return
	}
	i := r.begin(p, cSleep, 0)
	p.Sleep(d)
	r.end(p, i, false)
}
