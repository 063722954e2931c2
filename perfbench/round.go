package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"

	"virtnet/internal/hostos"
	"virtnet/internal/sim"
	"virtnet/internal/trace"
)

// nicTotals sums the NIC firmware counters (Node.NIC.C) over every node.
type nicTotals struct {
	TxData, RxData, TxAck, RxAck, Retrans, TxBytes, WRRRounds int64
}

// simSig is everything a round simulated, read through public getters. It
// is a pure function of the workload and seed: two rounds of one seed, traced
// or not, must produce equal signatures.
type simSig struct {
	Ops, Good int64
	SimEnd    sim.Time
	P50, P99  sim.Duration
	Samples   int

	Engine                   sim.Stats
	Barriers, Exchanged      uint64
	NetSent, NetDelivered    int64
	NetDropped, NetCorrupted int64
	NIC                      nicTotals

	// serve-kv only: the SLO classes and the reliability counters.
	Offered, Issued, Capped, Missed, Failed, Shed int64
	Retries, SrvRefused, ServerOps                int64

	// allreduce-bulk only: bytes handed to mpi.Comm.Send.
	MPIBytes int64
}

// round is one complete run of a workload: set-up, the measured phase to
// completion, and shutdown. Host times are in ns.
type round struct {
	sig    simSig
	failed int64 // ops the simulation lost or got wrong

	build, attach, setup, shutdown int64
	run                            int64 // host time inside Cluster.RunFor
	// refNs sums the host ns of the refN reference kernel samples taken
	// through the round, and refNominal is what one sample takes on the
	// nominal host (ref.go).
	refNs, refN         int64
	refNominal          float64
	mallocs, allocBytes uint64
	heapPeak            uint64
	gcCycles            uint32
	gcPause             uint64
	goroutinesPeak      int

	shards int
	recs   []*rec // traced rounds only
}

// scale converts host ns of this round to ns on the nominal host.
func (r *round) scale(ns int64) float64 { return float64(ns) * r.refNominal / r.refMean() }

// refMean is the mean host ns of the round's reference kernel samples.
func (r *round) refMean() float64 { return float64(r.refNs) / float64(r.refN) }

// sampleRef times one sample of k into r.
func (r *round) sampleRef(k *refKernel) {
	t0 := nanotime()
	k.sample()
	r.refNs += nanotime() - t0
	r.refN++
	r.refNominal = k.nominalNs
}

// instance is a workload set up on a fresh cluster, ready to run.
type instance struct {
	cl    *hostos.Cluster
	slice sim.Duration // virtual time per RunFor call
	// limit is about ten times the virtual time a healthy round needs, so a
	// round that hangs fails within the run's host-time allowance.
	limit sim.Duration
	done  func() bool // read between slices, while every shard is parked
	// finish fills the round's op counts and virtual latencies and checks
	// every output; it returns an error when a check fails.
	finish func(r *round, lat *trace.Hist) error
}

// workload builds one benchmark scenario. setup must time the cluster
// build into r.build; everything else it does counts as attach time. A
// traced setup collects its procs' recorders into r.recs.
type workload struct {
	name  string
	ref   *refKernel // scales the workload's host times (ref.go)
	setup func(seed int64, traced bool, r *round) (*instance, error)
}

// heapInuse reads HeapInuse into s without stopping the world.
func heapInuse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// runRound sets the workload up on a fresh cluster, advances it in small
// virtual slices until the first slice boundary at which every op is done,
// reads the simulated counters, checks the outputs and shuts down.
func runRound(w workload, seed int64, traced bool) (*round, error) {
	runtime.GC()
	r := &round{}
	t0 := nanotime()
	in, err := w.setup(seed, traced, r)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	r.setup = nanotime() - t0
	r.attach = r.setup - r.build
	cl := in.cl
	r.shards = cl.Shards()

	heap := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := cl.Now().Add(in.limit)
	var runErr error
	r.sampleRef(w.ref)
	nextRef := nanotime() + refEveryNs
	for !in.done() {
		if cl.Now() >= deadline {
			runErr = fmt.Errorf("%s: not done after %v of virtual time", w.name, in.limit)
			break
		}
		t := nanotime()
		cl.RunFor(in.slice)
		r.run += nanotime() - t
		if h := heapInuse(heap); h > r.heapPeak {
			r.heapPeak = h
		}
		if g := runtime.NumGoroutine() - refGoroutines; g > r.goroutinesPeak {
			r.goroutinesPeak = g
		}
		if nanotime() >= nextRef {
			r.sampleRef(w.ref)
			nextRef = nanotime() + refEveryNs
		}
	}
	r.sampleRef(w.ref)
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPause = ms1.PauseTotalNs - ms0.PauseTotalNs

	s := &r.sig
	s.Engine = cl.EngineStats()
	if cl.Coord != nil {
		s.Barriers, s.Exchanged = cl.Coord.ExchangeStats()
	}
	s.NetSent, s.NetDelivered, s.NetDropped, s.NetCorrupted = cl.NetTotals()
	for _, n := range cl.Nodes {
		c := n.NIC.C
		s.NIC.TxData += c.Get("tx.data")
		s.NIC.RxData += c.Get("rx.data")
		s.NIC.TxAck += c.Get("tx.ack")
		s.NIC.RxAck += c.Get("rx.ack")
		s.NIC.Retrans += c.Get("tx.retrans")
		s.NIC.TxBytes += c.Get("tx.bytes")
		s.NIC.WRRRounds += c.Get("wrr.rounds")
	}
	if runErr == nil {
		lat := trace.NewHist()
		runErr = in.finish(r, lat)
		s.Samples = lat.Count()
		if s.Samples > 0 {
			s.P50, s.P99 = lat.Quantile(0.50), lat.Quantile(0.99)
		}
	}

	t1 := nanotime()
	cl.Shutdown()
	r.shutdown = nanotime() - t1
	if runErr != nil {
		return nil, runErr
	}
	if s.Ops <= 0 {
		return nil, fmt.Errorf("%s: no ops completed", w.name)
	}
	return r, nil
}

// newProcRec returns a recorder for a proc on node id, collected into
// r.recs, or nil when the round is untraced.
func (r *round) newProcRec(cl *hostos.Cluster, id int, traced bool) *rec {
	if !traced {
		return nil
	}
	rc := newRec(cl.Nodes[id].E, cl.ShardOfNode(id))
	r.recs = append(r.recs, rc)
	return rc
}
