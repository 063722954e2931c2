package main

import (
	"fmt"
	"math/rand"

	"virtnet/internal/coll"
	"virtnet/internal/hostos"
	"virtnet/internal/mpi"
	"virtnet/internal/sim"
	"virtnet/internal/trace"
)

// arCfg shapes the bulk workload: reps topology-aware ring allreduces of
// a float64 vector of about bytes across every host of one cluster, ranks
// placed by stride. The ring's timing does not depend on the engine's
// random stream, so the seed trims the vector by up to bytes/256: without
// that every seed would simulate the same run.
type arCfg struct {
	hosts, bytes, reps int
	slice              sim.Duration
}

func allreduceWorkload(name string, ref *refKernel, cfg arCfg) workload {
	return workload{name: name, ref: ref, setup: func(seed int64, traced bool, r *round) (*instance, error) {
		return setupAllreduce(cfg, seed, traced, r)
	}}
}

// arInput is rank r's element i in allreduce k. Every input is a small
// integer times (r+1), so the sum over n ranks is exact in float64 and has
// the closed form arBase(i, k) * n(n+1)/2.
func arBase(i, k int) float64 { return float64((i*7+k*3)%13 - 6) }

// stridePlacement puts rank i on host i*stride mod n with stride coprime
// to n, so ring neighbours rarely share a leaf.
func stridePlacement(n int) []int {
	stride := 37
	for gcd(stride, n) != 1 {
		stride++
	}
	pl := make([]int, n)
	for i := range pl {
		pl[i] = i * stride % n
	}
	return pl
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// rankState is one rank's progress. Its proc is its only writer.
type rankState struct {
	start, end []sim.Time // virtual start/end of allreduce k
	done       bool
	bad        int // elements that differed from the closed form
	err        error
}

func setupAllreduce(cfg arCfg, seed int64, traced bool, r *round) (*instance, error) {
	t0 := nanotime()
	cl := hostos.NewCluster(seed, cfg.hosts, hostos.DefaultClusterConfig())
	r.build = nanotime() - t0

	n := cfg.hosts
	placement := stridePlacement(n)
	w, err := mpi.NewWorld(cl, n, placement)
	if err != nil {
		cl.Shutdown()
		return nil, err
	}
	in := &instance{cl: cl, slice: cfg.slice, limit: sim.Duration(cfg.reps) * sim.Second}
	length := (cfg.bytes - rand.New(rand.NewSource(seed)).Intn(cfg.bytes/256+1)) / 8
	tri := float64(n * (n + 1) / 2)
	ranks := make([]*rankState, n)
	trs := make([]*transport, n)
	for i := range ranks {
		ranks[i] = &rankState{start: make([]sim.Time, cfg.reps), end: make([]sim.Time, cfg.reps)}
		trs[i] = &transport{Comm: w.Comm(i), r: r.newProcRec(cl, placement[i], traced)}
	}
	w.Launch(func(p *sim.Proc, cm *mpi.Comm) {
		rank := cm.Rank()
		st, t := ranks[rank], trs[rank]
		vec := make([]float64, length)
		for k := 0; k < cfg.reps; k++ {
			for i := range vec {
				vec[i] = float64(rank+1) * arBase(i, k)
			}
			t.op = uint64(k + 1)
			st.start[k] = p.Now()
			i := t.r.begin(p, cAllreduce, t.op)
			out, err := coll.Allreduce(p, t, vec, mpi.OpSum, coll.Ring)
			t.r.end(p, i, false)
			st.end[k] = p.Now()
			if err == nil && len(out) != length {
				err = fmt.Errorf("result has %d elements, want %d", len(out), length)
			}
			if err != nil {
				st.err = fmt.Errorf("rank %d allreduce %d: %w", rank, k, err)
				return
			}
			for i, v := range out {
				if v != arBase(i, k)*tri {
					st.bad++
				}
			}
		}
		st.done = true
	})

	in.done = func() bool {
		for _, st := range ranks {
			if !st.done && st.err == nil {
				return false
			}
		}
		return true
	}
	in.finish = func(r *round, lat *trace.Hist) error {
		s := &r.sig
		var firstErr error
		for _, st := range ranks {
			if st.err != nil && firstErr == nil {
				firstErr = st.err
			}
		}
		if firstErr != nil {
			return firstErr
		}
		// An op is one allreduce, done when the last rank holds the result;
		// it failed if any rank's result differed from the closed form.
		for k := 0; k < cfg.reps; k++ {
			first, last := ranks[0].start[k], ranks[0].end[k]
			for _, st := range ranks {
				first = min(first, st.start[k])
				last = max(last, st.end[k])
			}
			lat.Observe(last.Sub(first))
			if last > s.SimEnd {
				s.SimEnd = last
			}
		}
		s.Ops = int64(cfg.reps)
		for rank, st := range ranks {
			if st.bad > 0 {
				r.failed = s.Ops
				return fmt.Errorf("rank %d: %d elements differ from the closed-form sum", rank, st.bad)
			}
			s.MPIBytes += w.Comm(rank).BytesSent
		}
		s.Good = s.Ops
		return nil
	}
	return in, nil
}

// transport is the coll.Transport the harness hands to coll.Allreduce: the
// rank's mpi.Comm with a span around each Send and Recv. LeafOfRank is
// promoted from the Comm, so the ring keeps its topology-aware order.
type transport struct {
	*mpi.Comm
	r  *rec
	op uint64 // the allreduce in progress
}

func (t *transport) Send(p *sim.Proc, dst, tag int, data []byte) error {
	if t.r == nil {
		return t.Comm.Send(p, dst, tag, data)
	}
	i := t.r.begin(p, cSend, t.op)
	err := t.Comm.Send(p, dst, tag, data)
	t.r.end(p, i, false)
	return err
}

func (t *transport) Recv(p *sim.Proc, src, tag int) ([]byte, error) {
	if t.r == nil {
		return t.Comm.Recv(p, src, tag)
	}
	i := t.r.begin(p, cRecv, t.op)
	b, err := t.Comm.Recv(p, src, tag)
	t.r.end(p, i, false)
	return b, err
}
