package main

import (
	"fmt"
	"math/rand"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/sim"
	"virtnet/internal/trace"
)

const (
	hReq = 1 // server handler: reply with the request's args
	hRep = 2 // client handler: count the reply
)

// streamCfg shapes a closed-loop AM request/reply stream: each client sends
// msgs requests back to back within its credit window and polls between
// sends; each server sleep-polls its endpoint and replies from the handler.
type streamCfg struct {
	hosts int // cluster size
	pairs int // client/server pairs
	msgs  int // requests per client
	// scaled selects simperf's 1,024-host layout: a three-level fat tree,
	// pair i on hosts (2i, 2i+1) with every fourth lower-half pair's client
	// swapped with its upper-half partner's (~25% cross-leaf). Otherwise
	// servers are hosts 0..pairs-1 and clients the next pairs hosts.
	scaled bool
	// think, when > 0, is the mean of a seeded exponential pause after each
	// send. Without it a 16-host stream settles into the same steady state
	// for every seed, so the seed would never reach the simulated timing.
	think sim.Duration
	slice sim.Duration
}

// place maps pair i to its (server, client) hosts.
func (c streamCfg) place(i int) (srv, cli int) {
	if !c.scaled {
		return i, c.pairs + i
	}
	srv, cli = 2*i, 2*i+1
	half := c.pairs / 2
	if i < half && i%4 == 0 {
		cli = 2*(i+half) + 1
	} else if j := i - half; j >= 0 && j%4 == 0 && j < half {
		cli = 2*j + 1
	}
	return
}

// pairState is one client's view of its stream. The client's proc and its
// reply handler are its only writers.
type pairState struct {
	sent    []sim.Time     // virtual issue time of request s
	rtt     []sim.Duration // virtual issue-to-reply time of request s
	replies []int32        // replies received for request s
	got     int
	done    bool
	doneAt  sim.Time
	err     error
}

func streamWorkload(name string, ref *refKernel, cfg streamCfg) workload {
	return workload{name: name, ref: ref, setup: func(seed int64, traced bool, r *round) (*instance, error) {
		return setupStream(cfg, seed, traced, r)
	}}
}

func setupStream(cfg streamCfg, seed int64, traced bool, r *round) (*instance, error) {
	ccfg := hostos.DefaultClusterConfig()
	if cfg.scaled {
		ccfg.Net.HostsPerLeaf = 8
		ccfg.Net.Spines = 4
		ccfg.Net.LeavesPerPod = 16
		ccfg.Net.Cores = 8
	}
	t0 := nanotime()
	cl := hostos.NewCluster(seed, cfg.hosts, ccfg)
	r.build = nanotime() - t0

	in := &instance{cl: cl, slice: cfg.slice, limit: sim.Duration(cfg.msgs) * sim.Millisecond}
	states := make([]*pairState, cfg.pairs)
	for i := range states {
		st := &pairState{
			sent:    make([]sim.Time, cfg.msgs),
			rtt:     make([]sim.Duration, cfg.msgs),
			replies: make([]int32, cfg.msgs),
		}
		states[i] = st
		srvHost, cliHost := cfg.place(i)
		rs := r.newProcRec(cl, srvHost, traced)
		rc := r.newProcRec(cl, cliHost, traced)

		sep, err := core.Attach(cl.Nodes[srvHost]).NewEndpoint(core.Key(100+i), 8)
		if err != nil {
			cl.Shutdown()
			return nil, err
		}
		cep, err := core.Attach(cl.Nodes[cliHost]).NewEndpoint(core.Key(200+i), 8)
		if err != nil {
			cl.Shutdown()
			return nil, err
		}
		if err := sep.Map(0, cep.Name(), core.Key(200+i)); err != nil {
			cl.Shutdown()
			return nil, err
		}
		if err := cep.Map(0, sep.Name(), core.Key(100+i)); err != nil {
			cl.Shutdown()
			return nil, err
		}
		// Op ids are 1-based and unique across pairs: pair i's request s
		// is op i*msgs+s+1, carried in args[0] through request and reply.
		base := uint64(i * cfg.msgs)

		sep.SetHandler(hReq, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			h := rs.begin(p, cHandler, args[0])
			if err := rs.reply(p, tok, hRep, args); err != nil && st.err == nil {
				st.err = fmt.Errorf("pair %d: reply: %w", i, err)
			}
			rs.end(p, h, false)
		})
		cep.SetHandler(hRep, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			h := rc.begin(p, cHandler, args[0])
			if s := args[0] - base - 1; s < uint64(cfg.msgs) {
				st.replies[s]++
				st.rtt[s] = p.Now().Sub(st.sent[s])
				st.got++
			} else if st.err == nil {
				st.err = fmt.Errorf("pair %d: reply for foreign op %d", i, args[0])
			}
			rc.end(p, h, false)
		})
		cl.Nodes[srvHost].Spawn(fmt.Sprintf("pb-srv%d", i), func(p *sim.Proc) {
			for {
				if rs.poll(p, sep) == 0 {
					rs.sleep(p, sim.Microsecond)
				}
			}
		})
		think := rand.New(rand.NewSource(seed<<16 + int64(i)))
		cl.Nodes[cliHost].Spawn(fmt.Sprintf("pb-cli%d", i), func(p *sim.Proc) {
			for s := 0; s < cfg.msgs; s++ {
				st.sent[s] = p.Now()
				if err := rc.request(p, cep, 0, hReq, [4]uint64{base + uint64(s) + 1}); err != nil {
					st.err = fmt.Errorf("pair %d: request %d: %w", i, s, err)
					return
				}
				rc.poll(p, cep)
				if cfg.think > 0 {
					rc.sleep(p, sim.Duration(think.ExpFloat64()*float64(cfg.think)))
				}
			}
			for st.got < cfg.msgs {
				rc.poll(p, cep)
				rc.sleep(p, sim.Microsecond)
			}
			st.done = true
			st.doneAt = p.Now()
		})
	}

	in.done = func() bool {
		for _, st := range states {
			if !st.done && st.err == nil {
				return false
			}
		}
		return true
	}
	in.finish = func(r *round, lat *trace.Hist) error {
		var firstErr error
		for _, st := range states {
			if st.err != nil && firstErr == nil {
				firstErr = st.err
			}
			if st.doneAt > r.sig.SimEnd {
				r.sig.SimEnd = st.doneAt
			}
			r.sig.Ops += int64(cfg.msgs)
		}
		// Every request gets exactly one reply.
		for _, st := range states {
			for s, n := range st.replies {
				if n == 1 {
					lat.Observe(st.rtt[s])
				} else {
					r.failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("request %d got %d replies", s, n)
					}
				}
			}
		}
		r.sig.Good = r.sig.Ops - r.failed
		return firstErr
	}
	return in, nil
}

// request, poll and reply are the harness's calls into core: direct calls
// when untraced, spans otherwise.
func (r *rec) request(p *sim.Proc, ep *core.Endpoint, idx, h int, args [4]uint64) error {
	if r == nil {
		return ep.Request(p, idx, h, args)
	}
	i := r.begin(p, cRequest, args[0])
	err := ep.Request(p, idx, h, args)
	r.end(p, i, false)
	return err
}

func (r *rec) poll(p *sim.Proc, ep *core.Endpoint) int {
	if r == nil {
		return ep.Poll(p)
	}
	i := r.begin(p, cPoll, 0)
	n := ep.Poll(p)
	r.end(p, i, n > 0)
	return n
}

func (r *rec) reply(p *sim.Proc, tok *core.Token, h int, args [4]uint64) error {
	if r == nil {
		return tok.Reply(p, h, args)
	}
	i := r.begin(p, cReply, args[0])
	err := tok.Reply(p, h, args)
	r.end(p, i, false)
	return err
}
