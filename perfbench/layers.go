package main

import (
	"fmt"
	"sort"
)

// callStats aggregates one call kind's finished spans over a round.
type callStats struct {
	n, blocked, hits int64
	freeNs           int64 // host ns summed over calls that did not block
	blockedNs        int64 // host ns summed over calls that blocked
	selfNs           int64
}

func (c callStats) blockFrac() float64 { return ratio(float64(c.blocked), float64(c.n)) }
func (c callStats) hitFrac() float64   { return ratio(float64(c.hits), float64(c.n)) }

// hostNs is the mean host ns of calls that did not block. A call that
// blocked yielded to the engine, so its host duration includes other
// procs' work; it is kept out of this mean.
func (c callStats) hostNs() float64 { return ratio(float64(c.freeNs), float64(c.n-c.blocked)) }

// wallNs is the mean host ns of calls that blocked: the proc's own work in
// the call plus the engine and every proc that ran while it was parked.
func (c callStats) wallNs() float64 { return ratio(float64(c.blockedNs), float64(c.blocked)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanStats folds a traced round's spans by call kind, and its self time
// by layer and shard.
func spanStats(r *round) (calls [nCalls]callStats, self [nLayers]int64, perShard []int64) {
	perShard = make([]int64, r.shards)
	for _, rc := range r.recs {
		for _, s := range rc.spans {
			if s.end == 0 {
				continue // still open when the round ended
			}
			c := &calls[s.call]
			c.n++
			c.selfNs += s.self
			if s.hit {
				c.hits++
			}
			if s.blocked {
				c.blocked++
				c.blockedNs += s.end - s.start
			} else {
				c.freeNs += s.end - s.start
			}
		}
		for l, ns := range rc.self {
			self[l] += ns
			perShard[rc.shard] += ns
		}
	}
	return
}

// layerMetrics derives the per-layer metrics. Counts come from the
// simulated signature (identical in every round) and from the spans of the
// traced rounds; host times are medians over rounds. It fails when the
// spans' self time exceeds the host time measured around RunFor on any
// shard: the harness's share plus the simulator's internal share must
// account for the measured time.
func layerMetrics(plain, tr []*round) (map[string]metric, error) {
	s := plain[0].sig
	ops := float64(s.Ops)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("sim.events_per_op", float64(s.Engine.Fired)/ops, "count")
	put("sim.cancel_frac", ratio(float64(s.Engine.Cancelled), float64(s.Engine.Scheduled)), "frac")
	put("sim.max_pending", float64(s.Engine.MaxPending), "count")
	put("sim.pool_hit_frac", ratio(float64(s.Engine.PoolHits), float64(s.Engine.PoolHits+s.Engine.PoolMisses)), "frac")
	put("sim.barriers_per_op", float64(s.Barriers)/ops, "count")
	put("sim.exchanged_per_op", float64(s.Exchanged)/ops, "count")
	put("nic.tx_data_per_op", float64(s.NIC.TxData)/ops, "count")
	put("nic.acks_per_op", float64(s.NIC.TxAck)/ops, "count")
	put("nic.retrans_frac", ratio(float64(s.NIC.Retrans), float64(s.NIC.TxData)), "frac")
	put("nic.wrr_rounds_per_op", float64(s.NIC.WRRRounds)/ops, "count")
	put("nic.tx_bytes_per_op", float64(s.NIC.TxBytes)/ops, "B")
	put("netsim.pkts_per_op", float64(s.NetSent)/ops, "count")
	put("netsim.drop_frac", ratio(float64(s.NetDropped), float64(s.NetSent)), "frac")
	put("reliab.retries_per_op", float64(s.Retries)/ops, "count")
	put("reliab.shed_frac", ratio(float64(s.SrvRefused), float64(s.ServerOps+s.SrvRefused)), "frac")
	put("rpc.server_ops_per_op", float64(s.ServerOps)/ops, "count")
	put("mpi.bytes_per_op", float64(s.MPIBytes)/ops, "B")

	put("hostos.build_s", median(plain, func(r *round) float64 { return float64(r.build) / 1e9 }), "s")
	put("core.attach_s", median(plain, func(r *round) float64 { return float64(r.attach) / 1e9 }), "s")
	put("hostos.shutdown_s", median(plain, func(r *round) float64 { return float64(r.shutdown) / 1e9 }), "s")
	put("runtime.gc_cycles_per_kop", median(plain, func(r *round) float64 { return float64(r.gcCycles) * 1e3 / ops }), "count")
	put("runtime.gc_pause_ms", median(plain, func(r *round) float64 { return float64(r.gcPause) / 1e6 }), "ms")
	put("runtime.goroutines_peak", median(plain, func(r *round) float64 { return float64(r.goroutinesPeak) }), "count")

	hostPerOp := func(r *round) float64 { return float64(r.run) / ops }
	put("host.raw_us_per_op", median(plain, hostPerOp)/1e3, "us")
	put("host.ref_ms", median(plain, func(r *round) float64 { return r.refMean() / 1e6 }), "ms")
	put("trace.overhead_frac", median(tr, hostPerOp)/median(plain, hostPerOp)-1, "frac")

	// Span counts repeat exactly; host-time figures are medians over the
	// traced rounds.
	calls, _, _ := spanStats(tr[0])
	put("proc.sleeps_per_op", float64(calls[cSleep].n)/ops, "count")
	put("core.request_block_frac", calls[cRequest].blockFrac(), "frac")
	put("core.poll_calls_per_op", float64(calls[cPoll].n)/ops, "count")
	put("core.poll_hit_frac", calls[cPoll].hitFrac(), "frac")
	put("serve.issue_block_frac", calls[cIssue].blockFrac(), "frac")
	put("serve.poll_calls_per_op", float64(calls[cSPoll].n)/ops, "count")
	put("serve.trywait_calls_per_op", float64(calls[cTryWait].n)/ops, "count")
	put("serve.trywait_hit_frac", calls[cTryWait].hitFrac(), "frac")
	put("mpi.send_block_frac", calls[cSend].blockFrac(), "frac")
	put("mpi.recv_block_frac", calls[cRecv].blockFrac(), "frac")
	put("mpi.send_calls_per_op", float64(calls[cSend].n)/ops, "count")

	// Every core, serve and mpi call below charges a virtual overhead by
	// sleeping, so it always blocks: its mean is over blocked calls (wall).
	// The handler body and TryWait never yield: their mean is over free
	// calls (host).
	perCall := []struct {
		name string
		c    call
		f    func(callStats) float64
	}{
		{"core.request_wall_ns", cRequest, callStats.wallNs},
		{"core.poll_wall_ns", cPoll, callStats.wallNs},
		{"core.reply_wall_ns", cReply, callStats.wallNs},
		{"harness.handler_host_ns", cHandler, callStats.hostNs},
		{"serve.issue_wall_ns", cIssue, callStats.wallNs},
		{"serve.poll_wall_ns", cSPoll, callStats.wallNs},
		{"serve.trywait_host_ns", cTryWait, callStats.hostNs},
		{"mpi.send_wall_ns", cSend, callStats.wallNs},
		{"mpi.recv_wall_ns", cRecv, callStats.wallNs},
	}
	for _, pc := range perCall {
		put(pc.name, median(tr, func(r *round) float64 { cs, _, _ := spanStats(r); return pc.f(cs[pc.c]) }), "ns")
	}

	// Self time: the host time each layer ran with no event fired, as a
	// share of the host time all shards spent inside RunFor. A proc.Sleep
	// always yields at once, so proc has none.
	for l := layer(0); l < nLayers; l++ {
		if l == lProc {
			continue
		}
		put(layerNames[l]+".self_frac", median(tr, func(r *round) float64 {
			_, self, _ := spanStats(r)
			return float64(self[l]) / float64(int64(r.shards)*r.run)
		}), "frac")
	}
	for i, r := range tr {
		_, _, perShard := spanStats(r)
		for sh, ns := range perShard {
			if float64(ns) > 1.01*float64(r.run) {
				return nil, fmt.Errorf("traced round %d: spans on shard %d ran %d ns, more than the %d ns measured inside RunFor",
					i, sh, ns, r.run)
			}
		}
	}
	put("sim.internal_host_frac", median(tr, func(r *round) float64 {
		_, self, _ := spanStats(r)
		var covered int64
		for _, ns := range self {
			covered += ns
		}
		return 1 - float64(covered)/float64(int64(r.shards)*r.run)
	}), "frac")
	return m, nil
}

// callTable renders per-call span statistics of a traced round, for the
// human-readable part of the output.
func callTable(r *round) []string {
	calls, _, _ := spanStats(r)
	var lines []string
	for c := call(0); c < nCalls; c++ {
		cs := calls[c]
		if cs.n == 0 {
			continue
		}
		lines = append(lines, fmt.Sprintf("  %-16s calls=%-9d blocked=%.3f free_ns=%.0f blocked_wall_ns=%.0f self_ns_per_call=%.0f",
			callInfo[c].name, cs.n, cs.blockFrac(), cs.hostNs(), cs.wallNs(), ratio(float64(cs.selfNs), float64(cs.n))))
	}
	sort.Strings(lines)
	return lines
}
