package main

import (
	"fmt"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/reliab"
	"virtnet/internal/rpc"
	"virtnet/internal/serve"
	"virtnet/internal/sim"
	"virtnet/internal/trace"
)

// kvCfg shapes the serving workload: sharded KV servers and open-loop
// Poisson clients, wired like the serve experiment's baseline scenario.
type kvCfg struct {
	hosts, shards    int
	servers, clients int
	factor           float64 // offered load over estimated capacity
	warmup, window   sim.Duration
	slice            sim.Duration
}

const (
	kvService  = sim.Millisecond      // per-op server compute
	kvDeadline = 20 * sim.Millisecond // end-to-end SLO deadline
	kvQueue    = 16                   // bounded admission queue
	kvMaxOut   = 48                   // per-client inflight cap
	kvKeys     = 100_000
	kvIdemCap  = 1 << 14
	kvPutFrac  = 0.2
	kvReplicas = 2
)

func kvWorkload(name string, ref *refKernel, cfg kvCfg) workload {
	return workload{name: name, ref: ref, setup: func(seed int64, traced bool, r *round) (*instance, error) {
		return setupKV(cfg, seed, traced, r)
	}}
}

// kvClient is one open-loop client. Its proc is its only writer.
type kvClient struct {
	slo    *serve.SLO
	m      *reliab.Metrics
	done   bool
	doneAt sim.Time
}

func setupKV(cfg kvCfg, seed int64, traced bool, r *round) (*instance, error) {
	ccfg := hostos.DefaultClusterConfig()
	ccfg.Net.HostsPerLeaf = 8
	ccfg.Net.Spines = 4
	ccfg.Net.LeavesPerPod = 16
	ccfg.Net.Cores = 8
	t0 := nanotime()
	cl := hostos.NewShardedCluster(seed, cfg.hosts, cfg.shards, ccfg)
	r.build = nanotime() - t0

	in := &instance{cl: cl, slice: cfg.slice, limit: 10 * (cfg.warmup + cfg.window)}
	// Servers serve until the round's Shutdown kills them.
	never := func() bool { return false }

	ring := serve.NewRing(cfg.servers, 64)
	addrs := make([]serve.Addr, cfg.servers)
	kvs := make([]*serve.KVServer, cfg.servers)
	srvMetrics := make([]*reliab.Metrics, cfg.servers)
	for i := range kvs {
		srvMetrics[i] = reliab.NewMetrics()
		kv, err := serve.NewKVServer(cl.Nodes[i], core.Key(5000+i), serve.KVServerConfig{
			Service: kvService,
			Opts:    rpc.Options{Queue: kvQueue, IdemCap: kvIdemCap, Metrics: srvMetrics[i]},
		})
		if err != nil {
			cl.Shutdown()
			return nil, err
		}
		kvs[i] = kv
		addrs[i] = kv.Addr()
		cl.Nodes[i].Spawn("pb-kv", func(p *sim.Proc) { kv.Serve(p, never) })
	}

	// Capacity in requests/s: a get costs one service time, a put one per
	// replica.
	workPerOp := (1 - kvPutFrac) + kvPutFrac*kvReplicas
	capacity := float64(cfg.servers) * float64(sim.Second) / float64(kvService) / workPerOp
	perClient := capacity * cfg.factor / float64(cfg.clients)
	measureFrom := sim.Time(0).Add(cfg.warmup)
	measureTo := measureFrom.Add(cfg.window)

	clients := make([]*kvClient, cfg.clients)
	for ci := range clients {
		kc := &kvClient{slo: serve.NewSLO(), m: reliab.NewMetrics()}
		clients[ci] = kc
		host := cfg.servers + ci*(cfg.hosts-cfg.servers)/cfg.clients
		node := cl.Nodes[host]
		rc := r.newProcRec(cl, host, traced)
		arr := serve.NewPoisson(perClient, serve.DeriveRNG(seed, 0x10000+uint64(ci)))
		w, err := serve.NewKVWorkload(node, addrs, serve.KVWorkloadConfig{
			Ring:     ring,
			Keys:     serve.NewUniformKeys(kvKeys, serve.DeriveRNG(seed, 0x20000+uint64(ci))),
			PutFrac:  kvPutFrac,
			Replicas: kvReplicas,
			ValSize:  128,
			IdemPuts: true,
			ClientID: uint64(ci),
		}, rpc.Options{Metrics: kc.m}, serve.DeriveRNG(seed, 0x30000+uint64(ci)))
		if err != nil {
			cl.Shutdown()
			return nil, err
		}
		var sw serve.Workload = w
		if rc != nil {
			sw = &tracedWorkload{w: w, r: rc, client: uint64(ci)}
		}
		node.Spawn("pb-client", func(p *sim.Proc) {
			i := rc.begin(p, cRunClient, 0)
			serve.RunClient(p, sw, serve.ClientConfig{
				Arr:         arr,
				Deadline:    kvDeadline,
				MaxOut:      kvMaxOut,
				Stop:        measureTo,
				MeasureFrom: measureFrom,
				MeasureTo:   measureTo,
				Drain:       2 * kvDeadline,
			}, kc.slo)
			rc.end(p, i, false)
			kc.done = true
			kc.doneAt = p.Now()
		})
	}

	in.done = func() bool {
		for _, kc := range clients {
			if !kc.done {
				return false
			}
		}
		return true
	}
	in.finish = func(r *round, lat *trace.Hist) error {
		s := &r.sig
		var firstErr error
		for ci, kc := range clients {
			o := kc.slo
			// The SLO classes account for every offered request.
			classes := o.Good + o.Missed + o.Failed + o.Shed + o.Capped
			if classes != o.Offered && firstErr == nil {
				firstErr = fmt.Errorf("client %d: %d offered but %d classified", ci, o.Offered, classes)
			}
			if d := o.Offered - classes; d > 0 {
				r.failed += d
			}
			s.Offered += o.Offered
			s.Issued += o.Issued
			s.Capped += o.Capped
			s.Good += o.Good
			s.Missed += o.Missed
			s.Failed += o.Failed
			s.Shed += o.Shed
			for _, d := range o.Lat.Samples() {
				lat.Observe(d)
			}
			s.Retries += kc.m.Get("retries")
			if kc.doneAt > s.SimEnd {
				s.SimEnd = kc.doneAt
			}
		}
		for i, kv := range kvs {
			s.ServerOps += kv.Gets + kv.Puts
			s.SrvRefused += srvMetrics[i].Get("overload_nacks") + srvMetrics[i].Get("shed")
		}
		s.Ops = s.Offered
		return firstErr
	}
	return in, nil
}

// tracedWorkload wraps serve.Workload and serve.Req with spans. The op id
// of request seq from client c is c<<32 | seq+1.
type tracedWorkload struct {
	w      serve.Workload
	r      *rec
	client uint64
}

func (t *tracedWorkload) Issue(p *sim.Proc, seq uint64, ctx reliab.Ctx) (serve.Req, error) {
	op := t.client<<32 | (seq + 1)
	i := t.r.begin(p, cIssue, op)
	req, err := t.w.Issue(p, seq, ctx)
	t.r.end(p, i, false)
	if err != nil {
		return nil, err
	}
	return &tracedReq{req: req, r: t.r, op: op}, nil
}

func (t *tracedWorkload) Poll(p *sim.Proc) {
	i := t.r.begin(p, cSPoll, 0)
	t.w.Poll(p)
	t.r.end(p, i, false)
}

type tracedReq struct {
	req serve.Req
	r   *rec
	op  uint64
}

func (t *tracedReq) TryWait(p *sim.Proc) (bool, error) {
	i := t.r.begin(p, cTryWait, t.op)
	done, err := t.req.TryWait(p)
	t.r.end(p, i, done)
	return done, err
}

func (t *tracedReq) Abandon() { t.req.Abandon() }
