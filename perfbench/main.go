// Command perfbench measures what the virtnet simulator costs on the host.
//
// It runs one workload for a fixed host-time budget as repeated rounds. A
// round builds a fresh cluster from the seed, runs every op to completion
// and checks the outputs. With -trace 0 it prints the end-to-end metrics,
// with host times scaled by a reference kernel (ref.go); with -trace 1 it
// alternates untraced rounds with rounds that record a span around every
// harness call into core, serve, coll and mpi, checks that both kinds
// simulate identically, and prints the per-layer metrics. The last line of standard output is one JSON object.
//
//	go run . -workload stream16 -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"virtnet/internal/sim"
)

// workloads are the benchmark's scenarios at full size; README.md gives
// why each was chosen. Slices are small next to each run's virtual length
// so a round stops soon after its last op completes.
var workloads = []workload{
	// Per-message host cost: proc switches, the core/nic small-message path.
	streamWorkload("stream16", smallRef,
		streamCfg{hosts: 16, pairs: 8, msgs: 2000, think: sim.Microsecond, slice: 100 * sim.Microsecond}),
	// 1,024 idle sleep-pollers: engine and wakeup cost.
	streamWorkload("cluster1024", largeRef,
		streamCfg{hosts: 1024, pairs: 512, msgs: 6, scaled: true, slice: 20 * sim.Microsecond}),
	// Cross-shard barriers and the rpc/reliab/serve good and shed paths.
	kvWorkload("serve-kv", largeRef,
		kvCfg{hosts: 256, shards: 2, servers: 32, clients: 64, factor: 1.5,
			warmup: 20 * sim.Millisecond, window: 60 * sim.Millisecond, slice: sim.Millisecond}),
	// The bulk 8 KB-fragment path through mpi and coll.
	allreduceWorkload("allreduce-bulk", largeRef,
		arCfg{hosts: 25, bytes: 1 << 20, reps: 4, slice: sim.Millisecond}),
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run, or all: every workload, untraced then traced")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 10, "host seconds to spend on rounds (at least one round of each kind runs)")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced rounds")
	flag.Parse()
	// One P: a proc handoff is then a goroutine switch on one thread, with
	// no idle P to wake and no work stealing. On a 2-core host that is both
	// faster and far steadier than the default, even for serve-kv's two
	// shards, and every round measures the same serial work.
	runtime.GOMAXPROCS(1)
	todo, kinds := workloads, []bool{false, true}
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q; one of: all", *name)
			for _, w := range workloads {
				fmt.Fprintf(os.Stderr, " %s", w.name)
			}
			fmt.Fprintln(os.Stderr)
			os.Exit(2)
		}
		todo, kinds = []workload{w}, []bool{*traced == 1}
	}
	budget := time.Duration(*seconds * float64(time.Second))
	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range todo {
		for _, tr := range kinds {
			res, err := run(w, *seed, budget, tr, os.Stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for k, m := range res.Metrics {
				if len(todo) > 1 {
					k = w.name + "/" + k
				}
				total.Metrics[k] = m
			}
		}
	}
	out, _ := json.Marshal(total) // a map of plain numbers always marshals
	fmt.Println(string(out))
	if !total.Correct {
		os.Exit(1)
	}
}

// run executes rounds of w until budget is spent and reports its metrics.
// A failed check yields a result with Correct false, and the error.
func run(w workload, seed int64, budget time.Duration, traced bool, log io.Writer) (*result, error) {
	// A first round warms the heap, caches and code paths. It is checked
	// and must simulate like every other round, but it is not measured.
	warm, err := runRound(w, seed, false)
	if err != nil {
		return failed(), err
	}
	t0 := time.Now()
	var plain, tr []*round
	for len(plain) == 0 || (traced && len(tr) == 0) || time.Since(t0) < budget {
		kindTraced := traced && len(tr) < len(plain)
		r, err := runRound(w, seed, kindTraced)
		if err != nil {
			return failed(), err
		}
		// Fidelity: every round of a seed simulates the same thing, whether
		// or not spans were recorded.
		if r.sig != warm.sig {
			return failed(), fmt.Errorf("round %d (traced=%v) simulated differently from the warm-up round:\n  %+v\n  %+v",
				len(plain)+len(tr), kindTraced, r.sig, warm.sig)
		}
		if kindTraced {
			tr = append(tr, r)
		} else {
			plain = append(plain, r)
		}
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range append(plain, tr...) {
		res.Attempted += r.sig.Ops
		res.Failed += r.failed
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if traced {
		lm, err := layerMetrics(plain, tr)
		if err != nil {
			res.Correct = false
			return res, err
		}
		res.Metrics = lm
		if err := writeSpans(w.name, tr[len(tr)-1]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	} else {
		res.Metrics = endToEnd(plain)
	}
	printMetrics(log, w, seed, plain, tr, res.Metrics)
	return res, nil
}

func failed() *result {
	return &result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
}

// median returns the median of f over rounds.
func median(rs []*round, f func(*round) float64) float64 {
	v := sorted(rs, f)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// lowerQuartile returns the lower quartile of f over rounds. Host times
// use it: interference from other tenants only ever adds time, and a
// workload may suffer more of it than its reference kernel does, so rounds
// in a quiet spell scale most faithfully.
func lowerQuartile(rs []*round, f func(*round) float64) float64 {
	v := sorted(rs, f)
	return v[(len(v)-1)/4]
}

func sorted(rs []*round, f func(*round) float64) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	sort.Float64s(v)
	return v
}

func ms(d sim.Duration) float64 { return float64(d) / float64(sim.Millisecond) }

// endToEnd is the user-visible metric set: host cost per op, set-up time,
// memory, and the simulated results that must not move. Host times are
// scaled to the nominal host (ref.go) and taken as a lower quartile over
// rounds; the rest are medians.
func endToEnd(rs []*round) map[string]metric {
	s := rs[0].sig
	ops := float64(s.Ops)
	return map[string]metric{
		"host_us_per_op":     {lowerQuartile(rs, func(r *round) float64 { return r.scale(r.run) / 1e3 / ops }), "us"},
		"setup_s":            {lowerQuartile(rs, func(r *round) float64 { return r.scale(r.setup) / 1e9 }), "s"},
		"allocs_per_op":      {median(rs, func(r *round) float64 { return float64(r.mallocs) / ops }), "count"},
		"alloc_bytes_per_op": {median(rs, func(r *round) float64 { return float64(r.allocBytes) / ops }), "B"},
		"heap_peak_mb":       {median(rs, func(r *round) float64 { return float64(r.heapPeak) / (1 << 20) }), "MiB"},
		"good_frac":          {float64(s.Good) / ops, "frac"},
		"sim_time_ms":        {ms(sim.Duration(s.SimEnd)), "ms"},
		"sim_p50_ms":         {ms(s.P50), "ms"},
		"sim_p99_ms":         {ms(s.P99), "ms"},
	}
}

func printMetrics(log io.Writer, w workload, seed int64, plain, tr []*round, m map[string]metric) {
	s := plain[0].sig
	fmt.Fprintf(log, "# %s seed=%d: %d untraced and %d traced rounds of %d ops; %d latency samples\n",
		w.name, seed, len(plain), len(tr), s.Ops, s.Samples)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "%-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	v := sorted(plain, func(r *round) float64 { return r.scale(r.run) / 1e3 / float64(s.Ops) })
	fmt.Fprintf(log, "# host_us_per_op over untraced rounds: min %.4g, quartiles %.4g %.4g %.4g, max %.4g\n",
		v[0], v[len(v)/4], v[len(v)/2], v[3*len(v)/4], v[len(v)-1])
	if len(tr) > 0 {
		fmt.Fprintf(log, "# spans of traced round 0:\n")
		for _, l := range callTable(tr[0]) {
			fmt.Fprintln(log, l)
		}
	}
}

// writeSpans writes a traced round's spans as Chrome trace events (one
// track per proc, host-time axis) to .bench_build/perfbench/, capped so a
// long run stays small.
func writeSpans(name string, r *round) error {
	const maxSpans = 100_000
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var evs []ev
	for tid, rc := range r.recs {
		for i, s := range rc.spans {
			if len(evs) == maxSpans {
				break
			}
			if s.end == 0 {
				continue // still open when the round ended
			}
			evs = append(evs, ev{
				Name: callInfo[s.call].name, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: rc.shard, Tid: tid,
				Args: map[string]any{
					"id": i, "parent": s.parent, "op": s.op, "blocked": s.blocked,
					"self_ns": s.self, "vstart_ns": int64(s.vstart), "vwait_ns": int64(s.vend - s.vstart),
				},
			})
		}
	}
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+name+".json"), b, 0o644)
}
