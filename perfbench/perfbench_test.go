package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"virtnet/internal/sim"
	"virtnet/internal/trace"
)

// tiny holds each workload at a scale that runs in well under a second.
var tiny = []workload{
	streamWorkload("stream16", smallRef, streamCfg{hosts: 16, pairs: 2, msgs: 50, think: sim.Microsecond, slice: 100 * sim.Microsecond}),
	streamWorkload("cluster1024", largeRef, streamCfg{hosts: 64, pairs: 32, msgs: 4, scaled: true, slice: 20 * sim.Microsecond}),
	kvWorkload("serve-kv", largeRef, kvCfg{hosts: 64, shards: 2, servers: 8, clients: 8, factor: 1.5,
		warmup: 2 * sim.Millisecond, window: 5 * sim.Millisecond, slice: sim.Millisecond}),
	allreduceWorkload("allreduce-bulk", largeRef, arCfg{hosts: 5, bytes: 64 << 10, reps: 2, slice: sim.Millisecond}),
}

// TestTinyWorkloads runs every workload untraced and traced on one seed:
// both rounds must pass their output checks and simulate identically, and
// the traced round's span accounting must fit inside the measured time.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range tiny {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runRound(w, 3, false)
			if err != nil {
				t.Fatalf("untraced round: %v", err)
			}
			traced, err := runRound(w, 3, true)
			if err != nil {
				t.Fatalf("traced round: %v", err)
			}
			if plain.failed != 0 || traced.failed != 0 {
				t.Fatalf("failed ops: %d untraced, %d traced", plain.failed, traced.failed)
			}
			if plain.sig != traced.sig {
				t.Fatalf("traced round simulated differently:\n  %+v\n  %+v", traced.sig, plain.sig)
			}
			if plain.sig.Ops == 0 || plain.sig.Samples == 0 || plain.sig.SimEnd == 0 {
				t.Fatalf("empty round: %+v", plain.sig)
			}
			if len(traced.recs) == 0 {
				t.Fatal("traced round recorded no spans")
			}
			m, err := layerMetrics([]*round{plain}, []*round{traced})
			if err != nil {
				t.Fatal(err)
			}
			if f := m["sim.internal_host_frac"].Value; f < -0.01 || f > 1 {
				t.Fatalf("sim.internal_host_frac = %v, want within [0, 1]", f)
			}
		})
	}
}

// TestSeedReachesSimulation checks that two seeds simulate different runs:
// the benchmark's runs on different seeds must not read the same.
func TestSeedReachesSimulation(t *testing.T) {
	for _, w := range tiny {
		t.Run(w.name, func(t *testing.T) {
			a, err := runRound(w, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runRound(w, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			if a.sig.SimEnd == b.sig.SimEnd && a.sig.P50 == b.sig.P50 && a.sig.P99 == b.sig.P99 {
				t.Fatalf("seeds 1 and 2 simulated the same timing: %+v", a.sig)
			}
		})
	}
}

// TestFailedCheckFailsRun checks that an output check that fails makes the
// run incorrect.
func TestFailedCheckFailsRun(t *testing.T) {
	w := tiny[0]
	setup := w.setup
	w.setup = func(seed int64, traced bool, r *round) (*instance, error) {
		in, err := setup(seed, traced, r)
		if err != nil {
			return nil, err
		}
		in.finish = func(r *round, lat *trace.Hist) error {
			r.failed = 1
			return errors.New("injected")
		}
		return in, nil
	}
	res, err := run(w, 1, time.Millisecond, false, os.Stdout)
	if err == nil || res == nil || res.Correct {
		t.Fatalf("run = %+v, %v; want an incorrect result and an error", res, err)
	}
}

// TestBenchmarkJSONMatches checks that ../BENCHMARK.json declares exactly
// the workloads this program runs and the metrics, with their units, that
// it prints with -trace 0 and -trace 1.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []decl
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Name != tiny[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	plain, err := runRound(tiny[0], 1, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runRound(tiny[0], 1, true)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := layerMetrics([]*round{plain}, []*round{traced})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind  string
		decls []decl
		got   map[string]metric
	}{{"end_to_end", spec.EndToEnd, endToEnd([]*round{plain})}, {"per_layer", spec.PerLayer, lm}} {
		if len(c.decls) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", c.kind, len(c.decls), len(c.got))
		}
		for _, d := range c.decls {
			if m, ok := c.got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s [%s] declared, program prints %+v (present %v)", c.kind, d.Name, d.Unit, m, ok)
			}
		}
	}
}
