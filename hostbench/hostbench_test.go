package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"prema/internal/bench"
)

// tinyScale runs every workload's code path in seconds.
var tinyScale = scale{
	fig3Procs: 8, fig3UPP: 4, layerReps: 1,
	meshIters: 1, meshJobs: 1,
	distProcs: 4, distUPP: 4, distTimeScale: 1e-5,
	pingRounds:  10,
	setupProbes: 2,
}

var premadPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hostbench-test")
	if err != nil {
		panic(err)
	}
	premadPath = filepath.Join(dir, "premad")
	build := exec.Command("go", "build", "-o", premadPath, "prema/cmd/premad")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := build.Run(); err == nil {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in main.go and the
// contract in BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, main.go %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, main.go %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, main.go %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, main.go %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func (d *metricDef) UnmarshalJSON(b []byte) error {
	var v struct{ Name, Unit, Better string }
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*d = metricDef{v.Name, v.Unit, v.Better}
	return nil
}

// TestProbeIsObservational runs fig3-sim undecorated, under the timing-only
// probe and under the span probe: all three must report the same digest,
// and the span probe's split must sum to its wall time exactly.
func TestProbeIsObservational(t *testing.T) {
	w := fig3Workload(7, 8, 4)
	plain, err := bench.RunPremaOn(simMachine(w), w, premaConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPrema(plain, w, true); err != nil {
		t.Fatal(err)
	}
	want := digest(plain)
	for _, spans := range []bool{false, true} {
		p := newProbe(time.Now(), simMachine(w), spans, true)
		res, err := bench.RunPremaOn(p, w, premaConfig())
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(res); got != want {
			t.Errorf("spans=%v: digest %s, undecorated %s", spans, got, want)
		}
		if res.Events != plain.Events {
			t.Errorf("spans=%v: %d events, undecorated %d", spans, res.Events, plain.Events)
		}
		if !spans {
			continue
		}
		sp := p.split()
		if sum := sp.engine + sp.body + sp.send + sp.poll; sum != sp.wall {
			t.Errorf("split sums to %v, wall %v", sum, sp.wall)
		}
		if sp.calls[opSend] == 0 || sp.blocked == 0 || sp.body <= 0 {
			t.Errorf("split recorded nothing: %+v", sp)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload end to end and
// traced at tinyScale: every declared metric must be present with its
// unit, and every output check must pass.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			c := &ctx{
				seed:     3,
				window:   time.Nanosecond,
				scale:    tinyScale,
				premad:   premadPath,
				spansDir: t.TempDir(),
				log:      io.Discard,
				metrics:  map[string]float64{},
			}
			res, err := measureWorkload(c, wl, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", wl.name, traced, d.name, m, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
