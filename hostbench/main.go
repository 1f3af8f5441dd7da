// Command hostbench is the repository's host-cost benchmark. It runs one
// workload — fig3-sim, mesh-real or dist2 — generated from a seed, checks
// the program's outputs, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 9.87, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones (untraced runs); with
// -trace 1 they are the per-layer ones, from separate traced runs. Each layer
// is measured from outside the program, by timing calls into its public
// functions and by a benchmark-owned substrate decorator (probe.go).
//
// Usage (normally through run.py, which builds this command and premad):
//
//	hostbench -workload fig3-sim -seed 1 -seconds 30 -trace 0 [-premad path] [-spans-dir dir]
//
// README.md lists the workloads, their generator parameters and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names one reported metric. The lists below are the contract
// recorded in BENCHMARK.json (hostbench_test.go keeps the two in step).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.switches", "count", "lower"},
	{"sim.engine_s", "s", "lower"},
	{"substrate.send_calls", "count", "lower"},
	{"substrate.send_s", "s", "lower"},
	{"substrate.poll_calls", "count", "lower"},
	{"substrate.poll_s", "s", "lower"},
	{"prema.body_s", "s", "lower"},
	{"ilb.units_run", "count", "higher"},
	{"policy.steal_requests", "count", "lower"},
	{"policy.steal_grants", "count", "higher"},
	{"policy.grant_ratio", "ratio", "higher"},
	{"mol.migrations", "count", "lower"},
	{"mol.forwards", "count", "lower"},
	{"dmcs.sends_per_unit", "msg/unit", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.ns_per_event", "ns", "lower"},
	{"trace.dropped", "count", "lower"},
	{"wire.frames", "count", "lower"},
	{"wire.ns_per_frame", "ns", "lower"},
	{"wire.size_drift", "count", "lower"},
	{"dist.rtt_us", "us", "lower"},
	{"dist.frames_per_s", "1/s", "higher"},
	{"mesh.build_s", "s", "lower"},
	{"mesh.tets", "count", "higher"},
	{"mesh.tets_per_s", "1/s", "higher"},
	{"mesh.alloc_mb", "MB", "lower"},
	{"mesh.sim_none_s", "s", "lower"},
	{"mesh.sim_prema_s", "s", "lower"},
	{"mesh.sim_repartition_s", "s", "lower"},
	{"parmetis.lb_rounds", "count", "lower"},
	{"host.cpu_s", "s", "lower"},
	{"host.alloc_mb", "MB", "lower"},
	{"host.gc_cycles", "count", "lower"},
	{"traced.wall_s", "s", "lower"},
	{"traced.overhead_pct", "%", "lower"},
	{"model.makespan_s", "s", "lower"},
}

// workload is one benchmark scenario: an end-to-end measurement and a
// traced per-layer measurement, both generated from the seed alone.
type workload struct {
	name   string
	e2e    func(c *ctx) error
	layers func(c *ctx) error
}

var workloads = []workload{
	{"fig3-sim", fig3E2E, fig3Layers},
	{"mesh-real", meshE2E, meshLayers},
	{"dist2", distE2E, distLayers},
}

// ctx is one invocation's settings plus the report it accumulates.
type ctx struct {
	seed     int64
	window   time.Duration
	scale    scale
	premad   string
	spansDir string
	log      io.Writer // human-readable lines, printed before the JSON

	metrics   map[string]float64
	attempted int
	failed    int
}

// unitsRun records a measured run of n work units; err != nil (the run
// errored or failed an output check) counts every unit as failed.
func (c *ctx) unitsRun(n int, what string, err error) {
	c.attempted += n
	if err != nil {
		c.failed += n
		fmt.Fprintf(c.log, "FAIL %s: %v\n", what, err)
	}
}

func (c *ctx) set(name string, v float64) { c.metrics[name] = v }

func (c *ctx) logf(format string, args ...any) { fmt.Fprintf(c.log, format+"\n", args...) }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig3-sim, mesh-real or dist2")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measurement window in seconds (end-to-end runs)")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics from untraced runs, 1 = per-layer metrics from traced runs")
	premad := fs.String("premad", "", "premad node daemon binary (dist2)")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its span log to (empty = none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "hostbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "hostbench: unknown workload %q\n", *name)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "hostbench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "hostbench: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	if wl.name == "dist2" && *premad == "" {
		fmt.Fprintln(stderr, "hostbench: dist2 needs -premad")
		return 2
	}
	c := &ctx{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		scale:    fullScale,
		premad:   *premad,
		spansDir: *spansDir,
		log:      stdout,
		metrics:  map[string]float64{},
	}
	res, err := measureWorkload(c, *wl, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// measureWorkload runs one workload and assembles the result for the
// requested metric set. Every metric of the set is present; a layer the
// workload does not exercise reads 0. An error means the benchmark itself
// could not run, as opposed to the program failing its checks.
func measureWorkload(c *ctx, wl workload, traced bool) (*result, error) {
	defs, measure := endToEnd, wl.e2e
	if traced {
		defs, measure = perLayer, wl.layers
	}
	if err := measure(c); err != nil {
		return nil, err
	}
	if c.attempted == 0 {
		return nil, fmt.Errorf("%s: no work units attempted", wl.name)
	}
	res := &result{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = jsonMetric{Value: c.metrics[d.name], Unit: d.unit}
	}
	var extra []string
	for k := range c.metrics {
		if _, ok := res.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("%s: metrics outside the declared set: %v", wl.name, extra)
	}
	c.logf("%s seed=%d trace=%v attempted=%d failed=%d fail_frac=%g",
		wl.name, c.seed, traced, c.attempted, c.failed, float64(c.failed)/float64(c.attempted))
	for _, d := range defs {
		c.logf("metric %-24s %16.6g %s", d.name, c.metrics[d.name], d.unit)
	}
	return res, nil
}
