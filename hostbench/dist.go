package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"prema/internal/bench"
	"prema/internal/dist"
)

const distNodes = 2

// distSpec generates the dist2 session: the Figure 3 scenario at the dist
// shape, prema-implicit, at a time scale small enough that host messaging,
// not the scaled compute sleeps, sets the wall time.
func distSpec(seed int64, s scale) bench.DistSpec {
	spec := bench.NewDistSpec("prema-implicit", fig3Workload(seed, s.distProcs, s.distUPP))
	spec.TimeScale = s.distTimeScale
	return spec
}

func (c *ctx) distOptions() bench.DistOptions {
	return bench.DistOptions{Nodes: distNodes, Listen: "127.0.0.1:0", Premad: c.premad}
}

// emptySession runs a session with no work — two ranks, zero pingpong
// rounds — so its duration is premad spawn, session bring-up to the start
// barrier, and the drain.
func (c *ctx) emptySession() (time.Duration, error) {
	t0 := time.Now()
	spec := bench.NewDistSpec("pingpong", bench.Workload{Procs: 2, Seed: c.seed})
	_, err := bench.RunDist(spec, c.distOptions())
	return time.Since(t0), err
}

// distE2E measures dist2 end to end: repeated sessions of two spawned
// premad nodes through bench.RunDist, each checked for conservation.
func distE2E(c *ctx) error {
	s := c.scale
	var setups, walls []float64
	for i := 0; i < s.setupProbes; i++ {
		d, err := c.emptySession()
		if err != nil {
			return fmt.Errorf("dist2 empty session: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	measureReps(c.window, func() {
		spec := distSpec(c.seed, s)
		t0 := time.Now()
		res, err := bench.RunDist(spec, c.distOptions())
		walls = append(walls, time.Since(t0).Seconds())
		if err == nil {
			err = checkPrema(res, spec.Workload(), false)
		}
		c.unitsRun(spec.Units, "dist2 session", err)
	})
	c.reportMedian("wall_s", walls)
	c.reportMedian("setup_s", setups)
	c.set("peak_rss_mb", childrenPeakRSSMB())
	return nil
}

// inProcessSession runs one dist2 session with the coordinator and both
// nodes hosted in this process through internal/dist's public API, so each
// node's machine can be wrapped in a probe. It returns the merged result,
// the per-node probes and the session wall time.
func inProcessSession(spec bench.DistSpec, spans bool) (*bench.Result, []*probe, time.Duration, error) {
	w := spec.Workload()
	coord, err := dist.Listen(dist.CoordConfig{Listen: "127.0.0.1:0", Nodes: distNodes, Procs: w.Procs})
	if err != nil {
		return nil, nil, 0, err
	}
	mc := dist.DefaultMachineConfig()
	mc.TimeScale = spec.TimeScale
	mc.Seed = w.Seed

	t0 := time.Now()
	probes := make([]*probe, distNodes)
	results := make([]*bench.Result, distNodes)
	errs := make([]error, distNodes)
	var wg sync.WaitGroup
	for i := 0; i < distNodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := dist.Join(dist.NodeConfig{Coord: coord.Addr(), Node: i})
			if err != nil {
				errs[i] = err
				return
			}
			defer n.Close()
			probes[i] = newProbe(t0, n.NewMachine(mc), spans, false)
			if results[i], errs[i] = bench.RunPremaOn(probes[i], w, premaConfig()); errs[i] == nil {
				errs[i] = n.Report(nil)
			}
		}(i)
	}
	sum, cerr := coord.Run(spec.Encode())
	wg.Wait()
	wall := time.Since(t0)
	if cerr != nil {
		return nil, nil, 0, cerr
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, 0, err
		}
	}
	return mergeNodes(w, sum, results), probes, wall, nil
}

// mergeNodes combines the nodes' partial results the way bench.RunDist
// does: ledgers from the coordinator's summary, counters and residency
// summed over nodes.
func mergeNodes(w bench.Workload, sum *dist.Summary, parts []*bench.Result) *bench.Result {
	res := &bench.Result{
		System:   parts[0].System,
		W:        w,
		Makespan: sum.Makespan,
		Accounts: sum.Accounts,
		Counters: map[string]int{},
		Resident: make([]int, w.Procs),
	}
	for _, p := range parts {
		for k, v := range p.Counters {
			res.Counters[k] += v
		}
		for i, n := range p.Resident {
			res.Resident[i] += n
		}
		res.WireFrames += p.WireFrames
		res.WireDrift += p.WireDrift
	}
	return res
}

// distLayers is the traced dist2 run: an untraced and a span-probed
// in-process session, then a pingpong session between two spawned premad
// nodes for the round-trip time. The wire metrics count the frames the
// nodes exchanged; the codec's per-frame cost is priced on fig3-sim, whose
// run moves ~40 times more frames.
func distLayers(c *ctx) error {
	s := c.scale
	spec := distSpec(c.seed, s)
	w := spec.Workload()

	res, _, untraced, err := inProcessSession(spec, false)
	if err == nil {
		err = checkPrema(res, w, false)
	}
	c.unitsRun(w.Units, "dist2 in-process session", err)

	before := readHost()
	res, probes, traced, err := inProcessSession(spec, true)
	if err == nil {
		err = checkPrema(res, w, false)
	}
	c.unitsRun(w.Units, "dist2 span-probed session", err)
	if err == nil {
		c.setHost(before)
		sp := split{wall: traced}
		for _, p := range probes {
			sp.add(p.split())
		}
		c.setSplit(sp, untraced, w.Units)
		if c.spansDir != "" {
			for i, p := range probes {
				if err := p.writeSpans(filepath.Join(c.spansDir, fmt.Sprintf("dist2.node%d.spans", i))); err != nil {
					return err
				}
			}
		}
		c.set("ilb.units_run", float64(res.Counters["units_run"]))
		req, grants := res.Counters["steal_requests"], res.Counters["steal_grants"]
		c.set("policy.steal_requests", float64(req))
		c.set("policy.steal_grants", float64(grants))
		c.set("policy.grant_ratio", ratio(float64(grants), float64(req)))
		c.set("mol.migrations", float64(res.Counters["objects_migrated"]))
		c.set("wire.frames", float64(res.WireFrames))
		c.set("wire.size_drift", float64(res.WireDrift))
		c.set("dist.frames_per_s", ratio(float64(res.WireFrames), traced.Seconds()))
		c.set("model.makespan_s", res.Makespan.Seconds())
		c.logf("dist2 makespan=%.6fs frames=%d untraced session %.6fs, probed session %.6fs",
			res.Makespan.Seconds(), res.WireFrames, untraced.Seconds(), traced.Seconds())
	}

	c.pingpong()
	return nil
}

// pingpong measures the transport round trip between two spawned premad
// nodes: rank 0 bounces pingRounds messages off rank 1 over TCP.
func (c *ctx) pingpong() {
	rounds := c.scale.pingRounds
	spec := bench.NewDistSpec("pingpong", bench.Workload{Procs: 2, Units: rounds, Seed: c.seed})
	res, err := bench.RunDist(spec, c.distOptions())
	if err == nil && res.Counters["pingpong_rounds"] != rounds {
		err = fmt.Errorf("pingpong ran %d rounds, want %d", res.Counters["pingpong_rounds"], rounds)
	}
	if err == nil && res.WireFrames != uint64(2*rounds) {
		err = fmt.Errorf("pingpong moved %d frames, want %d", res.WireFrames, 2*rounds)
	}
	c.unitsRun(rounds, "dist2 pingpong session", err)
	if err == nil {
		c.set("dist.rtt_us", float64(res.Counters["pingpong_ns_total"])/float64(rounds)/1e3)
	}
}
