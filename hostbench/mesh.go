package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"prema/internal/bench"
	"prema/internal/mesh"
	"prema/internal/substrate"
)

// meshInputs is the generated input of the mesh-real workload: the
// experiment configuration and the subdomain geometry the cost matrix must
// cover.
type meshInputs struct {
	cfg  bench.MeshExpConfig
	subs []mesh.Box
}

// meshGenerate builds the mesh experiment's inputs from the seed: the
// default 32-processor, 8x4x4-subdomain experiment with the real
// advancing-front mesher, over the experiment's 2x1x1 domain. The seed
// drives the simulated systems' randomized decisions; the mesher itself is
// deterministic.
func meshGenerate(seed int64, iters int) meshInputs {
	cfg := bench.DefaultMeshExpConfig()
	cfg.UseMesher = true
	cfg.Iterations = iters
	cfg.Seed = seed
	domain := mesh.Box{Hi: mesh.Vec3{X: 2, Y: 1, Z: 1}}
	return meshInputs{cfg: cfg, subs: mesh.Decompose(domain, cfg.Grid[0], cfg.Grid[1], cfg.Grid[2])}
}

// meshRun is one timed mesh experiment: the cost-matrix build, then each of
// the three regimes over it.
type meshRun struct {
	costs   *bench.MeshCosts
	build   time.Duration
	allocMB float64
	systems []time.Duration // ordered as bench.MeshSystems
	results []*bench.Result
}

func meshRunOnce(in meshInputs, jobs int) (*meshRun, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	mr := &meshRun{costs: bench.BuildMeshCostsJobs(in.cfg, jobs)}
	mr.build = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	mr.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	for _, sys := range bench.MeshSystems {
		t0 := time.Now()
		res, err := bench.RunMeshSystem(sys, in.cfg, mr.costs)
		mr.systems = append(mr.systems, time.Since(t0))
		if err != nil {
			return nil, err
		}
		mr.results = append(mr.results, res)
	}
	return mr, nil
}

// units is the number of (iteration, subdomain) work units one regime runs.
func (in meshInputs) units() int { return in.cfg.Iterations * in.cfg.NumSubdomains() }

// check verifies the mesh run's outputs: the cost matrix covers exactly the
// generated subdomains with positive element counts, and in every regime
// the machine-wide compute equals the matrix's total work, so every
// (iteration, subdomain) unit was charged exactly once.
func (mr *meshRun) check(in meshInputs) error {
	mc := mr.costs
	if len(mc.Subs) != len(in.subs) || len(mc.Tets) != in.cfg.Iterations {
		return fmt.Errorf("cost matrix %dx%d, want %dx%d", len(mc.Tets), len(mc.Subs), in.cfg.Iterations, len(in.subs))
	}
	for i, b := range mc.Subs {
		if b != in.subs[i] {
			return fmt.Errorf("subdomain %d is %v, want %v", i, b, in.subs[i])
		}
	}
	for it, row := range mc.Tets {
		for s, n := range row {
			if n <= 0 {
				return fmt.Errorf("iteration %d subdomain %d meshed %v tets", it, s, n)
			}
		}
	}
	want := mc.TotalWork(in.cfg)
	for i, res := range mr.results {
		var got substrate.Time
		for p := range res.Accounts {
			got += res.Accounts[p][substrate.CatCompute]
		}
		if got != want {
			return fmt.Errorf("%s: compute %v, want total work %v", bench.MeshSystems[i], got, want)
		}
		if res.Makespan <= 0 {
			return fmt.Errorf("%s: no makespan", bench.MeshSystems[i])
		}
	}
	return nil
}

func (mr *meshRun) tets() float64 {
	var n float64
	for _, row := range mr.costs.Tets {
		for _, t := range row {
			n += t
		}
	}
	return n
}

// digest fingerprints all three regimes' outputs.
func (mr *meshRun) digest() string {
	var s string
	for _, r := range mr.results {
		s += digest(r)
	}
	return s
}

// meshE2E measures mesh-real end to end: set-up is input generation; the
// measured phase is the cost-matrix build plus the three regimes.
func meshE2E(c *ctx) error {
	s := c.scale
	var setups, walls []float64
	for i := 0; i < s.setupProbes; i++ {
		t0 := time.Now()
		meshGenerate(c.seed, s.meshIters)
		setups = append(setups, time.Since(t0).Seconds())
	}
	var ref string
	var rss rssPeaks
	var rssErr error
	measureReps(c.window, func() {
		resetErr := rss.reset()
		t0 := time.Now()
		in := meshGenerate(c.seed, s.meshIters)
		setup := time.Since(t0)
		mr, err := meshRunOnce(in, s.meshJobs)
		wall := time.Since(t0) - setup
		if rssErr == nil {
			rssErr = errors.Join(resetErr, rss.sample())
		}
		if err == nil {
			err = mr.check(in)
		}
		if err == nil {
			if ref == "" {
				ref = mr.digest()
				c.logf("mesh-real makespans none=%.6fs prema=%.6fs repartition=%.6fs digest=%s",
					mr.results[0].Makespan.Seconds(), mr.results[1].Makespan.Seconds(), mr.results[2].Makespan.Seconds(), ref)
			} else if d := mr.digest(); d != ref {
				err = fmt.Errorf("repeat run digest %s differs from %s", d, ref)
			}
		}
		c.unitsRun(len(bench.MeshSystems)*in.units(), "mesh-real run", err)
		setups = append(setups, setup.Seconds())
		walls = append(walls, wall.Seconds())
	})
	if rssErr != nil {
		return fmt.Errorf("peak resident set: %w", rssErr)
	}
	c.reportMedian("wall_s", walls)
	c.reportMedian("setup_s", setups)
	c.reportMedian("peak_rss_mb", rss.mb)
	return nil
}

// meshLayers is the traced mesh-real run: one experiment with each public
// entry point timed. The drivers build their own simulators, so the
// substrate, PREMA-stack and trace layers are not probed here.
func meshLayers(c *ctx) error {
	s := c.scale
	before := readHost()
	in := meshGenerate(c.seed, s.meshIters)
	mr, err := meshRunOnce(in, s.meshJobs)
	if err == nil {
		err = mr.check(in)
	}
	c.unitsRun(len(bench.MeshSystems)*in.units(), "mesh-real run", err)
	if err != nil {
		return nil
	}
	c.setHost(before)
	c.set("mesh.build_s", mr.build.Seconds())
	c.set("mesh.tets", mr.tets())
	c.set("mesh.tets_per_s", ratio(mr.tets(), mr.build.Seconds()))
	c.set("mesh.alloc_mb", mr.allocMB)
	c.set("mesh.sim_none_s", mr.systems[0].Seconds())
	c.set("mesh.sim_prema_s", mr.systems[1].Seconds())
	c.set("mesh.sim_repartition_s", mr.systems[2].Seconds())
	c.set("parmetis.lb_rounds", float64(mr.results[2].Counters["lb_rounds"]))
	var events uint64
	var simTime time.Duration
	for i, r := range mr.results {
		events += r.Events
		simTime += mr.systems[i]
	}
	c.set("sim.events", float64(events))
	c.set("sim.ns_per_event", ratio(float64(simTime.Nanoseconds()), float64(events)))
	c.set("model.makespan_s", mr.results[1].Makespan.Seconds())
	c.logf("mesh-real makespans none=%.6fs prema=%.6fs repartition=%.6fs digest=%s",
		mr.results[0].Makespan.Seconds(), mr.results[1].Makespan.Seconds(), mr.results[2].Makespan.Seconds(), mr.digest())
	return nil
}
