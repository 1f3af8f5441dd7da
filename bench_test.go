// Benchmarks regenerating every table and figure of the paper's evaluation
// (at 32-processor benchmark scale; run cmd/figures and cmd/meshgen for the
// full 128-processor reproduction), plus microbenchmarks of the substrate
// layers and ablations of the design decisions called out in DESIGN.md §5.
//
// Simulated quantities are reported as custom metrics:
//
//	makespan-s    virtual seconds of overall runtime
//	overhead-pct  runtime overhead as % of useful computation
//	sync-pct      synchronization + partitioning as % of useful computation
package prema_test

import (
	"fmt"
	"testing"

	"prema/internal/bench"
	"prema/internal/charm"
	"prema/internal/dmcs"
	"prema/internal/graph"
	"prema/internal/ilb"
	"prema/internal/mesh"
	"prema/internal/mol"
	"prema/internal/parmetis"
	"prema/internal/partition"
	"prema/internal/sim"
)

const (
	benchProcs = 32
	benchUPP   = 32 // units per processor
)

func report(b *testing.B, r *bench.Result) {
	b.Helper()
	b.ReportMetric(r.Makespan.Seconds(), "makespan-s")
	b.ReportMetric(r.OverheadPct(), "overhead-pct")
	b.ReportMetric(r.SyncPct(), "sync-pct")
}

// benchFigure runs all six system configurations of one paper figure.
func benchFigure(b *testing.B, id int) {
	spec, err := bench.FigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	w := bench.PaperWorkload(spec, benchProcs, benchUPP)
	for _, sys := range bench.SystemNames {
		b.Run(sys, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.RunSystem(sys, w)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
			}
		})
	}
}

// BenchmarkFigure3: 50% initial imbalance, heavy units 2x light.
func BenchmarkFigure3(b *testing.B) { benchFigure(b, 3) }

// BenchmarkFigure4: 10% initial imbalance (localized spike), heavy 2x light.
func BenchmarkFigure4(b *testing.B) { benchFigure(b, 4) }

// BenchmarkFigure5: 50% initial imbalance, heavy 20% over light.
func BenchmarkFigure5(b *testing.B) { benchFigure(b, 5) }

// BenchmarkFigure6: 10% initial imbalance, heavy 20% over light.
func BenchmarkFigure6(b *testing.B) { benchFigure(b, 6) }

// BenchmarkMeshExperiment regenerates the paper's mesh-generation results
// (PREMA vs stop-and-repartition vs none).
func BenchmarkMeshExperiment(b *testing.B) {
	cfg := bench.DefaultMeshExpConfig()
	cfg.Procs = 16
	cfg.Grid = [3]int{8, 4, 2}
	cfg.Iterations = 8
	mc := bench.BuildMeshCosts(cfg)
	for _, sys := range bench.MeshSystems {
		b.Run(sys, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.RunMeshSystem(sys, cfg, mc)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
				b.ReportMetric(r.OverheadOfRuntimePct(), "overhead-of-runtime-pct")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5).

// BenchmarkAblationPollInterval sweeps the implicit-mode polling thread
// period: the paper's preemption mechanism vs its cost.
func BenchmarkAblationPollInterval(b *testing.B) {
	spec, _ := bench.FigureByID(4)
	w := bench.PaperWorkload(spec, benchProcs, benchUPP)
	for _, interval := range []sim.Time{1 * sim.Millisecond, 10 * sim.Millisecond, 100 * sim.Millisecond, sim.Second} {
		b.Run(interval.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := bench.DefaultPremaConfig(ilb.Implicit, true)
				cfg.PollInterval = interval
				r, err := bench.RunPrema(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
			}
		})
	}
}

// BenchmarkAblationPollEvery sweeps how often the application posts polls
// between work units — the lever behind explicit-mode decay (paper §3-4).
func BenchmarkAblationPollEvery(b *testing.B) {
	spec, _ := bench.FigureByID(4)
	w := bench.PaperWorkload(spec, benchProcs, benchUPP)
	for _, every := range []int{1, 4, 8, 32} {
		b.Run(fmt.Sprintf("every%d", every), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := bench.DefaultPremaConfig(ilb.Explicit, true)
				cfg.PollEvery = every
				r, err := bench.RunPrema(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
			}
		})
	}
}

// BenchmarkAblationMaxObjects sweeps how many mobile objects migrate per
// steal grant (paper footnote 2: single coarse object vs several finer ones).
func BenchmarkAblationMaxObjects(b *testing.B) {
	spec, _ := bench.FigureByID(3)
	w := bench.PaperWorkload(spec, benchProcs, benchUPP)
	for _, maxObj := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("objects%d", maxObj), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := bench.DefaultPremaConfig(ilb.Implicit, true)
				cfg.WS.MaxObjects = maxObj
				r, err := bench.RunPrema(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
			}
		})
	}
}

// BenchmarkAblationWaterMark sweeps the explicit-mode water-mark, the
// "cushion" tuning problem of paper §4.1.
func BenchmarkAblationWaterMark(b *testing.B) {
	spec, _ := bench.FigureByID(4)
	w := bench.PaperWorkload(spec, benchProcs, benchUPP)
	for _, wm := range []float64{3, 12, 50, 200} {
		b.Run(fmt.Sprintf("wm%.0f", wm), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := bench.DefaultPremaConfig(ilb.Explicit, true)
				cfg.WaterMark = wm
				r, err := bench.RunPrema(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
			}
		})
	}
}

// BenchmarkAblationHints compares intentionally inaccurate (mean) hints
// against accurate weights for the stop-and-repartition baseline: how much
// of its shortfall is prediction error?
func BenchmarkAblationHints(b *testing.B) {
	spec, _ := bench.FigureByID(3)
	for _, hints := range []bench.HintMode{bench.HintMean, bench.HintAccurate} {
		b.Run(hints.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := bench.PaperWorkload(spec, benchProcs, benchUPP)
				w.Hints = hints
				r, err := bench.RunParmetis(w, bench.DefaultParmetisConfig())
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
			}
		})
	}
}

// BenchmarkAblationCharmStrategy compares the Charm-style central
// strategies under the adaptive (moving spike) regime.
func BenchmarkAblationCharmStrategy(b *testing.B) {
	spec, _ := bench.FigureByID(4)
	w := bench.PaperWorkload(spec, benchProcs, benchUPP)
	strategies := map[string]charm.Strategy{
		"greedy":   charm.GreedyLB{},
		"refine":   charm.RefineLB{},
		"metis":    charm.MetisLB{},
		"rotate":   charm.RotateLB{},
		"randcent": &charm.RandCentLB{Seed: 7},
	}
	for _, name := range []string{"greedy", "refine", "metis", "rotate", "randcent"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := bench.DefaultCharmConfig(4)
				cfg.Strategy = strategies[name]
				r, err := bench.RunCharm(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
			}
		})
	}
}

// BenchmarkAblationURAAlpha sweeps the Relative Cost Factor of the Unified
// Repartitioning Algorithm (paper Eq. 1): edge-cut vs migration volume.
func BenchmarkAblationURAAlpha(b *testing.B) {
	g := graph.Grid3D(16, 16, 4)
	old := partition.Partition(g, 16, partition.Options{Seed: 3})
	for v := 0; v < g.NumVertices(); v++ {
		if v%16 < 4 && (v/16)%16 < 4 {
			g.VWgt[v] = 12
		}
	}
	for _, alpha := range []float64{0.01, 0.1, 1, 100} {
		b.Run(fmt.Sprintf("alpha%g", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := parmetis.DefaultOptions()
				opt.Alpha = alpha
				newPart := parmetis.AdaptiveRepart(g, 16, old, opt)
				b.ReportMetric(float64(graph.EdgeCut(g, newPart)), "edgecut")
				b.ReportMetric(float64(graph.MoveVolume(g, old, newPart)), "movevol")
			}
		})
	}
}

// BenchmarkAblationForwardNotify toggles the MOL's forwarding cache updates
// (DESIGN.md design decision 3: chase the chain vs tell the origin).
func BenchmarkAblationForwardNotify(b *testing.B) {
	for _, notify := range []bool{true, false} {
		b.Run(fmt.Sprintf("notify=%v", notify), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := sim.NewEngine(sim.Config{Seed: 5})
				var forwards int
				// Proc 2 streams messages at an object that keeps migrating
				// between procs 0 and 1.
				for p := 0; p < 3; p++ {
					e.Spawn("p", func(proc *sim.Proc) {
						cfg := mol.DefaultConfig()
						cfg.NotifyOrigin = notify
						l := mol.New(dmcs.New(proc), cfg)
						h := l.RegisterHandler(func(l *mol.Layer, obj *mol.Object, src int, data any, size int) {})
						switch proc.ID() {
						case 0:
							mp := l.Register("obj", 256)
							for round := 0; round < 50; round++ {
								if l.Lookup(mp) != nil {
									l.Migrate(mp, 1)
								}
								proc.WaitMsgFor(20*sim.Millisecond, sim.CatIdle)
								l.Comm().Poll()
							}
							for l.Comm().WaitPollFor(200*sim.Millisecond, sim.CatIdle) > 0 {
							}
							forwards += l.Stats.Forwards
						case 1:
							mp := mol.MobilePtr{Home: 0, Index: 0}
							for round := 0; round < 50; round++ {
								if l.Lookup(mp) != nil {
									l.Migrate(mp, 0)
								}
								proc.WaitMsgFor(20*sim.Millisecond, sim.CatIdle)
								l.Comm().Poll()
							}
							for l.Comm().WaitPollFor(200*sim.Millisecond, sim.CatIdle) > 0 {
							}
							forwards += l.Stats.Forwards
						case 2:
							mp := mol.MobilePtr{Home: 0, Index: 0}
							for round := 0; round < 200; round++ {
								l.Message(mp, h, round, 64)
								proc.Advance(5*sim.Millisecond, sim.CatCompute)
								l.Comm().PollTag(sim.TagSystem)
							}
							for l.Comm().WaitPollFor(200*sim.Millisecond, sim.CatIdle) > 0 {
							}
						}
					})
				}
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(forwards), "forwards")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Substrate microbenchmarks (host performance of the simulator and
// algorithms themselves).

// BenchmarkEngineEvents measures raw event throughput of the simulator.
func BenchmarkEngineEvents(b *testing.B) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	e.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(sim.Microsecond, sim.CatCompute)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkActiveMessage measures simulated AM round trips per host second.
func BenchmarkActiveMessage(b *testing.B) {
	e := sim.NewEngine(sim.Config{Seed: 1})
	e.Spawn("pong", func(p *sim.Proc) {
		c := dmcs.New(p)
		var h dmcs.HandlerID
		h = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
			if data.(int) > 0 {
				c.Send(src, h, data.(int)-1, 8)
			}
		})
		for i := 0; i < b.N; i++ {
			c.WaitPoll(sim.CatIdle)
		}
	})
	e.Spawn("ping", func(p *sim.Proc) {
		c := dmcs.New(p)
		var h dmcs.HandlerID
		h = c.Register(func(c *dmcs.Comm, src int, data any, size int) {
			if data.(int) > 0 {
				c.Send(src, h, data.(int)-1, 8)
			}
		})
		c.Send(0, h, 2*b.N, 8)
		for i := 0; i < b.N; i++ {
			c.WaitPoll(sim.CatIdle)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil && err != sim.ErrDeadlock {
		b.Log(err) // tail messages may strand one poller; irrelevant here
	}
}

// BenchmarkPartitionGrid measures the multilevel partitioner on a 3-D grid.
func BenchmarkPartitionGrid(b *testing.B) {
	g := graph.Grid3D(24, 24, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part := partition.Partition(g, 16, partition.Options{Seed: int64(i)})
		if i == 0 {
			b.ReportMetric(float64(graph.EdgeCut(g, part)), "edgecut")
		}
	}
}

// BenchmarkAdaptiveRepart measures the URA on an imbalanced grid.
func BenchmarkAdaptiveRepart(b *testing.B) {
	g := graph.Grid3D(24, 24, 8)
	old := partition.Partition(g, 16, partition.Options{Seed: 2})
	for v := 0; v < g.NumVertices(); v++ {
		if v%24 < 6 {
			g.VWgt[v] = 10
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parmetis.AdaptiveRepart(g, 16, old, parmetis.DefaultOptions())
	}
}

// BenchmarkMesherUniform measures the advancing front mesher.
func BenchmarkMesherUniform(b *testing.B) {
	box := mesh.Box{Hi: mesh.Vec3{X: 1, Y: 1, Z: 1}}
	benchMesher(b, func() *mesh.Mesh {
		return mesh.Generate(box, mesh.Uniform{Size: 0.2}, mesh.DefaultMesherConfig())
	})
}

// BenchmarkMesherCrack measures the mesher under crack refinement.
func BenchmarkMesherCrack(b *testing.B) {
	box := mesh.Box{Hi: mesh.Vec3{X: 1, Y: 1, Z: 1}}
	crack := mesh.Crack{Origin: mesh.Vec3{}, Dir: mesh.Vec3{X: 1, Y: 1, Z: 1}.Scale(1 / mesh.Vec3{X: 1, Y: 1, Z: 1}.Norm()),
		Length: 0.7, Radius: 0.3, HMin: 0.09, HMax: 0.35}
	benchMesher(b, func() *mesh.Mesh {
		return mesh.Generate(box, crack, mesh.DefaultMesherConfig())
	})
}

// benchMesher times gen and reports allocations, the tets of one mesh and
// the tets generated per second.
func benchMesher(b *testing.B, gen func() *mesh.Mesh) {
	b.ReportAllocs()
	b.ResetTimer()
	var m *mesh.Mesh
	for i := 0; i < b.N; i++ {
		m = gen()
	}
	b.ReportMetric(float64(m.NumTets()), "tets")
	b.ReportMetric(float64(m.NumTets())*float64(b.N)/b.Elapsed().Seconds(), "tets/s")
}

// BenchmarkHybrid regenerates the end-to-end hybrid experiment (the paper's
// §6 future-work direction): asynchronous refinement phases alternating
// with loosely synchronous solver phases under three balancing regimes.
func BenchmarkHybrid(b *testing.B) {
	cfg := bench.DefaultHybridConfig()
	cfg.NumPhases = 4
	cfg.SolveIters = 5
	mc := bench.BuildHybridCosts(cfg)
	for _, sys := range bench.HybridSystems {
		b.Run(sys, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.RunHybrid(sys, cfg, mc)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
			}
		})
	}
}

// BenchmarkAblationAutoWaterMark compares the fixed explicit-mode water-mark
// with the runtime-derived one (paper §4.2's proposed optimization,
// implemented here).
func BenchmarkAblationAutoWaterMark(b *testing.B) {
	spec, _ := bench.FigureByID(4)
	w := bench.PaperWorkload(spec, benchProcs, benchUPP)
	for _, auto := range []bool{false, true} {
		b.Run(fmt.Sprintf("auto=%v", auto), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := bench.DefaultPremaConfig(ilb.Explicit, true)
				cfg.WS.AutoWaterMark = auto
				r, err := bench.RunPrema(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
			}
		})
	}
}

// BenchmarkScalability sweeps the machine size at fixed per-processor work
// (weak scaling, beyond the paper): PREMA's asynchronous balancing should
// hold its relative advantage as processors grow, while the centralized
// stop-and-repartition baseline pays growing synchronization costs.
func BenchmarkScalability(b *testing.B) {
	spec, _ := bench.FigureByID(4)
	for _, procs := range []int{16, 32, 64, 128} {
		w := bench.PaperWorkload(spec, procs, 32)
		for _, sys := range []string{"prema-implicit", "parmetis"} {
			b.Run(fmt.Sprintf("procs%d/%s", procs, sys), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := bench.RunSystem(sys, w)
					if err != nil {
						b.Fatal(err)
					}
					report(b, r)
				}
			})
		}
	}
}

// BenchmarkPolicySuite compares PREMA's shipped policies (§4: work stealing,
// Cybenko diffusion, Wu multi-list scheduling) on the Figure 3 workload.
func BenchmarkPolicySuite(b *testing.B) {
	spec, _ := bench.FigureByID(3)
	w := bench.PaperWorkload(spec, benchProcs, benchUPP)
	for _, name := range bench.PolicyNames {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.RunPremaPolicy(w, name)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
			}
		})
	}
}
