package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"prema/internal/bench"
	"prema/internal/trace"
)

// fig3Rep generates the fig3-sim workload and runs it once on the serial
// simulator through bench.RunPremaOn. With setupOnly the machine is stopped
// before it runs, so only set-up is timed.
func fig3Rep(seed int64, procs, upp int, setupOnly bool) (res *bench.Result, w bench.Workload, setup, wall time.Duration, err error) {
	t0 := time.Now()
	w = fig3Workload(seed, procs, upp)
	p := newProbe(t0, simMachine(w), false, true)
	p.stopBeforeRun = setupOnly
	res, err = bench.RunPremaOn(p, w, premaConfig())
	total := time.Since(t0)
	return res, w, p.setup(), total - p.setup(), err
}

// fig3E2E measures fig3-sim end to end: repeated untraced runs of one seed,
// each checked for conservation and for the same digest as the first.
func fig3E2E(c *ctx) error {
	s := c.scale
	var setups, walls []float64
	for i := 0; i < s.setupProbes; i++ {
		_, _, setup, _, err := fig3Rep(c.seed, s.fig3Procs, s.fig3UPP, true)
		if err != nil {
			return fmt.Errorf("fig3-sim set-up probe: %w", err)
		}
		setups = append(setups, setup.Seconds())
	}
	var ref string
	var rss rssPeaks
	var rssErr error
	measureReps(c.window, func() {
		resetErr := rss.reset()
		res, w, setup, wall, err := fig3Rep(c.seed, s.fig3Procs, s.fig3UPP, false)
		if rssErr == nil {
			rssErr = errors.Join(resetErr, rss.sample())
		}
		if err == nil {
			err = checkPrema(res, w, true)
		}
		if err == nil {
			if ref == "" {
				ref = digest(res)
				c.logf("fig3-sim makespan=%.6fs digest=%s events=%d", res.Makespan.Seconds(), ref, res.Events)
			} else {
				err = sameDigest("repeat run", ref, res)
			}
		}
		c.unitsRun(w.Units, "fig3-sim run", err)
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

// fig3Layers is the traced fig3-sim run, all at the workload's own shape.
// A sizing pass counts each processor's trace events; then plain runs, wire
// loopback runs (Workload.Wire) and overflow-free trace.Wrap runs alternate,
// and a last run goes under the span probe. Every decorated run must report
// the same digest as the first plain run.
func fig3Layers(c *ctx) error {
	s := c.scale
	w := fig3Workload(c.seed, s.fig3Procs, s.fig3UPP)
	cfg := premaConfig()
	ww := w
	ww.Wire = true

	// A 16-event ring still counts every event (Recorder.Total includes
	// overwritten ones), so this pass sizes a ring that holds the busiest
	// processor's whole stream.
	col := trace.NewCollector(16)
	_, err := bench.RunPremaOn(trace.Wrap(simMachine(w), col), w, cfg)
	c.unitsRun(w.Units, "fig3-sim trace sizing run", err)
	if err != nil {
		return nil
	}
	var ring uint64
	for i := 0; i < col.NumProcs(); i++ {
		ring = max(ring, col.Recorder(i).Total())
	}

	var ref string
	var res, wres *bench.Result
	var tcol *trace.Collector
	var treg *trace.Registry
	var plain, wired, traced []float64
	timed := func(samples *[]float64, m func() (*bench.Result, error)) (*bench.Result, error) {
		t0 := time.Now()
		r, err := m()
		*samples = append(*samples, time.Since(t0).Seconds())
		return r, err
	}
	for i := 0; i < s.layerReps; i++ {
		before := readHost()
		r, err := timed(&plain, func() (*bench.Result, error) { return bench.RunPremaOn(simMachine(w), w, cfg) })
		if err == nil {
			err = checkPrema(r, w, true)
		}
		if err == nil && ref == "" {
			ref, res = digest(r), r
			c.setHost(before)
		} else if err == nil {
			err = sameDigest("plain run", ref, r)
		}
		c.unitsRun(w.Units, "fig3-sim plain run", err)
		if ref == "" {
			return nil
		}

		r, err = timed(&wired, func() (*bench.Result, error) { return bench.RunPrema(ww, cfg) })
		if err == nil {
			err = sameDigest("wire loopback run", ref, r)
		}
		if err == nil && r.WireFrames == 0 {
			err = fmt.Errorf("wire loopback moved no frames")
		}
		c.unitsRun(w.Units, "fig3-sim wire loopback run", err)
		if err == nil {
			wres = r
		}

		col := trace.NewCollector(int(ring))
		r, err = timed(&traced, func() (*bench.Result, error) { return bench.RunPremaOn(trace.Wrap(simMachine(w), col), w, cfg) })
		if err == nil {
			err = sameDigest("trace.Wrap run", ref, r)
		}
		if err == nil && col.Dropped() > 0 {
			err = fmt.Errorf("trace ring of %d events dropped %d", ring, col.Dropped())
		}
		var reg *trace.Registry
		if err == nil {
			reg = trace.Summarize(col, r.Makespan)
			err = checkTraceCounts(reg, r, w, col)
		}
		c.unitsRun(w.Units, "fig3-sim trace.Wrap run", err)
		if err == nil {
			tcol, treg = col, reg
		}
	}

	_, u, _ := quartiles(plain)
	untraced := time.Duration(u * float64(time.Second))
	c.logf("fig3-sim makespan=%.6fs digest=%s; medians: plain %.6fs, wire loopback %.6fs, trace.Wrap %.6fs (ring %d)",
		res.Makespan.Seconds(), ref, u, median(wired), median(traced), ring)
	c.set("model.makespan_s", res.Makespan.Seconds())
	c.set("sim.events", float64(res.Events))
	c.set("sim.ns_per_event", ratio(float64(untraced.Nanoseconds()), float64(res.Events)))
	c.set("ilb.units_run", float64(res.Counters["units_run"]))
	req, grants := res.Counters["steal_requests"], res.Counters["steal_grants"]
	c.set("policy.steal_requests", float64(req))
	c.set("policy.steal_grants", float64(grants))
	c.set("policy.grant_ratio", ratio(float64(grants), float64(req)))
	c.set("mol.migrations", float64(res.Counters["objects_migrated"]))
	if wres != nil {
		c.set("wire.frames", float64(wres.WireFrames))
		c.set("wire.size_drift", float64(wres.WireDrift))
		c.set("wire.ns_per_frame", ratio((median(wired)-u)*1e9, float64(wres.WireFrames)))
	}
	if tcol != nil {
		c.set("trace.overhead_pct", 100*ratio(median(traced)-u, u))
		c.set("trace.ns_per_event", ratio((median(traced)-u)*1e9, float64(tcol.Total())))
		c.set("trace.dropped", float64(tcol.Dropped()))
		c.set("mol.forwards", float64(treg.Counters["ev_forward_total"]))
	}

	// Span probe: the host-time split.
	p := newProbe(time.Now(), simMachine(w), true, true)
	pres, err := bench.RunPremaOn(p, w, cfg)
	if err == nil {
		err = sameDigest("span-probed run", ref, pres)
	}
	c.unitsRun(w.Units, "fig3-sim span-probed run", err)
	if err == nil {
		sp := p.split()
		c.setSplit(sp, untraced, w.Units)
		c.set("sim.engine_s", sp.engine.Seconds())
		c.set("sim.switches", float64(sp.blocked))
		if c.spansDir != "" {
			if err := p.writeSpans(filepath.Join(c.spansDir, "fig3-sim.spans")); err != nil {
				return err
			}
		}
	}
	return nil
}

// setSplit reports a span-probed run's host time by layer. untraced is the
// same run's undecorated wall time.
func (c *ctx) setSplit(sp split, untraced time.Duration, units int) {
	c.set("prema.body_s", sp.body.Seconds())
	c.set("substrate.send_calls", float64(sp.calls[opSend]))
	c.set("substrate.send_s", sp.send.Seconds())
	c.set("substrate.poll_calls", float64(sp.pollCalls()))
	c.set("substrate.poll_s", sp.poll.Seconds())
	c.set("dmcs.sends_per_unit", ratio(float64(sp.calls[opSend]), float64(units)))
	c.set("traced.wall_s", sp.wall.Seconds())
	c.set("traced.overhead_pct", 100*ratio((sp.wall-untraced).Seconds(), untraced.Seconds()))
	c.logf("split traced wall %.6fs: engine %.6f + body %.6f + send %.6f + poll %.6f = %.6f; span log %d bytes",
		sp.wall.Seconds(), sp.engine.Seconds(), sp.body.Seconds(), sp.send.Seconds(), sp.poll.Seconds(),
		(sp.engine + sp.body + sp.send + sp.poll).Seconds(), sp.spanBytes)
	for o := op(0); o < numOps; o++ {
		c.logf("calls %-14s %d", opNames[o], sp.calls[o])
	}
}

// checkTraceCounts cross-checks an overflow-free trace against the run's
// own counters: each unit begins and ends exactly once, and every
// migration leaves one processor and arrives at another.
func checkTraceCounts(reg *trace.Registry, res *bench.Result, w bench.Workload, col *trace.Collector) error {
	if got := reg.Counters["ev_unit_begin_total"]; got != int64(w.Units) {
		return fmt.Errorf("trace: %d unit begins, want %d", got, w.Units)
	}
	if got := reg.Counters["ev_unit_end_total"]; got != int64(w.Units) {
		return fmt.Errorf("trace: %d unit ends, want %d", got, w.Units)
	}
	out, in := reg.Counters["ev_migrate_out_total"], reg.Counters["ev_migrate_in_total"]
	if want := int64(res.Counters["objects_migrated"]); out != want || in != want {
		return fmt.Errorf("trace: %d migrations out, %d in, want %d", out, in, want)
	}
	seen := make(map[int64]int, w.Units)
	for i := 0; i < col.NumProcs(); i++ {
		for _, e := range col.Recorder(i).Events() {
			if e.Kind == trace.EvUnitBegin {
				seen[e.A]++
			}
		}
	}
	for key, n := range seen {
		if n != 1 {
			return fmt.Errorf("trace: object %d:%d began %d units, want 1",
				trace.KeyHome(key), trace.KeyIndex(key), n)
		}
	}
	if len(seen) != w.Units {
		return fmt.Errorf("trace: %d objects ran a unit, want %d", len(seen), w.Units)
	}
	return nil
}
