package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"prema/internal/bench"
	"prema/internal/ilb"
	"prema/internal/sim"
	"prema/internal/substrate"
)

// scale holds every size the workload generators take. fullScale is the
// benchmark; the tests run the same code at tinyScale.
type scale struct {
	// fig3-sim: machine shape, and how many plain, wire-loopback and
	// trace.Wrap runs alternate in the traced run.
	fig3Procs, fig3UPP int
	layerReps          int
	// mesh-real: crack-growth iterations and mesher workers.
	meshIters, meshJobs int
	// dist2: machine shape, time scale, and pingpong round trips.
	distProcs, distUPP int
	distTimeScale      float64
	pingRounds         int
	// setupProbes is how many set-up-only runs each end-to-end run adds to
	// the set-up samples of its measured reps.
	setupProbes int
}

var fullScale = scale{
	fig3Procs: 64, fig3UPP: 32, layerReps: 3,
	meshIters: 2, meshJobs: 1,
	distProcs: 16, distUPP: 256, distTimeScale: 1e-5,
	pingRounds:  2000,
	setupProbes: 101,
}

// premaConfig is the configuration every PREMA workload here runs:
// prema-implicit, the paper's preemptive work stealing.
func premaConfig() bench.PremaConfig { return bench.DefaultPremaConfig(ilb.Implicit, true) }

// fig3Workload generates the paper's Figure 3 scenario (50% heavy units,
// heavy = 2x light, mean hints) at the given shape. The seed drives every
// randomized decision of the run.
func fig3Workload(seed int64, procs, upp int) bench.Workload {
	spec, err := bench.FigureByID(3)
	if err != nil {
		panic(err) // figure 3 is built in
	}
	w := bench.PaperWorkload(spec, procs, upp)
	w.Seed = seed
	return w
}

// simMachine builds the serial simulator for w, as the bench drivers do.
func simMachine(w bench.Workload) substrate.Machine {
	return sim.NewMachine(sim.Config{Network: w.Network, Seed: w.Seed})
}

// measureReps runs rep until the window is spent: another rep starts only
// while the longest rep so far still fits in the time left. At least one
// rep runs. Each rep starts from a collected heap with its free memory
// returned to the OS, as a fresh process would, so one rep's garbage does
// not land in the next one's time or peak memory.
func measureReps(window time.Duration, rep func()) {
	start := time.Now()
	var longest time.Duration
	for {
		debug.FreeOSMemory()
		t0 := time.Now()
		rep()
		if d := time.Since(t0); d > longest {
			longest = d
		}
		if time.Since(start)+longest > window {
			return
		}
	}
}

// quartiles returns the first quartile, median and third quartile of xs,
// by the exclusive method Python's statistics.quantiles uses.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		m := float64(n+1) * p
		j := int(math.Floor(m))
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return at(0.25), med, at(0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// reportMedian sets metric name to the median of samples and logs the
// quartiles and sample count beside it.
func (c *ctx) reportMedian(name string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	c.set(name, med)
	c.logf("%s median=%.6f q1=%.6f q3=%.6f n=%d samples=%.4f", name, med, q1, q3, len(samples), samples)
}

// hostSample is a snapshot of the process's own resource use.
type hostSample struct {
	cpu   time.Duration
	alloc uint64
	gc    uint32
}

func readHost() hostSample {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gc:    ms.NumGC,
	}
}

// setHost reports the resources used since before.
func (c *ctx) setHost(before hostSample) {
	after := readHost()
	c.set("host.cpu_s", (after.cpu - before.cpu).Seconds())
	c.set("host.alloc_mb", float64(after.alloc-before.alloc)/(1<<20))
	c.set("host.gc_cycles", float64(after.gc-before.gc))
}

// childrenPeakRSSMB returns the peak resident set of this process's largest
// waited-for child, in MB.
func childrenPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		panic(err) // RUSAGE_CHILDREN with a valid pointer cannot fail
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssPeaks samples this process's peak resident set per repetition: reset
// restarts the kernel's high-water mark (VmHWM), sample reads it. One
// process runs many repetitions, and when the garbage collector runs
// decides which of them sets a whole-process peak, so the median of
// per-repetition peaks is the steadier figure.
type rssPeaks struct{ mb []float64 }

func (r *rssPeaks) reset() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func (r *rssPeaks) sample() error {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			r.mb = append(r.mb, kb/1024)
			return nil
		}
	}
	return fmt.Errorf("no VmHWM in /proc/self/status")
}

// digest fingerprints a run's modeled output: the summary line, every
// processor's ledger, the counters and the residency. Host-side telemetry
// (event and frame counts) is left out, so probed, traced and wire runs of
// one seed must match an undecorated run.
func digest(r *bench.Result) string {
	h := fnv.New64a()
	fmt.Fprint(h, r.Summary())
	for i := range r.Accounts {
		fmt.Fprintf(h, "%v", r.Accounts[i])
	}
	keys := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d;", k, r.Counters[k])
	}
	fmt.Fprintf(h, "%v", r.Resident)
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkPrema verifies a PREMA run's outcome: every unit ran exactly once,
// every object is resident exactly once, no duplicate deliveries, honest
// wire sizes, and — on the simulator, where compute is charged exactly —
// the machine-wide compute equals the workload's total work.
func checkPrema(r *bench.Result, w bench.Workload, exactCompute bool) error {
	if err := r.CheckConservation(); err != nil {
		return err
	}
	if n := r.Counters["mol_duplicates"]; n != 0 {
		return fmt.Errorf("%d duplicate deliveries", n)
	}
	if r.WireDrift != 0 {
		return fmt.Errorf("wire size drift %d", r.WireDrift)
	}
	if exactCompute {
		var got substrate.Time
		for i := range r.Accounts {
			got += r.Accounts[i][substrate.CatCompute]
		}
		if want := w.TotalWork(); got != want {
			return fmt.Errorf("compute %v, want total work %v", got, want)
		}
	}
	return nil
}

// sameDigest fails when a run's digest differs from the reference run's.
func sameDigest(what, ref string, r *bench.Result) error {
	if d := digest(r); d != ref {
		return fmt.Errorf("%s digest %s differs from reference %s", what, d, ref)
	}
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
