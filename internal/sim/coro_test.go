package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleGoroutines waits briefly for exiting goroutines and fails if more
// than slack remain beyond before.
func settleGoroutines(t *testing.T, before, slack int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+slack && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+slack {
		t.Fatalf("leaked goroutines: %d -> %d", before, after)
	}
}

// TestPanicAfterParkNamesProcAndTearsDown: a body that panics after it has
// parked (so the panic is raised inside a resumed coroutine) surfaces from
// Run with the processor's name, and the processors still blocked are
// unwound rather than left parked.
func TestPanicAfterParkNamesProcAndTearsDown(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(testConfig())
	unwound := make([]bool, 3)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("waiter", func(p *Proc) {
			defer func() { unwound[i] = true }()
			p.WaitMsg(CatIdle)
		})
	}
	e.Spawn("late-bad", func(p *Proc) {
		p.Advance(Second, CatCompute)
		p.WaitMsgFor(Second, CatIdle)
		panic("late boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("panic did not surface")
	}
	if msg := err.Error(); !strings.Contains(msg, `processor "late-bad" panicked: late boom`) {
		t.Fatalf("err = %v, want the panicking processor named", err)
	}
	for i, ok := range unwound {
		if !ok {
			t.Errorf("waiter %d was not torn down", i)
		}
	}
	settleGoroutines(t, before, 2)
}

// TestStopBeforeFirstTransferSkipsBody: a processor whose spawn-time
// transfer never fires (the run stopped first) is finished by teardown
// without ever running its body.
func TestStopBeforeFirstTransferSkipsBody(t *testing.T) {
	e := NewEngine(testConfig())
	e.Spawn("stopper", func(p *Proc) { p.Engine().Stop() })
	ran := false
	late := e.Spawn("late", func(p *Proc) { ran = true })
	if err := e.Run(); err != nil {
		t.Fatalf("stop should not report deadlock: %v", err)
	}
	if ran {
		t.Fatal("body of a processor stopped before its first transfer ran")
	}
	if !late.done || late.resume != nil {
		t.Fatalf("never-run processor: done=%v, coroutine built=%v", late.done, late.resume != nil)
	}
}

// TestSpawnWithoutRunLeavesNoGoroutines: spawning builds no coroutine, so an
// engine that is never run holds no parked goroutines.
func TestSpawnWithoutRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		e := NewEngine(Config{Seed: 1})
		for i := 0; i < 20; i++ {
			e.Spawn("idle", func(p *Proc) { p.WaitMsg(CatIdle) })
		}
	}
	settleGoroutines(t, before, 2)
}

// TestShardedTeardownLeavesNoGoroutines: on a 2-shard engine, both a Stop
// and a deadlock leave neither processor coroutines nor shard workers
// behind.
func TestShardedTeardownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		e := NewEngine(Config{Seed: 1, Shards: 2})
		for i := 0; i < 10; i++ {
			e.Spawn("stuck", func(p *Proc) { p.WaitMsg(CatIdle) })
		}
		e.Spawn("stopper", func(p *Proc) {
			p.Advance(Second, CatCompute)
			p.Engine().Stop()
		})
		if err := e.Run(); err != nil {
			t.Fatalf("stop should not report deadlock: %v", err)
		}

		e = NewEngine(Config{Seed: 1, Shards: 2})
		for i := 0; i < 10; i++ {
			e.Spawn("stuck", func(p *Proc) { p.WaitMsg(CatIdle) })
		}
		if err := e.Run(); err == nil {
			t.Fatal("expected deadlock")
		}
	}
	settleGoroutines(t, before, 2)
}
