package deme

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleGoroutines waits until the goroutine count is back to base: a
// finished coroutine's goroutine exits right after its last switch, so
// the count settles within a few scheduler ticks.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSimTeardownNoGoroutineLeak checks that no process coroutine
// outlives Run, whichever way the run ends.
func TestSimTeardownNoGoroutineLeak(t *testing.T) {
	pingPong := func(p Proc) {
		for i := 0; i < 50; i++ {
			if p.ID() == 0 {
				p.Send(1, 0, i, 8)
				p.Recv()
			} else {
				m, ok := p.Recv()
				if !ok {
					return
				}
				p.Send(0, 0, m.Data, 8)
			}
		}
	}
	t.Run("normal", func(t *testing.T) {
		base := runtime.NumGoroutine()
		if err := NewSim(Origin3800()).Run(4, pingPong); err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, base)
	})
	t.Run("panic", func(t *testing.T) {
		base := runtime.NumGoroutine()
		err := NewSim(Ideal()).Run(3, func(p Proc) {
			switch p.ID() {
			case 0:
				p.Recv() // released by the deadlock path after both panics
			case 1:
				p.Compute(1)
				panic("first")
			case 2:
				p.Compute(2)
				panic("second")
			}
		})
		if err == nil || !strings.Contains(err.Error(), "process 1 panicked: first") {
			t.Fatalf("Run = %v, want the first panic (process 1)", err)
		}
		settleGoroutines(t, base)
	})
	t.Run("cancelled", func(t *testing.T) {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := NewSim(Origin3800()).RunContext(ctx, 3, func(p Proc) {
			for {
				if _, ok := p.RecvTimeout(1); !ok && ctx.Err() != nil {
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, base)
	})
	t.Run("deadlock", func(t *testing.T) {
		base := runtime.NumGoroutine()
		err := NewSim(Ideal()).Run(3, func(p Proc) {
			p.Recv() // every process waits forever; all are released
		})
		if err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, base)
	})
}

// TestSimGoexitStopsSiblings covers the teardown path for coroutines that
// never finish on their own: a body that calls runtime.Goexit ends Run's
// caller as well, and Run stops every suspended sibling on the way out,
// running its deferred calls, instead of leaking its goroutine.
func TestSimGoexitStopsSiblings(t *testing.T) {
	base := runtime.NumGoroutine()
	unwound := make(chan bool, 1)
	returned := make(chan bool, 1)
	go func() {
		_ = NewSim(Ideal()).Run(2, func(p Proc) {
			if p.ID() == 0 {
				p.Compute(1) // let process 1 block first
				runtime.Goexit()
			}
			defer func() { unwound <- true }()
			p.Recv()
			t.Error("stopped process resumed past its receive")
		})
		returned <- true
	}()
	select {
	case <-unwound:
	case <-time.After(5 * time.Second):
		t.Fatal("suspended process was not stopped")
	}
	settleGoroutines(t, base)
	select {
	case <-returned:
		t.Fatal("Run returned normally after a body called Goexit")
	default:
	}
}

// BenchmarkSimHandoff is one scheduler-to-process switch and back: a
// two-process ping-pong on an ideal machine, reported per handoff (two
// per round trip), as in the perfbench deme.handoff_ns layer.
func BenchmarkSimHandoff(b *testing.B) {
	b.ReportAllocs()
	rounds := b.N
	err := NewSim(Ideal()).Run(2, func(p Proc) {
		for i := 0; i < rounds; i++ {
			if p.ID() == 0 {
				p.Send(1, 0, nil, 8)
				p.Recv()
			} else {
				m, ok := p.Recv()
				if !ok {
					return
				}
				p.Send(0, 0, m.Data, 8)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*rounds), "ns/handoff")
}
