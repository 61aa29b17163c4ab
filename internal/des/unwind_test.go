package des

import (
	"runtime"
	"testing"
	"time"
)

// liveGoroutines counts goroutines other than the idle coroutines race
// builds keep for reuse across simulations (see Sim.retireCoros); in other
// builds that is every goroutine.
func liveGoroutines() int {
	raceIdleMu.Lock()
	defer raceIdleMu.Unlock()
	return runtime.NumGoroutine() - len(raceIdle)
}

// settleGoroutines returns liveGoroutines, polling until it drops to want or
// a deadline passes. The kernel itself never needs the poll: stopping a
// coroutine is synchronous, so every process coroutine (unwound, pooled or
// panicked) has exited, or in race builds been handed to raceIdle, by the
// time RunUntil returns. The poll only absorbs goroutines outside the kernel
// that are still winding down.
func settleGoroutines(t *testing.T, want int) int {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := liveGoroutines(); n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunUntilUnwindsAllBlockedShapes stops a simulation while processes
// are blocked in every way the kernel knows — parked on an event, parked on
// a sleep, queue-blocked, resource-blocked, and spawned-but-never-started —
// and asserts that all of their goroutines terminate and their deferred
// cleanup runs.
func TestRunUntilUnwindsAllBlockedShapes(t *testing.T) {
	before := liveGoroutines()
	s := New()
	ev := NewEvent(s)     // never fired
	q := NewQueue(s, "q") // never put
	r := NewResource(s, "r", 1)

	cleaned := make(map[string]bool)
	shape := func(name string, fn func(p *Proc)) {
		s.Spawn(name, func(p *Proc) {
			defer func() { cleaned[name] = true }()
			fn(p)
			t.Errorf("%s resumed normally after stop", name)
		})
	}
	shape("event-parked", func(p *Proc) { ev.Wait(p) })
	shape("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
	shape("queue-blocked", func(p *Proc) { q.Get(p) })
	shape("holder-then-sleep", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(time.Hour)
	})
	shape("resource-blocked", func(p *Proc) {
		p.Sleep(1) // let holder-then-sleep take the unit first
		r.Acquire(p, 1)
	})
	neverStarted := false
	s.SpawnAt(Time(time.Hour), "never-started", func(p *Proc) { neverStarted = true })

	s.RunUntil(Time(time.Minute))

	for _, name := range []string{"event-parked", "sleeper", "queue-blocked", "holder-then-sleep", "resource-blocked"} {
		if !cleaned[name] {
			t.Errorf("%s: deferred cleanup did not run", name)
		}
	}
	if neverStarted {
		t.Error("never-started process body ran")
	}
	if after := settleGoroutines(t, before); after > before {
		t.Errorf("goroutine leak: %d before, %d after unwind", before, after)
	}
}

// TestStopMidRunLeaksNothing stops from inside an event while other
// processes are parked and pending events remain queued.
func TestStopMidRunLeaksNothing(t *testing.T) {
	before := liveGoroutines()
	s := New()
	for i := 0; i < 50; i++ {
		s.Spawn("sleeper", func(p *Proc) {
			for {
				p.Sleep(time.Millisecond)
			}
		})
	}
	s.Spawn("stopper", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		s.Stop()
	})
	s.Run()
	if after := settleGoroutines(t, before); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestAbandonedReportedOnUnwind verifies processes observe Abandoned from
// deferred cleanup when the run loop exits with them parked.
func TestAbandonedReportedOnUnwind(t *testing.T) {
	s := New()
	var sawAbandoned bool
	s.Spawn("stuck", func(p *Proc) {
		defer func() { sawAbandoned = p.Abandoned() }()
		NewEvent(s).Wait(p)
	})
	s.Spawn("stopper", func(p *Proc) { s.Stop() })
	s.Run()
	if !sawAbandoned {
		t.Fatal("parked process did not report Abandoned after unwind")
	}
}

// TestUnwindIsDeterministic runs the same stop-heavy simulation twice and
// asserts the unwind visits processes in the same order (the seed kernel
// unwound never-started processes in map iteration order).
func TestUnwindIsDeterministic(t *testing.T) {
	run := func() []string {
		s := New()
		var order []string
		for i := 0; i < 8; i++ {
			name := string(rune('a' + i))
			s.SpawnAt(Time(time.Hour), name, func(p *Proc) {})
			s.Spawn(name+"-parked", func(p *Proc) {
				defer func() { order = append(order, p.Name()) }()
				NewEvent(s).Wait(p)
			})
		}
		s.Spawn("stopper", func(p *Proc) { p.Sleep(1); s.Stop() })
		s.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 8 {
		t.Fatalf("unwound %d parked processes, want 8", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("unwind order diverged:\n%v\n%v", a, b)
		}
	}
}

// TestPooledCoroutinesStopped runs 1000 short-lived processes to completion,
// which leaves their coroutines in the Sim's pool, and asserts Run stops
// every pooled coroutine before returning.
func TestPooledCoroutinesStopped(t *testing.T) {
	before := liveGoroutines()
	s := New()
	done := 0
	for i := 0; i < 1000; i++ {
		s.SpawnAt(Time(i%7), "worker", func(p *Proc) {
			p.Sleep(time.Duration(1 + done%3))
			done++
		})
	}
	s.Run()
	if done != 1000 {
		t.Fatalf("%d of 1000 processes finished", done)
	}
	if after := settleGoroutines(t, before); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestStopWithPooledParkedAndUnstarted stops a simulation whose coroutines
// are in all three states at once: pooled (their process finished), parked,
// and never bound (process spawned for later). Nothing may leak, and
// Abandoned must be true exactly for the unwound processes.
func TestStopWithPooledParkedAndUnstarted(t *testing.T) {
	before := liveGoroutines()
	s := New()
	var finished, parked, unstarted []*Proc
	for i := 0; i < 20; i++ {
		finished = append(finished, s.Spawn("finisher", func(p *Proc) { p.Sleep(time.Duration(i)) }))
		parked = append(parked, s.Spawn("parked", func(p *Proc) { p.Sleep(time.Hour) }))
		unstarted = append(unstarted, s.SpawnAt(Time(time.Hour), "unstarted", func(p *Proc) {
			t.Error("never-started process body ran")
		}))
	}
	stopper := s.Spawn("stopper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Stop()
	})
	s.Run()

	for _, p := range append(finished, stopper) {
		if p.Abandoned() {
			t.Errorf("%s finished normally but reports Abandoned", p.Name())
		}
	}
	for _, p := range append(parked, unstarted...) {
		if !p.Abandoned() {
			t.Errorf("%s was unwound but does not report Abandoned", p.Name())
		}
	}
	if after := settleGoroutines(t, before); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestProcessPanicReachesRunCaller asserts that a panic in a process body
// leaves Run on the caller's goroutine, wrapped with the process name, after
// the other processes are unwound, and that a fresh Sim works afterwards.
func TestProcessPanicReachesRunCaller(t *testing.T) {
	before := liveGoroutines()
	bystanderCleaned := false
	func() {
		defer func() {
			const want = `des: process "bad" panicked: boom`
			if r := recover(); r != want {
				t.Fatalf("Run panicked with %v, want %q", r, want)
			}
		}()
		s := New()
		s.Spawn("bystander", func(p *Proc) {
			defer func() { bystanderCleaned = p.Abandoned() }()
			NewEvent(s).Wait(p)
		})
		s.Spawn("finisher", func(p *Proc) {}) // leaves a pooled coroutine
		s.Spawn("bad", func(p *Proc) {
			p.Sleep(1)
			panic("boom")
		})
		s.Run()
	}()
	if !bystanderCleaned {
		t.Error("parked bystander was not unwound after the panic")
	}
	if after := settleGoroutines(t, before); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}

	s := New()
	ran := false
	s.Spawn("ok", func(p *Proc) {
		p.Sleep(5)
		ran = true
	})
	if end := s.Run(); !ran || end != 5 {
		t.Fatalf("fresh Sim after panic: ran=%v end=%v, want true 5ns", ran, end)
	}
}

// TestProcessGoexitUnwindsRunCaller asserts that runtime.Goexit in a process
// body (what t.FailNow calls) ends the goroutine that called Run, after the
// other processes are unwound, instead of vanishing with the process.
func TestProcessGoexitUnwindsRunCaller(t *testing.T) {
	before := liveGoroutines()
	returned, bystanderCleaned := false, false
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := New()
		s.Spawn("bystander", func(p *Proc) {
			defer func() { bystanderCleaned = p.Abandoned() }()
			p.Sleep(time.Hour)
		})
		s.Spawn("exiter", func(p *Proc) { runtime.Goexit() })
		s.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Error("Run returned after a process called runtime.Goexit")
	}
	if !bystanderCleaned {
		t.Error("sleeping bystander was not unwound after the Goexit")
	}
	if after := settleGoroutines(t, before); after > before {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}
