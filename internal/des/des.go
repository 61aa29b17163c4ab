// This file imports iter, so it carries a go1.23 build constraint. The
// constraint raises only this file's language version: the module stays at
// go 1.22, which the benchmark module's pinned, read-only build requires.

//go:build go1.23

// Package des implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel follows the classic SimPy model: simulated activities run as
// ordinary Go functions ("processes"), each on its own iter.Pull coroutine.
// Exactly one process executes at a time: the run loop resumes a process by
// calling its coroutine's next, and the process hands control back by
// yielding when it blocks or returns. A coroutine switch is a direct
// goroutine handoff with no scheduler round trip. Finished coroutines are
// pooled per Sim and rebound to the next spawned process. Combined with a
// totally ordered event queue (ordered by virtual time, then by scheduling
// sequence number) this makes every simulation run bit-for-bit reproducible
// regardless of GOMAXPROCS.
//
// A process interacts with the kernel through its *Proc handle: it can Sleep
// for a virtual duration, Wait on an Event, or block on higher level
// primitives (Resource, Queue) built from those two. Virtual time only
// advances when every process is blocked.
//
// The hot path — schedule an event, pop it, resume the target process — is
// allocation-free in steady state: events are typed records (kind + target
// process) rather than closures, popped records are recycled through a free
// list, and the pending set is an inlined 4-ary heap (see heap.go). A spawn
// allocates only its Proc once the coroutine pool is warm.
// Different Sim instances share no simulation state (race builds share only
// a locked list of idle coroutines, see retireCoros), so independent
// simulations may run concurrently on separate goroutines (see
// internal/experiments/runner).
package des

import (
	"fmt"
	"iter"
	"sync"
	"time"

	"repro/internal/trace"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is deliberately an
// alias of time.Duration so literals like 3*time.Microsecond convert
// directly.
type Duration = time.Duration

// Seconds returns the time as a floating point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros returns the time as a floating point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return time.Duration(t).String() }

// Sim is a single simulation instance. It is not safe for concurrent use by
// multiple OS threads; all interaction must happen either before Run or from
// within simulation processes. Distinct Sim instances are fully independent
// and may run in parallel.
type Sim struct {
	now      Time
	queue    []*event // 4-ary heap, see heap.go
	free     []*event // recycled event records
	seq      int64
	coros    []*coro // finished coroutines ready for the next spawn
	stopped  bool
	parked   []*Proc // processes currently blocked inside the kernel
	starting []*Proc // spawned but not yet started processes
	trace    func(t Time, format string, args ...any)
	tracer   *trace.Tracer // structured event sink, nil when disabled
	procSeq  uint64
}

// New creates an empty simulation positioned at virtual time zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// SetTrace installs a trace sink invoked by Proc.Logf. A nil sink disables
// tracing (the default).
func (s *Sim) SetTrace(fn func(t Time, format string, args ...any)) { s.trace = fn }

// SetTracer installs a structured event tracer. Every layer built on the
// kernel reaches it through Sim; a nil tracer (the default) disables
// structured tracing, and all emission sites guard on that nil so the
// kernel hot path stays allocation-free and branch-cheap.
func (s *Sim) SetTracer(tr *trace.Tracer) { s.tracer = tr }

// Tracer returns the installed structured tracer, or nil.
func (s *Sim) Tracer() *trace.Tracer { return s.tracer }

// schedule enqueues a typed event firing at virtual time at (which must not
// be in the past) targeting process p, and returns the event so it can be
// cancelled. The record comes from the free list when possible.
func (s *Sim) schedule(at Time, kind eventKind, p *Proc) *event {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling into the past: %v < %v", at, s.now))
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &event{}
	}
	e.at = at
	e.seq = s.seq
	e.kind = kind
	e.proc = p
	s.seq++
	s.heapPush(e)
	return e
}

// recycle returns a popped or cancelled event record to the free list,
// dropping its process reference.
func (s *Sim) recycle(e *event) {
	e.proc = nil
	s.free = append(s.free, e)
}

// cancel removes a pending event. Cancelling an already-fired event is a
// no-op.
func (s *Sim) cancel(e *event) {
	if e.index >= 0 {
		s.heapRemove(e.index)
		s.recycle(e)
	}
}

// Stop terminates the run loop after the current event completes. Pending
// events are discarded and parked processes are unwound.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events until the queue is empty or Stop is called, and
// returns the final virtual time. On return every process goroutine has
// terminated, except the idle ones race builds keep for reuse (see
// retireCoros). A panic in a process body, wrapped as
// "des: process %q panicked: ...", and a runtime.Goexit in one (such as
// t.FailNow) leave Run through its caller after the other processes have
// been unwound.
func (s *Sim) Run() Time { return s.RunUntil(Time(1<<62 - 1)) }

// RunUntil executes events with timestamp <= limit and returns the current
// virtual time afterwards. Like Run, it unwinds all remaining process
// goroutines before returning, so it cannot be used to single-step a
// simulation; it exists to bound runaway simulations.
func (s *Sim) RunUntil(limit Time) Time {
	defer s.unwindAll()
	for !s.stopped && len(s.queue) > 0 {
		e := s.queue[0]
		if e.at > limit {
			break
		}
		s.heapPop()
		s.now = e.at
		p, kind := e.proc, e.kind
		s.recycle(e)
		switch kind {
		case evSleep:
			s.unpark(p)
		case evStart:
			s.removeStarting(p)
		}
		s.resumeProc(p)
	}
	return s.now
}

// unwindAll unblocks every process that is still parked (or never started)
// when the run loop exits, so their coroutines terminate, then retires the
// coroutine pool. Each unwound Proc reports Abandoned. Unwinding order is
// deterministic: most recently parked first, then most recently spawned.
func (s *Sim) unwindAll() {
	for len(s.parked) > 0 || len(s.starting) > 0 {
		var p *Proc
		if n := len(s.parked); n > 0 {
			p = s.parked[n-1]
			s.parked[n-1] = nil
			s.parked = s.parked[:n-1]
			p.parkedIdx = -1
		} else {
			n := len(s.starting)
			p = s.starting[n-1]
			s.starting[n-1] = nil
			s.starting = s.starting[:n-1]
			s.cancel(p.startEv)
			p.startIdx = -1
			p.startEv = nil
		}
		p.abandoned = true
		if p.co != nil { // a never-started process has no coroutine to unwind
			p.co.next()
		}
	}
	s.retireCoros()
}

// retireCoros empties the Sim's coroutine pool, stopping every pooled
// coroutine. Under the race detector it hands them to raceIdle instead: the
// Go runtime (as of go1.24) does not release a coroutine's race-detector
// state when the coroutine exits, so stopping them would leak that state for
// every process a simulation ever ran concurrently, and a test binary running
// thousands of simulations would grow by gigabytes.
func (s *Sim) retireCoros() {
	if raceEnabled {
		raceIdleMu.Lock()
		raceIdle = append(raceIdle, s.coros...)
		raceIdleMu.Unlock()
	} else {
		for _, c := range s.coros {
			c.stop()
		}
	}
	clear(s.coros)
	s.coros = s.coros[:0]
}

// raceIdle holds, in race builds only, coroutines retired by finished
// simulations for any Sim to adopt when its own pool is empty.
var (
	raceIdleMu sync.Mutex
	raceIdle   []*coro
)

// adoptRaceIdle takes a coroutine from raceIdle, or returns nil.
func adoptRaceIdle() *coro {
	raceIdleMu.Lock()
	defer raceIdleMu.Unlock()
	n := len(raceIdle)
	if n == 0 {
		return nil
	}
	c := raceIdle[n-1]
	raceIdle[n-1] = nil
	raceIdle = raceIdle[:n-1]
	return c
}

// Proc is the handle a simulated process uses to interact with the kernel.
type Proc struct {
	sim       *Sim
	name      string
	fn        func(p *Proc) // body, cleared once it starts
	co        *coro         // bound coroutine, nil until started
	abandoned bool
	parkedIdx int    // index into sim.parked, -1 when running
	startIdx  int    // index into sim.starting, -1 once started
	startEv   *event // pending start event, nil once started
	id        uint64 // stable process id for trace pairing
	blockT    Time   // park time, recorded only while tracing
}

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Name returns the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Abandoned reports whether the simulation stopped while this process was
// parked or before it started. It is primarily useful in deferred cleanup:
// the kernel unwinds abandoned processes with a panic that is recovered by
// the coroutine wrapper, so ordinary code never observes it mid-function.
func (p *Proc) Abandoned() bool { return p.abandoned }

// Logf emits a trace line through the simulation's trace sink, if installed.
func (p *Proc) Logf(format string, args ...any) {
	if p.sim.trace != nil {
		p.sim.trace(p.sim.now, "["+p.name+"] "+format, args...)
	}
}

// Spawn creates a new process executing fn and schedules it to start at the
// current virtual time. fn runs on its own coroutine but under the kernel's
// one-at-a-time discipline.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAt(s.now, name, fn)
}

// SpawnAt is Spawn with an explicit (future) start time.
func (s *Sim) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	s.procSeq++
	p := &Proc{sim: s, name: name, fn: fn, parkedIdx: -1, id: s.procSeq}
	if s.tracer != nil {
		s.tracer.Instant(int64(s.now), trace.LayerDES, trace.KindSpawn, name, "spawn", p.id, int64(at))
	}
	p.startEv = s.schedule(at, evStart, p)
	p.startIdx = len(s.starting)
	s.starting = append(s.starting, p)
	return p
}

// removeStarting clears p's pending-start registration when its start event
// fires.
func (s *Sim) removeStarting(p *Proc) {
	i := p.startIdx
	if i < 0 {
		return
	}
	last := len(s.starting) - 1
	s.starting[i] = s.starting[last]
	s.starting[i].startIdx = i
	s.starting[last] = nil
	s.starting = s.starting[:last]
	p.startIdx = -1
	p.startEv = nil
}

// resumeProc transfers control to p and waits for it to park or exit. A
// process's first resume binds it to a pooled coroutine, or a new one when
// the pool is empty. It must only be called from the scheduler loop.
func (s *Sim) resumeProc(p *Proc) {
	if p.co == nil {
		var c *coro
		if n := len(s.coros); n > 0 {
			c = s.coros[n-1]
			s.coros[n-1] = nil
			s.coros = s.coros[:n-1]
		} else if raceEnabled {
			c = adoptRaceIdle()
		}
		if c == nil {
			c = &coro{}
			c.next, c.stop = iter.Pull(c.loop)
		}
		c.proc = p
		p.co = c
	}
	p.co.next()
}

// coro is a reusable process coroutine. It runs one process body at a time;
// when a body returns, the coroutine puts itself back on its Sim's pool and
// suspends until resumeProc binds it to the next process. A fresh iter.Pull
// costs about a dozen allocations, so without the pool every spawn would pay
// them.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	proc  *Proc // process being run, nil while pooled
}

// loop is the coroutine body. It returns only when stop is called on the
// pooled coroutine; a panic or runtime.Goexit in a process body ends it
// early and propagates out of next to the run loop's caller.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		p := c.proc
		p.run()
		p.co, c.proc = nil, nil
		s := p.sim
		s.coros = append(s.coros, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the process body, absorbing the unwind panic of an abandoned
// process and wrapping any other panic with the process name.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abandonedPanic); !ok {
				panic(fmt.Sprintf("des: process %q panicked: %v", p.name, r))
			}
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
}

// park blocks the calling process until something resumes it. The caller
// must already have arranged for a wake-up (a scheduled event or a waiter
// registration on some primitive).
func (p *Proc) park() {
	s := p.sim
	if s.tracer != nil {
		p.blockT = s.now
	}
	p.parkedIdx = len(s.parked)
	s.parked = append(s.parked, p)
	p.co.yield(struct{}{})
	if p.abandoned {
		panic(abandonedPanic{})
	}
	// A blocked span is only interesting when virtual time passed; emitting
	// after the resume keeps this off the zero-length same-instant handoffs.
	if s.tracer != nil && s.now > p.blockT {
		s.tracer.Span(int64(p.blockT), int64(s.now), trace.LayerDES, trace.KindBlocked, p.name, "blocked", p.id, 0)
	}
}

// unpark removes p from the parked set; primitives call it right before
// scheduling p's resume so that Stop-time unwinding cannot double-resume.
func (s *Sim) unpark(p *Proc) {
	i := p.parkedIdx
	if i < 0 {
		return
	}
	last := len(s.parked) - 1
	s.parked[i] = s.parked[last]
	s.parked[i].parkedIdx = i
	s.parked[last] = nil
	s.parked = s.parked[:last]
	p.parkedIdx = -1
}

// wake unparks p and schedules its resume at the current instant. It is the
// single wake-up primitive every synchronization object uses.
func (s *Sim) wake(p *Proc) {
	s.unpark(p)
	s.schedule(s.now, evResume, p)
}

// abandonedPanic unwinds a process coroutine whose simulation has stopped.
type abandonedPanic struct{}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (yield to same-time events scheduled earlier).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.schedule(s.now+Time(d), evSleep, p)
	p.park()
}

// Yield cedes control so that other events scheduled at the current instant
// run before this process continues.
func (p *Proc) Yield() { p.Sleep(0) }
