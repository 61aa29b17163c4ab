package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/trace"
)

// callKind names the public core call a recorded operation made.
type callKind uint8

const (
	callMkdir callKind = iota
	callCreate
	callOpen
	callStat
	callRemove
	callRead
	callWrite
	callCommit
	numCalls
)

var callNames = [numCalls]string{"Mkdir", "Create", "Open", "Stat", "Remove", "ReadAt", "WriteAt", "Commit"}

// call is one timed call into core. Its op id is its index in the
// recorder's log plus one.
type call struct {
	kind     callKind
	measured bool // in the measured phase (false: set-up)
	failed   bool
	client   int32
	vStart   des.Time
	vEnd     des.Time
}

// hostSpan is a call's host start and end, in ns since the rep started.
type hostSpan struct{ start, end int64 }

// mark is the start of a call in flight.
type mark struct {
	v des.Time
	h int64
}

// recorder times every call the benchmark makes into core.
type recorder struct {
	calls     []call
	host      []hostSpan // parallel to calls; traced reps only
	measuring bool
	hostSpans bool
	hostBase  time.Time
	failures  []string
}

func (r *recorder) begin(p *des.Proc) mark {
	m := mark{v: p.Now()}
	if r.hostSpans {
		m.h = int64(time.Since(r.hostBase))
	}
	return m
}

// end records a finished call. got/want are payload byte counts (zero for
// metadata calls); a short count is a failure like an error. It returns the
// call's virtual latency in µs.
func (r *recorder) end(p *des.Proc, m mark, kind callKind, client, got, want int, err error) float64 {
	c := call{kind: kind, client: int32(client), measured: r.measuring, vStart: m.v, vEnd: p.Now()}
	if r.hostSpans {
		r.host = append(r.host, hostSpan{m.h, int64(time.Since(r.hostBase))})
	}
	if err != nil || got != want {
		c.failed = true
		r.fail("%s client%d: got %d of %d bytes, err=%v", callNames[kind], client, got, want, err)
	}
	r.calls = append(r.calls, c)
	return (c.vEnd - c.vStart).Micros()
}

// fail records a failed output check; the first eight are kept for the
// report.
func (r *recorder) fail(format string, args ...any) {
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// liveHeap collects garbage and returns the live Go heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// snapshot is the cluster's cumulative counters at one instant; the
// measured phase's figures are differences of two snapshots.
type snapshot struct {
	v                      des.Time
	srvBusy, cliBusy       float64
	srvIntr, cliIntr       int64
	migrations             int64
	wqe, wireBytes, rnr    int64
	regCalls               int64
	cacheHits, cacheMisses int64
	requests, done         int64
	bulkReads, bulkWrites  int64
	longReplies            int64
	retransmits            int64
	pcHits, pcMisses       int64
	diskRead, diskWrite    int64
	exposedEver            int64
	exposedBytes           int64
	srqStarved             int64
}

func (r *rep) snap() snapshot {
	c := r.cluster
	srv := c.Server
	s := snapshot{
		v:            c.Sim.Now(),
		srvBusy:      srv.Node.CPU.TotalBusySeconds(),
		srvIntr:      srv.Node.CPU.Interrupts(),
		migrations:   srv.Node.CPU.Migrations(),
		exposedEver:  srv.Node.HCA.RemoteExposedEver(),
		exposedBytes: srv.Node.HCA.RemoteExposedBytes(),
	}
	fc := c.Fabric.Counters
	s.wqe = fc.Get("op.send") + fc.Get("op.write") + fc.Get("op.read")
	s.wireBytes = fc.Get("bytes.send") + fc.Get("bytes.write") + fc.Get("bytes.read")
	s.rnr = fc.Get("rnr")
	if srv.Mgr != nil {
		st := srv.Mgr.Stats()
		s.regCalls += st.Registers + st.FMRMaps
		s.cacheHits += st.CacheHits
		s.cacheMisses += st.CacheMisses
	}
	for _, cl := range c.Clients {
		s.cliBusy += cl.Node.CPU.TotalBusySeconds()
		s.cliIntr += cl.Node.CPU.Interrupts()
		if cl.Mgr != nil {
			st := cl.Mgr.Stats()
			s.regCalls += st.Registers + st.FMRMaps
			s.cacheHits += st.CacheHits
			s.cacheMisses += st.CacheMisses
		}
		_, rt := cl.TransportStats()
		s.retransmits += rt
	}
	if t := srv.RDMA; t != nil {
		s.requests, s.done = t.Requests, t.DoneRecv
		s.bulkReads, s.bulkWrites, s.longReplies = t.BulkReads, t.BulkWrites, t.LongReplies
		s.srqStarved = t.SRQStarvedTotal()
	}
	if pc := srv.Cache; pc != nil {
		s.pcHits, s.pcMisses = pc.Hits, pc.Misses
	}
	if d := srv.Disk; d != nil {
		s.diskRead, s.diskWrite = d.BytesRead, d.BytesWritten
	}
	return s
}

// busy returns cumulative CPU busy seconds of the server and of all
// clients together.
func (r *rep) busy() (srv, cli float64) {
	srv = r.cluster.Server.Node.CPU.TotalBusySeconds()
	for _, cl := range r.cluster.Clients {
		cli += cl.Node.CPU.TotalBusySeconds()
	}
	return srv, cli
}

// utilization is the measured phase's windowed figures, taken at its end.
type utilization struct {
	tpt, disk, srvCPU float64
	maxQueue          int
	recvState         int64
}

func (r *rep) utilizations() utilization {
	srv := r.cluster.Server
	u := utilization{
		tpt:    srv.Node.HCA.TPTEngineUtilization(r.vMeasure),
		srvCPU: srv.Node.CPU.UtilizationSince(r.vMeasure),
	}
	if srv.Disk != nil {
		u.disk = srv.Disk.Utilization(r.vMeasure)
	}
	if srv.RDMA != nil {
		u.recvState = srv.RDMA.RecvStateBytes()
		for _, st := range srv.RDMA.ShardStats() {
			u.maxQueue = max(u.maxQueue, st.MaxQueueDepth)
		}
	}
	return u
}

// window is the part of the measured phase the simulated end-to-end
// metrics are taken over: the whole phase for the closed loops, the
// nominal rung for the open-loop ladder.
type window struct {
	readBytes, writeBytes int64
	readSecs, writeSecs   float64 // virtual seconds each byte count is rated over
	lat                   []float64
	calls                 int64
	srvBusy, cliBusy      float64
}

// rep is one simulation of a workload on a fresh cluster: set-up, then the
// measured op stream, then the post-run checks.
type rep struct {
	wl     *workload
	seed   uint64
	prefix int // 1: the full op stream; n > 1: the traced 1/n prefix
	traced bool
	// ballast allocates an unattached tracer ring, so an untraced rep runs
	// with the traced rep's heap size and GC pacing and the two differ only
	// by the cost of emitting events.
	ballast bool

	cluster *core.Cluster
	tracer  *trace.Tracer
	rec     recorder
	files   [][]*core.File // per client, as the workload's set-up opened them

	setupHost   time.Duration
	measureHost time.Duration
	mallocs     uint64 // heap allocations during the measured phase
	liveHeap    uint64 // live heap after the run, cluster still referenced
	vMeasure    des.Time
	before      snapshot
	after       snapshot
	win         window
	util        utilization
	rungs       []rungStats
	telSamples  int
}

// traceCapacity bounds the tracer ring of a traced rep. The traced prefix
// of every workload is sized so the whole simulation fits and
// Tracer.Dropped() stays zero (checked).
const traceCapacity = 1 << 20

func allocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// execute runs the rep to completion.
func (r *rep) execute() {
	runtime.GC()
	start := time.Now()
	r.rec = recorder{hostSpans: r.traced, hostBase: start}
	r.cluster = core.NewCluster(r.wl.config(r.seed))
	var ballast *trace.Tracer
	if r.traced {
		r.tracer = r.cluster.EnableTracing(traceCapacity)
	} else if r.ballast {
		ballast = trace.New(traceCapacity)
	}
	var m0 uint64
	r.cluster.Start("perfbench", func(p *des.Proc) {
		r.wl.setup(p, r)
		r.setupHost = time.Since(start)
		m0 = allocs()
		r.vMeasure = p.Now()
		r.before = r.snap()
		r.rec.measuring = true
		r.wl.measure(p, r)
		r.rec.measuring = false
		r.after = r.snap()
		r.util = r.utilizations()
	})
	r.cluster.Run()
	r.measureHost = time.Since(start) - r.setupHost
	runtime.KeepAlive(ballast)
	r.mallocs = allocs() - m0
	// With the finished cluster still referenced, everything the
	// simulation retains is live. (A peak of heap-in-use sampled during
	// the run moves with collection timing by tens of percent between
	// processes; this repeats to a fraction of a percent.)
	r.liveHeap = liveHeap()
	r.telSamples = r.cluster.Telemetry().Samples()
	r.check()
}

// transientExposure is the server memory remotely exposed beyond the
// all-physical global region. That region is the registration mode's
// standing exposure (reported as server_exposed_MB); every per-RPC
// exposure must be gone once the simulation drains.
func transientExposure(h *ibsim.HCA) int64 {
	b := h.RemoteExposedBytes()
	if g := h.GlobalMR(); g != nil && g.Valid() {
		b -= int64(g.Length())
	}
	return b
}

// check runs the output checks that need the drained simulation: no reply
// may still be parked and no server memory may remain remotely exposed.
// Sampled at the last op instead, an in-flight reply-fetch deposit can
// still be parked; after Run the simulation has quiesced.
func (r *rep) check() {
	srv := r.cluster.Server
	if srv.RDMA != nil {
		if n := srv.RDMA.ParkedReplies(); n != 0 {
			r.rec.fail("%d replies still parked after the run", n)
		}
	}
	if b := transientExposure(srv.Node.HCA); b != 0 {
		r.rec.fail("%d server bytes still remotely exposed after the run", b)
	}
	if r.tracer != nil {
		if d := r.tracer.Dropped(); d != 0 {
			r.rec.fail("tracer dropped %d events; enlarge the ring or shorten the traced prefix", d)
		}
	}
}

// attempts returns the operations the measured phase attempted and how many
// of them failed. In the open loop an arrival dropped at the outstanding
// cap is attempted and failed without making a call.
func (r *rep) attempts() (n, failed int64) {
	if len(r.rungs) == 0 {
		return r.measuredCalls()
	}
	for _, st := range r.rungs {
		n += st.Issued
		failed += st.Issued - st.Completed
	}
	return n, failed
}

// measuredCalls returns the calls of the measured phase, and how many of
// them failed.
func (r *rep) measuredCalls() (n, failed int64) {
	for i := range r.rec.calls {
		if c := &r.rec.calls[i]; c.measured {
			n++
			if c.failed {
				failed++
			}
		}
	}
	return n, failed
}
