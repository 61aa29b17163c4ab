package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/trace"
)

// shareDefs are the host-time shares by module, from the CPU profile.
func shareDefs() []metricDef {
	var out []metricDef
	for _, m := range append(append([]string(nil), shareModules...), "gc", "other") {
		out = append(out, metricDef{"host_share." + m, "ratio", "host", "share of CPU-profile samples charged to " + m})
	}
	return out
}

var overheadDef = metricDef{"trace_overhead_pct", "%", "host", "traced host µs per call over untraced, same prefix, minus 100%"}

// perLayerDefs lists every per-layer metric, in report order. The traced
// run's JSON line carries exactly these.
func perLayerDefs() []metricDef {
	var out []metricDef
	out = append(out, extraDefs...)
	out = append(out, counterDefs...)
	out = append(out, coreDefs()...)
	out = append(out, traceDefs...)
	out = append(out, nfsDefs()...)
	out = append(out, ladderDefs...)
	out = append(out, shareDefs()...)
	out = append(out, overheadDef)
	return out
}

// tracedRun is the per-layer run. It executes, in order:
//  1. the full op stream untraced under the CPU profiler: the counter-based
//     per-layer metrics, the zero-able end-to-end extras and the host-time
//     shares by module;
//  2. pairs of the workload's traced prefix, untraced then with the
//     program's virtual-time tracer on, every benchmark call wrapped in a
//     span with virtual and host start/end and an op id: the overhead, the
//     trace-based metrics and the trace invariant checks;
//  3. the ladder rungs.
//
// End-to-end metrics never come from this run.
func tracedRun(wl *workload, seed uint64, out string) *result {
	res := &result{}
	fail := func(format string, args ...any) { res.failures = append(res.failures, fmt.Sprintf(format, args...)) }

	// The profile covers full untraced reps until it holds profileSeconds
	// of samples, so module shares rest on a few hundred samples.
	const profileSeconds = 3 * time.Second
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		fail("cpu profile: %v", err)
	}
	// collect keeps a finished rep's failed checks; reps themselves are
	// dropped as soon as possible, since a scale-mux cluster is large.
	collect := func(r *rep) {
		for _, f := range r.rec.failures {
			fail("%s", f)
		}
	}
	var sim map[string]float64
	fullReps := 0
	for start := time.Now(); sim == nil || time.Since(start) < profileSeconds; {
		r := &rep{wl: wl, seed: seed, prefix: 1}
		r.execute()
		collect(r)
		fullReps++
		if sim == nil {
			sim = simMetrics(r)
			res.fingerprint = fingerprint(sim)
			res.attempted, res.failed = r.attempts()
			res.notes = append(res.notes, rungNotes(r.rungs)...)
		} else if fp := fingerprint(simMetrics(r)); fp != res.fingerprint {
			fail("profiled rep: simulated fingerprint %s differs from %s", fp, res.fingerprint)
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := hostShares(prof.Bytes())
	if err != nil {
		fail("%v", err)
	}
	res.notes = append(res.notes, fmt.Sprintf("cpu profile: %d samples over %d full reps", samples, fullReps))

	// Overhead: the prefix untraced and traced, alternating, medians.
	const overheadPairs = 3
	var baseUs, tracedUs []float64
	var traced *rep
	for i := 0; i < overheadPairs; i++ {
		for _, on := range []bool{false, true} {
			r := &rep{wl: wl, seed: seed, prefix: wl.prefix, traced: on, ballast: !on}
			r.execute()
			collect(r)
			ops, _ := r.measuredCalls()
			us := ratio(float64(r.measureHost.Microseconds()), float64(ops))
			if on {
				tracedUs = append(tracedUs, us)
				traced = r
			} else {
				baseUs = append(baseUs, us)
			}
		}
	}
	events := traced.tracer.Events()
	tm := traceMetrics(traced, events)
	tracedOps, _ := traced.measuredCalls()
	res.notes = append(res.notes, fmt.Sprintf("traced prefix: 1/%d of the op stream, %d calls, %d events, %d dropped",
		wl.prefix, tracedOps, traced.tracer.Len(), traced.tracer.Dropped()))

	if err := trace.CheckWQECQE(events); err != nil {
		fail("trace: %v", err)
	}
	if err := trace.CheckExposureBounds(events); err != nil {
		if wl.perRPCExposure {
			fail("trace: %v", err)
		} else {
			res.notes = append(res.notes, "CheckExposureBounds not required: all-physical exposes the permanent global region")
		}
	}
	if wl.serverUnexposed {
		if err := trace.CheckNoRemoteExposure(events, "server"); err != nil {
			fail("trace: %v", err)
		}
	}

	lm := ladder(wl)
	res.reps = fullReps + 2*overheadPairs
	for _, d := range perLayerDefs() {
		var v float64
		switch {
		case d.name == overheadDef.name:
			v = 100 * (ratio(median(tracedUs), median(baseUs)) - 1)
		case strings.HasPrefix(d.name, "host_share."):
			v = shares[strings.TrimPrefix(d.name, "host_share.")]
		default:
			var ok bool
			if v, ok = tm[d.name]; !ok {
				if v, ok = lm[d.name]; !ok {
					v = sim[d.name]
				}
			}
		}
		res.set(d, v, true)
	}
	if out != "" {
		if err := writeTrace(out, wl, traced, events, prof.Bytes()); err != nil {
			fail("writing trace output: %v", err)
		}
	}
	return res
}

// writeTrace saves the traced run for inspection: the benchmark's own call
// spans (one JSON object per line), the program's per-layer text summary,
// and the CPU profile of the full untraced run.
func writeTrace(dir string, wl *workload, r *rep, events []trace.Event, profile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, wl.name)
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := range r.rec.calls {
		c, h := &r.rec.calls[i], r.rec.host[i]
		fmt.Fprintf(w, `{"op":%d,"call":%q,"track":%q,"measured":%t,"failed":%t,"v_start_ns":%d,"v_end_ns":%d,"h_start_ns":%d,"h_end_ns":%d}`+"\n",
			i+1, callNames[c.kind], r.cluster.Clients[c.client].Node.Name(), c.measured, c.failed,
			int64(c.vStart), int64(c.vEnd), h.start, h.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(base+".summary.txt", []byte(trace.Summary(events)), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", profile, 0o644)
}
