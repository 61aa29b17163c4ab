package main

import (
	"sort"

	"repro/internal/trace"
)

// counterDefs are the per-layer metrics read from the program's own
// counters over the measured phase of a full (untraced) rep. They are
// simulated counts, exact for a seed.
var counterDefs = []metricDef{
	{"ibsim.wqe_per_op", "count", "sim", "fabric work requests (send+write+read) per call"},
	{"ibsim.bytes_per_op", "B", "sim", "fabric bytes moved per call"},
	{"ibsim.rnr_per_kop", "count", "sim", "receiver-not-ready redeliveries per 1000 calls"},
	{"ibsim.tpt_util_pct", "%", "sim", "server TPT (registration) engine utilization"},
	{"memreg.reg_calls_per_op", "count", "sim", "client+server registrations and FMR maps per call"},
	{"memreg.cache_hit_ratio", "ratio", "sim", "registration-cache hits over lookups (cache mode)"},
	{"rpcrdma.done_per_op", "count", "sim", "RDMA_DONE messages received by the server per call"},
	{"rpcrdma.bulk_reads_per_op", "count", "sim", "server RDMA Read chunk pulls per call"},
	{"rpcrdma.bulk_writes_per_op", "count", "sim", "server RDMA Write chunk pushes per call"},
	{"rpcrdma.long_replies_per_op", "count", "sim", "long replies per call"},
	{"rpcrdma.srq_starved", "count", "sim", "SRQ takes that found the pool empty (all shards)"},
	{"rpcrdma.max_queue_depth", "count", "sim", "deepest shard work queue"},
	{"rpcrdma.recv_state_bytes", "B", "sim", "server receive-side control memory"},
	{"rpcrdma.retransmits_per_kop", "count", "sim", "client retransmissions per 1000 calls"},
	{"vfs.pagecache_hit_ratio", "ratio", "sim", "server page-cache hits over lookups (disk back end)"},
	{"vfs.disk_read_bytes_per_op", "B", "sim", "array bytes read per call"},
	{"vfs.disk_write_bytes_per_op", "B", "sim", "array bytes written per call"},
	{"vfs.disk_util_pct", "%", "sim", "array utilization"},
	{"cpu.server_util_pct", "%", "sim", "server CPU utilization"},
	{"cpu.interrupts_per_op", "count", "sim", "client+server interrupts per call"},
	{"cpu.migrations_per_kop", "count", "sim", "server cross-CPU completion handoffs per 1000 calls"},
	{"telemetry.samples", "count", "sim", "telemetry sampler ticks in the measured phase"},
}

// simMetrics returns every simulated figure of a rep: the end-to-end sim
// metrics, the zero-able extras, the counter-based per-layer metrics and
// the per-call latency percentiles. The fingerprint digests all of them.
func simMetrics(r *rep) map[string]float64 {
	m := map[string]float64{}
	w := &r.win
	m["read_MBps"] = ratio(float64(w.readBytes), w.readSecs) / 1e6
	m["write_MBps"] = ratio(float64(w.writeBytes), w.writeSecs) / 1e6
	lat := percentile(append([]float64(nil), w.lat...), 0.50)
	m["op_p50_us"] = lat.V
	p99 := percentile(append([]float64(nil), w.lat...), 0.99)
	m["op_p99_us"], m["op_p99_q"], m["op_samples"] = p99.V, p99.Q, float64(p99.N)
	m["server_cpu_us_per_op"] = ratio(w.srvBusy*1e6, float64(w.calls))
	m["client_cpu_us_per_op"] = ratio(w.cliBusy*1e6, float64(w.calls))

	n, _ := r.measuredCalls()
	attempted, failed := r.attempts()
	m["slo_rate_MBps"] = sloRate(r.rungs)
	b, a := &r.before, &r.after
	ops := float64(n)
	m["server_exposed_per_kop"] = ratio(1000*float64(a.exposedEver), ops)
	m["server_exposed_MB"] = float64(a.exposedBytes) / 1e6
	m["failed_ratio"] = ratio(float64(failed), float64(attempted))

	m["ibsim.wqe_per_op"] = ratio(float64(a.wqe-b.wqe), ops)
	m["ibsim.bytes_per_op"] = ratio(float64(a.wireBytes-b.wireBytes), ops)
	m["ibsim.rnr_per_kop"] = ratio(1000*float64(a.rnr-b.rnr), ops)
	m["ibsim.tpt_util_pct"] = r.util.tpt * 100
	m["memreg.reg_calls_per_op"] = ratio(float64(a.regCalls-b.regCalls), ops)
	hits, misses := float64(a.cacheHits-b.cacheHits), float64(a.cacheMisses-b.cacheMisses)
	m["memreg.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["rpcrdma.done_per_op"] = ratio(float64(a.done-b.done), ops)
	m["rpcrdma.bulk_reads_per_op"] = ratio(float64(a.bulkReads-b.bulkReads), ops)
	m["rpcrdma.bulk_writes_per_op"] = ratio(float64(a.bulkWrites-b.bulkWrites), ops)
	m["rpcrdma.long_replies_per_op"] = ratio(float64(a.longReplies-b.longReplies), ops)
	m["rpcrdma.srq_starved"] = float64(a.srqStarved - b.srqStarved)
	m["rpcrdma.max_queue_depth"] = float64(r.util.maxQueue)
	m["rpcrdma.recv_state_bytes"] = float64(r.util.recvState)
	m["rpcrdma.retransmits_per_kop"] = ratio(1000*float64(a.retransmits-b.retransmits), ops)
	ph, pm := float64(a.pcHits-b.pcHits), float64(a.pcMisses-b.pcMisses)
	m["vfs.pagecache_hit_ratio"] = ratio(ph, ph+pm)
	m["vfs.disk_read_bytes_per_op"] = ratio(float64(a.diskRead-b.diskRead), ops)
	m["vfs.disk_write_bytes_per_op"] = ratio(float64(a.diskWrite-b.diskWrite), ops)
	m["vfs.disk_util_pct"] = r.util.disk * 100
	m["cpu.server_util_pct"] = r.util.srvCPU * 100
	m["cpu.interrupts_per_op"] = ratio(float64(a.srvIntr-b.srvIntr+a.cliIntr-b.cliIntr), ops)
	m["cpu.migrations_per_kop"] = ratio(1000*float64(a.migrations-b.migrations), ops)
	m["telemetry.samples"] = float64(r.telSamples)

	for k, pc := range callPercentiles(r.rec.calls) {
		m["core."+callNames[k]+"_us_p50"] = pc[0].V
		m["core."+callNames[k]+"_us_p99"] = pc[1].V
	}
	return m
}

// callPercentiles returns p50 and p99 virtual latency per core call kind,
// over every call of the rep (set-up calls included: Mkdir and Open occur
// only there).
func callPercentiles(calls []call) [numCalls][2]pctl {
	var lat [numCalls][]float64
	for i := range calls {
		c := &calls[i]
		if !c.failed {
			lat[c.kind] = append(lat[c.kind], (c.vEnd - c.vStart).Micros())
		}
	}
	var out [numCalls][2]pctl
	for k := range lat {
		out[k][0] = percentile(lat[k], 0.50)
		out[k][1] = percentile(lat[k], 0.99)
	}
	return out
}

// nfsProcs are the procedures whose client-side latency the traced run
// reports.
var nfsProcs = []string{"GETATTR", "LOOKUP", "READ", "WRITE", "COMMIT", "CREATE", "REMOVE"}

// span is one closed interval on a trace track.
type span struct {
	track      string
	start, end int64
}

// containedTotal sums the durations of children that lie inside some parent
// on the same track. Concurrent threads of one client share a track, so a
// child may sit inside a sibling thread's parent; the layer totals are the
// same either way, which is all self time needs.
func containedTotal(parents, children []span) int64 {
	byTrack := map[string][]span{}
	for _, p := range parents {
		byTrack[p.track] = append(byTrack[p.track], p)
	}
	for t := range byTrack {
		ps := byTrack[t]
		sort.Slice(ps, func(i, j int) bool { return ps[i].start < ps[j].start })
	}
	kids := append([]span(nil), children...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	next := map[string]int{}
	active := map[string][]span{}
	var total int64
	for _, c := range kids {
		ps := byTrack[c.track]
		i := next[c.track]
		act := active[c.track]
		for ; i < len(ps) && ps[i].start <= c.start; i++ {
			act = append(act, ps[i])
		}
		next[c.track] = i
		keep := act[:0]
		inside := false
		for _, p := range act {
			if p.end < c.start {
				continue
			}
			keep = append(keep, p)
			if p.end >= c.end {
				inside = true
			}
		}
		active[c.track] = keep
		if inside {
			total += c.end - c.start
		}
	}
	return total
}

func spanTotal(ss []span) int64 {
	var t int64
	for _, s := range ss {
		t += s.end - s.start
	}
	return t
}

// traceDefs are the per-layer metrics derived from the traced rep's event
// stream over its measured phase.
var traceDefs = []metricDef{
	{"des.blocked_per_op", "count", "sim", "process park→resume spans per call"},
	{"des.spawns_per_op", "count", "sim", "process spawns per call"},
	{"ibsim.wqe_us_p50", "us", "sim", "median WQE post→completion"},
	{"ibsim.ord_wait_us_per_op", "us", "sim", "RDMA Read time stalled on ORD slots per call"},
	{"memreg.reg_us_per_op", "us", "sim", "time inside registration/map calls per call"},
	{"rpcrdma.rpc_us_p50", "us", "sim", "median client RPC round trip"},
	{"rpcrdma.rpc_us_p99", "us", "sim", "p99 client RPC round trip"},
	{"rpcrdma.credit_wait_us_per_op", "us", "sim", "client time blocked on credits per call"},
	{"rpcrdma.serve_us_per_op", "us", "sim", "server message handling time per call"},
	{"rpcrdma.parked_us_per_op", "us", "sim", "server reply-buffer time parked awaiting DONE per call"},
	{"oncrpc.dispatch_us_per_op", "us", "sim", "server service-handler time per call"},
	{"core.self_us_per_op", "us", "sim", "core call time outside its NFS procedures, per call"},
	{"nfs3.self_us_per_op", "us", "sim", "NFS procedure time outside its RPC, per call"},
	{"rpcrdma.self_us_per_op", "us", "sim", "client RPC time outside server dispatch and client registration, per call"},
}

func nfsDefs() []metricDef {
	var out []metricDef
	for _, p := range nfsProcs {
		out = append(out,
			metricDef{"nfs3." + p + "_us_p50", "us", "sim", "median client-side " + p},
			metricDef{"nfs3." + p + "_us_p99", "us", "sim", "p99 client-side " + p})
	}
	return out
}

func coreDefs() []metricDef {
	var out []metricDef
	for _, c := range callNames {
		out = append(out,
			metricDef{"core." + c + "_us_p50", "us", "sim", "median " + c + " call"},
			metricDef{"core." + c + "_us_p99", "us", "sim", "p99 " + c + " call"})
	}
	return out
}

// traceMetrics derives the trace-based per-layer metrics of a traced rep.
// Only events that start in the measured phase count; per-call figures
// divide by the measured calls.
func traceMetrics(r *rep, events []trace.Event) map[string]float64 {
	from := int64(r.vMeasure)
	ops, _ := r.measuredCalls()
	n := float64(ops)
	m := map[string]float64{}
	type pair struct {
		track string
		id    uint64
	}
	wqeOpen := map[pair]int64{}
	parkOpen := map[pair]int64{}
	var wqeLat, rpcLat []float64
	nfsLat := map[string][]float64{}
	var blocked, spawns, ordWait, regTime, creditWait, serve, parked, dispatch int64
	var nfsSpans, rpcSpans, rpcKids []span
	for i := range events {
		e := &events[i]
		if e.T < from {
			continue
		}
		switch e.Kind {
		case trace.KindBlocked:
			blocked++
		case trace.KindSpawn:
			spawns++
		case trace.KindWQE:
			k := pair{e.Track, e.ID}
			if e.Phase == trace.PhaseBegin {
				wqeOpen[k] = e.T
			} else if t0, ok := wqeOpen[k]; ok {
				wqeLat = append(wqeLat, float64(e.T-t0)/1e3)
				delete(wqeOpen, k)
			}
		case trace.KindParked:
			k := pair{e.Track, e.ID}
			if e.Phase == trace.PhaseBegin {
				parkOpen[k] = e.T
			} else if t0, ok := parkOpen[k]; ok {
				parked += e.T - t0
				delete(parkOpen, k)
			}
		case trace.KindORDWait:
			ordWait += e.Dur
		case trace.KindRegCall:
			regTime += e.Dur
			rpcKids = append(rpcKids, span{e.Track, e.T, e.End()})
		case trace.KindRPC:
			rpcLat = append(rpcLat, float64(e.Dur)/1e3)
			rpcSpans = append(rpcSpans, span{e.Track, e.T, e.End()})
		case trace.KindCreditWait:
			creditWait += e.Dur
		case trace.KindServe:
			serve += e.Dur
		case trace.KindDispatch:
			dispatch += e.Dur
			rpcKids = append(rpcKids, span{e.Track, e.T, e.End()})
		case trace.KindNFSProc:
			nfsLat[e.Name] = append(nfsLat[e.Name], float64(e.Dur)/1e3)
			nfsSpans = append(nfsSpans, span{e.Track, e.T, e.End()})
		}
	}
	var coreSpans []span
	for i := range r.rec.calls {
		c := &r.rec.calls[i]
		if c.measured {
			coreSpans = append(coreSpans, span{r.cluster.Clients[c.client].Node.Name(), int64(c.vStart), int64(c.vEnd)})
		}
	}
	us := func(ns int64) float64 { return ratio(float64(ns)/1e3, n) }
	m["des.blocked_per_op"] = ratio(float64(blocked), n)
	m["des.spawns_per_op"] = ratio(float64(spawns), n)
	m["ibsim.wqe_us_p50"] = percentile(wqeLat, 0.50).V
	m["ibsim.ord_wait_us_per_op"] = us(ordWait)
	m["memreg.reg_us_per_op"] = us(regTime)
	m["rpcrdma.rpc_us_p50"] = percentile(rpcLat, 0.50).V
	m["rpcrdma.rpc_us_p99"] = percentile(rpcLat, 0.99).V
	m["rpcrdma.credit_wait_us_per_op"] = us(creditWait)
	m["rpcrdma.serve_us_per_op"] = us(serve)
	m["rpcrdma.parked_us_per_op"] = us(parked)
	m["oncrpc.dispatch_us_per_op"] = us(dispatch)
	m["core.self_us_per_op"] = us(spanTotal(coreSpans) - containedTotal(coreSpans, nfsSpans))
	m["nfs3.self_us_per_op"] = us(spanTotal(nfsSpans) - containedTotal(nfsSpans, rpcSpans))
	m["rpcrdma.self_us_per_op"] = us(spanTotal(rpcSpans) - containedTotal(rpcSpans, rpcKids))
	for _, p := range nfsProcs {
		m["nfs3."+p+"_us_p50"] = percentile(nfsLat[p], 0.50).V
		m["nfs3."+p+"_us_p99"] = percentile(nfsLat[p], 0.99).V
	}
	return m
}
