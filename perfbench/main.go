// Command perfbench is the repository benchmark: it drives three NFS/RDMA
// traffic mixes through the public core API and reports end-to-end and
// per-layer metrics on two clocks — virtual time (what the simulated stack
// achieves; exact for a given seed) and host time (how fast this machine
// produces it). See README.md in this directory.
//
// Usage:
//
//	perfbench --workload bulk-seq|meta-small|scale-mux --seed N --seconds S --trace 0|1 [--out DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	wlName := flag.String("workload", "", "workload: bulk-seq, meta-small or scale-mux")
	seed := flag.Uint64("seed", 1, "workload seed (also core.Config.Seed)")
	seconds := flag.Int("seconds", 10, "host seconds to keep repeating the timed op stream")
	traced := flag.Int("trace", 0, "1: run the traced per-layer run instead of the timed run")
	out := flag.String("out", "", "directory for the traced run's spans, summary and CPU profile (empty: none)")
	flag.Parse()
	wl := workloadByName(*wlName)
	if wl == nil || *seed == 0 || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload bulk-seq|meta-small|scale-mux, --seed > 0 and --seconds >= 1\n")
		return 2
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d\n",
		wl.name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0))

	var res *result
	if *traced == 1 {
		res = tracedRun(wl, *seed, *out)
	} else {
		res = timedRun(wl, *seed, time.Duration(*seconds)*time.Second)
	}
	res.print(os.Stdout)
	line, err := json.Marshal(res.jsonLine())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct() {
		return 1
	}
	return 0
}

// metricDef names one reported metric with its unit and clock: "sim" is
// virtual time (exact for a seed), "host" is this machine.
type metricDef struct {
	name, unit, clock, doc string
}

// e2eDefs are the end-to-end metrics of the timed run's JSON line: every
// one is non-zero and differs from run to run on every workload.
var e2eDefs = []metricDef{
	{"setup_s", "s", "host", "NewCluster to the end of populate/tree pre-create (median of the run's set-ups)"},
	{"host_us_per_op", "us", "host", "wall-clock µs per completed core call in the measured phase (median of reps)"},
	{"host_allocs_per_op", "count", "host", "Go heap allocations per completed core call in the measured phase (median of reps)"},
	{"host_live_heap_MB", "MB", "host", "live Go heap after a rep, its cluster still referenced (median of reps)"},
	{"read_MBps", "MB/s", "sim", "read payload per simulated second"},
	{"write_MBps", "MB/s", "sim", "write payload per simulated second"},
}

// extraDefs are the other end-to-end metrics. Each is exactly seed-
// independent or zero on some workload: bulk-seq's closed loop settles into
// a fixed rotation, so its latency and CPU per call are the same for every
// seed, and slo_rate, exposure and failures are zero where they do not
// apply. The timed run prints them and digests them into the fingerprint;
// the traced run reports them with the per-layer metrics.
var extraDefs = []metricDef{
	{"op_p50_us", "us", "sim", "median latency of a core call"},
	{"op_p99_us", "us", "sim", "p99 latency of a core call"},
	{"server_cpu_us_per_op", "us", "sim", "simulated server CPU busy time per core call"},
	{"client_cpu_us_per_op", "us", "sim", "simulated client CPU busy time per core call"},
	{"slo_rate_MBps", "MB/s", "sim", "highest ladder rate with read p99 <= 1 ms, no drops, no growing backlog (scale-mux only)"},
	{"server_exposed_per_kop", "count", "sim", "server registrations ever made remotely accessible (whole run), per 1000 measured calls"},
	{"server_exposed_MB", "MB", "sim", "server memory remotely accessible at the end of the measured phase"},
	{"failed_ratio", "ratio", "sim", "calls that errored, were dropped or came back short, over calls attempted"},
}

// reported is one metric's value in a result.
type reported struct {
	metricDef
	value  float64
	inJSON bool // listed in BENCHMARK.json for this kind of run
}

// result is what one invocation reports.
type result struct {
	reps        int
	attempted   int64
	failed      int64
	failures    []string
	metrics     []reported
	fingerprint string
	notes       []string
}

func (r *result) set(d metricDef, v float64, inJSON bool) {
	r.metrics = append(r.metrics, reported{d, v, inJSON})
}

func (r *result) correct() bool { return len(r.failures) == 0 }

func (r *result) print(w *os.File) {
	fmt.Fprintf(w, "reps=%d attempted=%d failed=%d fingerprint=%s\n", r.reps, r.attempted, r.failed, r.fingerprint)
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintf(w, "%-34s %16s  %-6s %-5s %s\n", "metric", "value", "unit", "clock", "meaning")
	for _, m := range r.metrics {
		json := ""
		if !m.inJSON {
			json = " [printed only]"
		}
		fmt.Fprintf(w, "%-34s %16.6g  %-6s %-5s %s%s\n", m.name, m.value, m.unit, m.clock, m.doc, json)
	}
	if r.correct() {
		fmt.Fprintln(w, "checks: ok")
	} else {
		fmt.Fprintf(w, "checks: FAILED\n  %s\n", strings.Join(r.failures, "\n  "))
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// jsonLine holds exactly BENCHMARK.json's metrics: every end-to-end metric
// after a timed run, every per-layer metric after a traced run.
func (r *result) jsonLine() jsonResult {
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		if m.inJSON {
			out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	return out
}

// timedRun repeats the full op stream on fresh clusters until the host
// budget is spent (at least minReps times). Simulated metrics come from
// the first rep and must be bit-identical in every other; host metrics are
// medians over reps.
func timedRun(wl *workload, seed uint64, budget time.Duration) *result {
	const minReps = 2
	res := &result{}
	deadline := time.Now().Add(budget)
	var setup, usPerOp, allocsPerOp, heap []float64
	var first map[string]float64
	for res.reps < minReps || time.Now().Before(deadline) {
		r := &rep{wl: wl, seed: seed, prefix: 1}
		r.execute()
		sim := simMetrics(r)
		fp := fingerprint(sim)
		if first == nil {
			first, res.fingerprint = sim, fp
			res.notes = append(res.notes, rungNotes(r.rungs)...)
		} else if fp != res.fingerprint {
			res.failures = append(res.failures, fmt.Sprintf("rep %d: simulated fingerprint %s differs from rep 0's %s (%s)",
				res.reps, fp, res.fingerprint, firstDiff(first, sim)))
		}
		n, failed := r.attempts()
		res.attempted += n
		res.failed += failed
		for _, f := range r.rec.failures {
			res.failures = append(res.failures, fmt.Sprintf("rep %d: %s", res.reps, f))
		}
		done := float64(n - failed)
		setup = append(setup, r.setupHost.Seconds())
		usPerOp = append(usPerOp, ratio(float64(r.measureHost.Nanoseconds())/1e3, done))
		allocsPerOp = append(allocsPerOp, ratio(float64(r.mallocs), done))
		heap = append(heap, float64(r.liveHeap)/1e6)
		res.reps++
	}
	for i, v := range [][]float64{setup, usPerOp, allocsPerOp, heap} {
		res.set(e2eDefs[i], median(v), true)
	}
	for _, d := range e2eDefs[4:] {
		res.set(d, first[d.name], true)
	}
	for _, d := range extraDefs {
		res.set(d, first[d.name], false)
	}
	res.notes = append(res.notes, fmt.Sprintf("host µs per call by rep: %.1f", usPerOp))
	if p := first["op_p99_q"]; p < 0.99 {
		res.failures = append(res.failures, fmt.Sprintf("op_p99_us rests on %v samples, fewer than the 1000 a p99 needs", first["op_samples"]))
	}
	res.notes = append(res.notes, fmt.Sprintf("op latency samples: %v", first["op_samples"]))
	return res
}

// firstDiff names the first simulated metric that differs between two reps.
func firstDiff(a, b map[string]float64) string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if a[n] != b[n] {
			return fmt.Sprintf("%s: %v vs %v", n, a[n], b[n])
		}
	}
	return "metric sets differ"
}
