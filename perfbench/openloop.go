package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/des"
)

// arrival is one scheduled request of an open-loop client, as an offset
// from the start of its rung.
type arrival struct {
	at    des.Duration
	write bool
	block int64
}

// mixSeed derives an independent stream seed from the workload seed and
// the stream's coordinates (splitmix64 finalizer).
func mixSeed(seed uint64, a, b uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + a*0xBF58476D1CE4E5B9 + b*0x94D049BB133111EB + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// schedule draws one client's Poisson arrivals for a window of the given
// length. The gap that would cross the deadline is cut there: every
// arrival lies strictly inside the window and the client issues nothing
// after it, so a rung lasts exactly its window plus the drain of the
// requests still in flight at the deadline.
func schedule(rng *des.Rand, meanGap, window des.Duration, blocks int64) []arrival {
	var out []arrival
	var t des.Duration
	for {
		t += rng.ExpDuration(meanGap)
		if t >= window {
			return out
		}
		out = append(out, arrival{at: t, block: rng.Int63n(blocks)})
	}
}

// assignWrites makes every writeEvery-th arrival of the rung, in time order
// across all clients and starting at offset, a write. The mix is then exact
// rather than a per-arrival coin flip, which keeps the written bytes of a
// rung from swinging with the seed.
func assignWrites(scheds [][]arrival, writeEvery, offset int) {
	type ref struct{ client, idx int }
	var all []ref
	for c, s := range scheds {
		for i := range s {
			all = append(all, ref{c, i})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		return scheds[all[a].client][all[a].idx].at < scheds[all[b].client][all[b].idx].at
	})
	for k, r := range all {
		scheds[r.client][r.idx].write = (k+offset)%writeEvery == 0
	}
}

// arrivalGap is each client's mean inter-arrival time when clients share an
// aggregate offered rate of rateMBps in record-sized requests.
func arrivalGap(record int, rateMBps float64, clients int) des.Duration {
	return des.Duration(float64(record) / (rateMBps * 1e6 / float64(clients)) * 1e9)
}

// rungSchedules generates one rung's op stream: every client's independent
// seeded Poisson arrivals, with the exact write mix assigned across them.
func rungSchedules(seed uint64, rung, clients int, meanGap, window des.Duration, blocks int64, writeEvery int) [][]arrival {
	scheds := make([][]arrival, clients)
	for i := range scheds {
		rng := des.NewRand(mixSeed(seed, uint64(i), uint64(rung)))
		scheds[i] = schedule(rng, meanGap, window, blocks)
	}
	assignWrites(scheds, writeEvery, int(mixSeed(seed, uint64(clients), uint64(rung))%uint64(writeEvery)))
	return scheds
}

// SLO of the open-loop ladder: the read p99 budget (telemetry's
// DetectSLOBurn default), and the backlog growth that marks a rung as past
// saturation. A stable queue fluctuates around rate×latency; a saturated
// one keeps growing, so its second-half growth is a large share of its
// mid-window depth. The absolute slack is one client's outstanding cap,
// which absorbs Poisson jitter at low depths.
const (
	sloReadP99us = 1000.0
	backlogSlack = 32
)

// rungStats is the measured outcome of one open-loop rung.
type rungStats struct {
	OfferedMBps float64
	Window      des.Duration
	Elapsed     des.Duration // window plus drain

	Issued, Completed, Dropped, Errors int64
	IssuedBytes, ReadBytes, WriteBytes int64
	BacklogMid, BacklogEnd             int64

	ReadLat []float64 // µs, reads only
	Lat     []float64 // µs, every call

	// CPU busy seconds over the rung (server, sum of clients).
	ServerBusy, ClientBusy float64
}

// AchievedMBps is completed payload over the window plus drain.
func (r *rungStats) AchievedMBps() float64 {
	return ratio(float64(r.ReadBytes+r.WriteBytes), r.Elapsed.Seconds()) / 1e6
}

// IssuedMBps is issued payload over the window alone.
func (r *rungStats) IssuedMBps() float64 {
	return ratio(float64(r.IssuedBytes), r.Window.Seconds()) / 1e6
}

// backlogGrowing reports whether the in-flight count grew materially over
// the second half of the window.
func backlogGrowing(mid, end int64) bool {
	return end-mid > max(backlogSlack, mid/2)
}

// meetsSLO reports whether a rung held the read p99 budget (over enough
// samples for a p99), dropped and failed nothing, and kept a stable
// backlog.
func meetsSLO(r *rungStats) bool {
	p := percentile(append([]float64(nil), r.ReadLat...), 0.99)
	return p.Q >= 0.99 && p.V <= sloReadP99us && r.Dropped == 0 && r.Errors == 0 &&
		!backlogGrowing(r.BacklogMid, r.BacklogEnd)
}

// sloRate is the highest offered rate of the ladder at which the SLO held;
// zero when no rung met it.
func sloRate(rungs []rungStats) float64 {
	best := 0.0
	for i := range rungs {
		if meetsSLO(&rungs[i]) && rungs[i].OfferedMBps > best {
			best = rungs[i].OfferedMBps
		}
	}
	return best
}

// openLoop drives every client of the cluster through one rung: each
// client runs its own seeded Poisson stream at rate/len(clients), spawning
// one simulated process per request. Arrivals beyond maxOutstanding
// in-flight requests of a client are dropped, not queued. The rung ends
// when the window has passed and the last request has completed.
type openLoop struct {
	r          *rep
	files      []*core.File
	record     int
	blocks     int64
	maxOut     int
	writeEvery int
	names      []string
	free       [][]*core.Buffer
}

func (ol *openLoop) run(p *des.Proc, rung int, rateMBps float64, window des.Duration) rungStats {
	sim := p.Sim()
	clients := ol.r.cluster.Clients
	n := len(clients)
	st := rungStats{OfferedMBps: rateMBps, Window: window}
	meanGap := arrivalGap(ol.record, rateMBps, n)
	srv0, cli0 := ol.r.busy()
	start := p.Now()

	var outstanding int64
	live := n // generators still issuing
	drained := des.NewEvent(sim)
	settle := func() {
		if live == 0 && outstanding == 0 {
			drained.TryFire(nil)
		}
	}
	scheds := rungSchedules(ol.r.seed, rung, n, meanGap, window, ol.blocks, ol.writeEvery)
	for i := 0; i < n; i++ {
		i := i
		sched := scheds[i]
		inflight := 0
		sim.Spawn(ol.names[i], func(gp *des.Proc) {
			for _, a := range sched {
				gp.Sleep(des.Duration(start + des.Time(a.at) - gp.Now()))
				st.Issued++
				st.IssuedBytes += int64(ol.record)
				if inflight >= ol.maxOut {
					st.Dropped++
					continue
				}
				inflight++
				outstanding++
				a := a
				sim.Spawn(ol.names[i], func(op *des.Proc) {
					buf := ol.buffer(i)
					off := a.block * int64(ol.record)
					t0 := ol.r.rec.begin(op)
					var got int
					var err error
					kind := callRead
					if a.write {
						kind = callWrite
						got, err = ol.files[i].WriteAt(op, buf, 0, off, ol.record, false)
					} else {
						got, _, err = ol.files[i].ReadAt(op, buf, 0, off, ol.record, false)
					}
					lat := ol.r.rec.end(op, t0, kind, i, got, ol.record, err)
					if err != nil || got != ol.record {
						st.Errors++
					} else {
						st.Completed++
						st.Lat = append(st.Lat, lat)
						if a.write {
							st.WriteBytes += int64(got)
						} else {
							st.ReadBytes += int64(got)
							st.ReadLat = append(st.ReadLat, lat)
						}
					}
					ol.free[i] = append(ol.free[i], buf)
					inflight--
					outstanding--
					settle()
				})
			}
			live--
			settle()
		})
	}
	p.Sleep(window / 2)
	st.BacklogMid = outstanding
	p.Sleep(window - window/2)
	st.BacklogEnd = outstanding
	drained.Wait(p)
	st.Elapsed = des.Duration(p.Now() - start)
	srv1, cli1 := ol.r.busy()
	st.ServerBusy, st.ClientBusy = srv1-srv0, cli1-cli0
	return st
}

// buffer takes a record buffer from client i's free list.
func (ol *openLoop) buffer(i int) *core.Buffer {
	if f := ol.free[i]; len(f) > 0 {
		b := f[len(f)-1]
		ol.free[i] = f[:len(f)-1]
		return b
	}
	return ol.r.cluster.Clients[i].NewBuffer(ol.record)
}

// rungNotes renders one line per ladder rung: offered, issued and achieved
// rate, read latency, backlog and whether the rung met the SLO.
func rungNotes(rungs []rungStats) []string {
	var out []string
	for i := range rungs {
		st := &rungs[i]
		p50 := percentile(append([]float64(nil), st.ReadLat...), 0.50)
		p99 := percentile(append([]float64(nil), st.ReadLat...), 0.99)
		out = append(out, fmt.Sprintf("rung %4.0f MB/s: issued %.1f MB/s achieved %.1f MB/s, read p50 %.0f µs p99 %.0f µs (p%.1f of %d), dropped %d, backlog %d→%d, slo %v",
			st.OfferedMBps, st.IssuedMBps(), st.AchievedMBps(), p50.V, p99.V, 100*p99.Q, p99.N,
			st.Dropped, st.BacklogMid, st.BacklogEnd, meetsSLO(st)))
	}
	return out
}
