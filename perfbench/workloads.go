package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/telemetry"
)

// workload is one traffic mix: the cluster it runs on, its set-up, and its
// measured op stream. The op stream is generated from the seed alone; the
// program under test only sees the resulting calls.
type workload struct {
	name string
	why  string

	config  func(seed uint64) core.Config
	setup   func(p *des.Proc, r *rep)
	measure func(p *des.Proc, r *rep)

	// prefix is the divisor that shortens the op stream for the traced
	// run so its whole simulation fits the tracer ring.
	prefix int

	// record is the payload size of the workload's transfers and chunk the
	// RPC/RDMA chunk shape of its calls, for the ladder rungs.
	record int
	chunk  rpcrdma.Header

	// serverUnexposed: the design never exposes server memory, so the
	// traced run checks the server track with CheckNoRemoteExposure.
	// perRPCExposure: every remotely accessible registration belongs to one
	// RPC, so the traced run checks CheckExposureBounds. All-physical
	// registration exposes one permanent global region instead, which that
	// check reports as never deregistered by construction.
	serverUnexposed bool
	perRPCExposure  bool
}

var workloads = []*workload{bulkSeq, metaSmall, scaleMux}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// parallel runs fn for i in [0,n) as n simulated processes and waits for
// all of them.
func parallel(p *des.Proc, name string, n int, fn func(wp *des.Proc, i int)) {
	if n == 0 {
		return
	}
	sim := p.Sim()
	left := n
	done := des.NewEvent(sim)
	for i := 0; i < n; i++ {
		i := i
		sim.Spawn(name, func(wp *des.Proc) {
			fn(wp, i)
			if left--; left == 0 {
				done.Fire(nil)
			}
		})
	}
	done.Wait(p)
}

// --- bulk-seq --------------------------------------------------------------

const (
	bulkThreads = 8
	bulkRecord  = 128 << 10
	bulkRecords = 1024 // per thread: a 128 MiB file

	// bulkStagger bounds each thread's seeded start delay in a phase. It
	// makes the threads interleave as independent threads do instead of
	// starting in the same nanosecond; the records each thread writes and
	// reads, and their order, do not depend on the seed.
	bulkStagger = 200 * time.Microsecond
)

// bulkOffsets is one thread's op stream in each phase: its file's records
// in order. It takes no seed.
func bulkOffsets(records int) []int64 {
	offs := make([]int64, records)
	for k := range offs {
		offs[k] = int64(k) * bulkRecord
	}
	return offs
}

var bulkSeq = &workload{
	name: "bulk-seq",
	why:  "paper's headline Read-Write + registration-cache path: bulk RDMA bytes, no page cache, SRQ, DONE or metadata",
	config: func(seed uint64) core.Config {
		return core.Config{
			Profile:   profiles.SolarisSDR(),
			Transport: core.TransportRDMA,
			Design:    rpcrdma.ReadWrite,
			RegMode:   memreg.Cache,
			Clients:   1,
			Backend:   core.BackendTmpfs,
			Seed:      seed,
		}
	},
	setup: func(p *des.Proc, r *rep) {
		cl := r.cluster.Clients[0]
		r.files = [][]*core.File{make([]*core.File, bulkThreads)}
		for i := range r.files[0] {
			m := r.rec.begin(p)
			f, err := cl.Create(p, fmt.Sprintf("bulk.%d", i))
			r.rec.end(p, m, callCreate, 0, 0, 0, err)
			r.files[0][i] = f
		}
	},
	measure: func(p *des.Proc, r *rep) {
		cl := r.cluster.Clients[0]
		records := bulkRecords / r.prefix
		srv0, cli0 := r.busy()
		rng := des.NewRand(mixSeed(r.seed, 0, 0))
		phase := func(write bool) (moved int64, secs float64) {
			t0 := p.Now()
			var stagger [bulkThreads]des.Duration
			for i := range stagger {
				stagger[i] = des.Duration(rng.Int63n(int64(bulkStagger)))
			}
			parallel(p, "bulk", bulkThreads, func(wp *des.Proc, i int) {
				f := r.files[0][i]
				if f == nil {
					return
				}
				buf := cl.NewBuffer(bulkRecord)
				wp.Sleep(stagger[i])
				for _, off := range bulkOffsets(records) {
					m := r.rec.begin(wp)
					var n int
					var err error
					kind := callWrite
					if write {
						n, err = f.WriteAt(wp, buf, 0, off, bulkRecord, false)
					} else {
						kind = callRead
						n, _, err = f.ReadAt(wp, buf, 0, off, bulkRecord, true)
					}
					lat := r.rec.end(wp, m, kind, 0, n, bulkRecord, err)
					r.win.calls++
					if err == nil {
						moved += int64(n)
						r.win.lat = append(r.win.lat, lat)
					}
				}
			})
			return moved, (p.Now() - t0).Seconds()
		}
		r.win.writeBytes, r.win.writeSecs = phase(true)
		r.win.readBytes, r.win.readSecs = phase(false)
		srv1, cli1 := r.busy()
		r.win.srvBusy, r.win.cliBusy = srv1-srv0, cli1-cli0
	},
	prefix:          8,
	record:          bulkRecord,
	chunk:           rpcrdma.Header{Type: rpcrdma.MsgRDMA, WriteList: []rpcrdma.Segment{{Length: bulkRecord}}},
	serverUnexposed: true,
	perRPCExposure:  true,
}

// --- meta-small ------------------------------------------------------------

const (
	metaClients      = 16
	metaThreads      = 2
	metaDirs         = 4
	metaFilesPerDir  = 16
	metaFiles        = metaDirs * metaFilesPerDir
	metaBlocks       = 16 // per file
	metaBlock        = 4 << 10
	metaOpsPerThread = 160
)

// metaOp kinds. Stat of the root is a GETATTR; Stat of a file path walks it
// with LOOKUPs.
const (
	opStatRoot uint8 = iota
	opStatFile
	opRead
	opWrite  // WRITE then COMMIT
	opCreate // CREATE then REMOVE of a scratch file
)

type metaOp struct {
	kind  uint8
	file  int
	block int
}

// metaMix is the op mix in twentieths: 40% Stat (a quarter of them of the
// root), 20% 4 KiB READ, 20% 4 KiB WRITE+COMMIT, 20% CREATE+REMOVE.
var metaMix = [...]int{opStatRoot: 2, opStatFile: 6, opRead: 4, opWrite: 4, opCreate: 4}

// metaStream generates one worker's op list: exactly the mix (n a multiple
// of 20), in a seeded order, with files and blocks drawn from the seed.
func metaStream(seed uint64, client, thread, n int) []metaOp {
	rng := des.NewRand(mixSeed(seed, uint64(client), 1000+uint64(thread)))
	var kinds []uint8
	for k, share := range metaMix {
		for i := 0; i < n*share/20; i++ {
			kinds = append(kinds, uint8(k))
		}
	}
	ops := make([]metaOp, len(kinds))
	for i, j := range rng.Perm(len(kinds)) {
		ops[i] = metaOp{kind: kinds[j], file: rng.Intn(metaFiles), block: rng.Intn(metaBlocks)}
	}
	return ops
}

func metaPath(f int) string { return fmt.Sprintf("d%d/f%d", f/metaFilesPerDir, f%metaFilesPerDir) }

// fillPattern writes the seeded content of one block of one file into dst.
// Every write of a block carries the same bytes, so any read of it must
// return exactly this pattern.
func fillPattern(dst []byte, seed uint64, file, block int) {
	for w := 0; w+8 <= len(dst); w += 8 {
		binary.LittleEndian.PutUint64(dst[w:], mixSeed(seed, uint64(file)<<20|uint64(block), uint64(w)))
	}
}

var metaSmall = &workload{
	name: "meta-small",
	why:  "per-message work (XDR, RPC/RDMA header, dispatch, nfs3 namespace, reply-fetch deposit, FMR maps) with negligible bulk bytes",
	config: func(seed uint64) core.Config {
		return core.Config{
			Profile:      profiles.LinuxSDR(),
			Transport:    core.TransportRDMA,
			Design:       rpcrdma.ReplyFetch,
			RegMode:      memreg.FMR,
			Clients:      metaClients,
			Backend:      core.BackendTmpfs,
			CopyData:     true,
			ServerShards: 4,
			Seed:         seed,
		}
	},
	setup: func(p *des.Proc, r *rep) {
		cls := r.cluster.Clients
		c0 := cls[0]
		dirs := []string{"scratch"}
		for d := 0; d < metaDirs; d++ {
			dirs = append(dirs, fmt.Sprintf("d%d", d))
		}
		for _, d := range dirs {
			m := r.rec.begin(p)
			r.rec.end(p, m, callMkdir, 0, 0, 0, c0.Mkdir(p, d))
		}
		// Each client creates and fills its share of the files.
		parallel(p, "meta-populate", len(cls), func(wp *des.Proc, c int) {
			cl := cls[c]
			buf := cl.NewMaterializedBuffer(metaBlock)
			for f := c; f < metaFiles; f += len(cls) {
				m := r.rec.begin(wp)
				file, err := cl.Create(wp, metaPath(f))
				r.rec.end(wp, m, callCreate, c, 0, 0, err)
				if err != nil {
					continue
				}
				for b := 0; b < metaBlocks; b++ {
					fillPattern(buf.Bytes(), r.seed, f, b)
					m := r.rec.begin(wp)
					n, err := file.WriteAt(wp, buf, 0, int64(b*metaBlock), metaBlock, false)
					r.rec.end(wp, m, callWrite, c, n, metaBlock, err)
				}
				m = r.rec.begin(wp)
				r.rec.end(wp, m, callCommit, c, 0, 0, file.Commit(wp))
			}
		})
		// Every client opens every file once; the measured ops reuse the
		// handles.
		r.files = make([][]*core.File, len(cls))
		parallel(p, "meta-open", len(cls), func(wp *des.Proc, c int) {
			r.files[c] = make([]*core.File, metaFiles)
			for f := range r.files[c] {
				m := r.rec.begin(wp)
				file, err := cls[c].Open(wp, metaPath(f))
				r.rec.end(wp, m, callOpen, c, 0, 0, err)
				r.files[c][f] = file
			}
		})
	},
	measure: func(p *des.Proc, r *rep) {
		cls := r.cluster.Clients
		n := metaOpsPerThread / r.prefix
		t0 := p.Now()
		srv0, cli0 := r.busy()
		parallel(p, "meta", len(cls)*metaThreads, func(wp *des.Proc, w int) {
			c, t := w/metaThreads, w%metaThreads
			cl := cls[c]
			buf := cl.NewMaterializedBuffer(metaBlock)
			want := make([]byte, metaBlock)
			timed := func(m mark, kind callKind, got, exp int, err error) bool {
				lat := r.rec.end(wp, m, kind, c, got, exp, err)
				r.win.calls++
				if err != nil || got != exp {
					return false
				}
				r.win.lat = append(r.win.lat, lat)
				return true
			}
			for k, op := range metaStream(r.seed, c, t, n) {
				f := r.files[c][op.file]
				off := int64(op.block * metaBlock)
				switch op.kind {
				case opStatRoot, opStatFile:
					path := "."
					if op.kind == opStatFile {
						path = metaPath(op.file)
					}
					m := r.rec.begin(wp)
					_, err := cl.Stat(wp, path)
					timed(m, callStat, 0, 0, err)
				case opRead:
					if f == nil {
						continue
					}
					m := r.rec.begin(wp)
					got, _, err := f.ReadAt(wp, buf, 0, off, metaBlock, false)
					if timed(m, callRead, got, metaBlock, err) {
						r.win.readBytes += int64(got)
						fillPattern(want, r.seed, op.file, op.block)
						if !bytes.Equal(buf.Bytes(), want) {
							r.rec.fail("client%d read of %s block %d does not match its pattern", c, metaPath(op.file), op.block)
						}
					}
				case opWrite:
					if f == nil {
						continue
					}
					fillPattern(buf.Bytes(), r.seed, op.file, op.block)
					m := r.rec.begin(wp)
					got, err := f.WriteAt(wp, buf, 0, off, metaBlock, false)
					if timed(m, callWrite, got, metaBlock, err) {
						r.win.writeBytes += int64(got)
					}
					m = r.rec.begin(wp)
					timed(m, callCommit, 0, 0, f.Commit(wp))
				case opCreate:
					path := fmt.Sprintf("scratch/c%d-t%d-%d", c, t, k)
					m := r.rec.begin(wp)
					_, err := cl.Create(wp, path)
					timed(m, callCreate, 0, 0, err)
					m = r.rec.begin(wp)
					timed(m, callRemove, 0, 0, cl.Remove(wp, path))
				}
			}
		})
		secs := (p.Now() - t0).Seconds()
		r.win.readSecs, r.win.writeSecs = secs, secs
		srv1, cli1 := r.busy()
		r.win.srvBusy, r.win.cliBusy = srv1-srv0, cli1-cli0
	},
	prefix:          4,
	record:          metaBlock,
	chunk:           rpcrdma.Header{Type: rpcrdma.MsgRDMA, ReplyChunk: []rpcrdma.Segment{{Length: 8 + metaBlock + 256}}},
	serverUnexposed: true,
	perRPCExposure:  true,
}

// --- scale-mux -------------------------------------------------------------

const (
	muxClients  = 1024
	muxShards   = 8
	muxRecord   = 64 << 10
	muxBlocks   = 16 // per client: a 1 GiB working set, beyond the 768 MiB dirty limit
	muxMaxOut   = 32
	muxWriteOne = 5 // one arrival in five is a write: 80% reads, 20% writes

	// muxRungOps is the expected arrivals per rung: each rung's window is
	// as long as it takes to offer this many requests at its rate, so every
	// rung has enough reads (about 1300) for a p99 with ten samples beyond it.
	// The nominal rung, which the end-to-end figures come from, offers four
	// times as many, halving the Poisson spread of its byte counts.
	muxRungOps    = 1600
	muxNominalOps = 4 * muxRungOps
)

// muxLadder is the offered aggregate rate of each rung, in MB/s; it spans
// the knee, which this configuration reaches between 600 and 800 MB/s
// (read p99 crosses 1 ms, achieved falls behind offered). muxNominal
// indexes the rung below the knee, where the end-to-end throughput,
// latency and CPU figures are taken.
var muxLadder = []float64{200, 400, 600, 800}

const muxNominal = 1

// muxRungWindow is the window of rung i of the ladder.
func muxRungWindow(i, prefix int) des.Duration {
	ops := muxRungOps
	if i == muxNominal {
		ops = muxNominalOps
	}
	return des.Duration(float64(ops/prefix) * muxRecord / (muxLadder[i] * 1e6) * 1e9)
}

var scaleMux = &workload{
	name: "scale-mux",
	why:  "1024 open-loop clients on shared mux QPs: des process load, mux demux, DONE/parking, credits/SRQ, page-cache writeback, server exposure",
	config: func(seed uint64) core.Config {
		prof := profiles.LinuxDDR()
		prof.RDMAServer.ReplyBufPool = 4 * muxClients
		if w := 4 * muxShards; w > prof.RDMAServer.Workers {
			prof.RDMAServer.Workers = w
		}
		return core.Config{
			Profile:      prof,
			Transport:    core.TransportRDMA,
			Design:       rpcrdma.ReadRead,
			RegMode:      memreg.AllPhysical,
			Clients:      muxClients,
			Backend:      core.BackendDisk,
			ServerShards: muxShards,
			MaxConns:     muxClients,
			Multiplex:    true,
			Affinity:     true,
			Seed:         seed,
		}
	},
	setup: func(p *des.Proc, r *rep) {
		cls := r.cluster.Clients
		r.files = make([][]*core.File, len(cls))
		parallel(p, "mux-populate", len(cls), func(wp *des.Proc, c int) {
			cl := cls[c]
			m := r.rec.begin(wp)
			f, err := cl.Create(wp, fmt.Sprintf("mux.%d", c))
			r.rec.end(wp, m, callCreate, c, 0, 0, err)
			if err != nil {
				return
			}
			r.files[c] = []*core.File{f}
			// One unstable write fills the whole file.
			const size = muxBlocks * muxRecord
			buf := cl.NewBuffer(size)
			m = r.rec.begin(wp)
			n, err := f.WriteAt(wp, buf, 0, 0, size, false)
			r.rec.end(wp, m, callWrite, c, n, size, err)
		})
	},
	measure: func(p *des.Proc, r *rep) {
		cls := r.cluster.Clients
		ol := &openLoop{
			r: r, record: muxRecord, blocks: muxBlocks, maxOut: muxMaxOut, writeEvery: muxWriteOne,
			files: make([]*core.File, len(cls)),
			names: make([]string, len(cls)),
			free:  make([][]*core.Buffer, len(cls)),
		}
		for i := range cls {
			if len(r.files[i]) == 1 {
				ol.files[i] = r.files[i][0]
			}
			ol.names[i] = fmt.Sprintf("mux-client%d", i)
		}
		tel := r.cluster.EnableTelemetry(telemetry.Options{})
		tel.Start(p)
		for i, rate := range muxLadder {
			r.rungs = append(r.rungs, ol.run(p, i, rate, muxRungWindow(i, r.prefix)))
		}
		tel.Stop()
		nom := &r.rungs[muxNominal]
		r.win = window{
			readBytes: nom.ReadBytes, writeBytes: nom.WriteBytes,
			readSecs: nom.Elapsed.Seconds(), writeSecs: nom.Elapsed.Seconds(),
			lat: nom.Lat, calls: nom.Issued,
			srvBusy: nom.ServerBusy, cliBusy: nom.ClientBusy,
		}
	},
	prefix: 8,
	record: muxRecord,
	chunk: rpcrdma.Header{Type: rpcrdma.MsgRDMA, ReadList: []rpcrdma.ReadSeg{
		{Segment: rpcrdma.Segment{Length: 16 << 10}}, {Segment: rpcrdma.Segment{Length: 16 << 10}},
		{Segment: rpcrdma.Segment{Length: 16 << 10}}, {Segment: rpcrdma.Segment{Length: 16 << 10}},
	}},
}
