package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/ibsim"
	"repro/internal/nfs3"
	"repro/internal/rpcrdma"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// ladderDefs are the rungs: each times one layer's public functions in
// isolation, at the workload's design and sizes, on the host clock.
var ladderDefs = []metricDef{
	{"des.switch_ns", "ns", "host", "one park→resume handoff between two processes"},
	{"des.switch_allocs", "count", "host", "allocations per handoff"},
	{"ibsim.post_cqe_ns", "ns", "host", "one RDMA Write of the record size, post to CQE"},
	{"ibsim.post_cqe_allocs", "count", "host", "allocations per RDMA Write"},
	{"rpcrdma.header_ns", "ns", "host", "Header.Encode + DecodeHeader at the workload's chunk shape"},
	{"rpcrdma.header_allocs", "count", "host", "allocations per header round trip"},
	{"xdr.codec_ns", "ns", "host", "encode+decode of one nfs3 READ/WRITE/GETATTR/LOOKUP args or result"},
	{"xdr.codec_allocs", "count", "host", "allocations per message encode+decode"},
	{"vfs.pagecache_write_ns", "ns", "host", "PageCache.Write of a record at scale-mux residency and dirty level (disk back end only)"},
	{"vfs.pagecache_commit_ns", "ns", "host", "PageCache.Commit of one dirty record at the same state (disk back end only)"},
}

// stopwatch measures host time and heap allocations over a span of code.
type stopwatch struct {
	t0 time.Time
	a0 uint64
}

func startWatch() stopwatch {
	runtime.GC()
	return stopwatch{t0: time.Now(), a0: allocs()}
}

// per returns ns and allocations per op since start.
func (s stopwatch) per(ops int) (ns, allocsPerOp float64) {
	el := time.Since(s.t0)
	a := allocs() - s.a0
	return float64(el.Nanoseconds()) / float64(ops), float64(a) / float64(ops)
}

// ladder runs every rung for a workload and returns its metrics.
func ladder(wl *workload) map[string]float64 {
	m := map[string]float64{}
	m["des.switch_ns"], m["des.switch_allocs"] = rungSwitch(200_000)
	m["ibsim.post_cqe_ns"], m["ibsim.post_cqe_allocs"] = rungPostCQE(wl, 20_000)
	m["rpcrdma.header_ns"], m["rpcrdma.header_allocs"] = rungHeader(wl.chunk, 200_000)
	m["xdr.codec_ns"], m["xdr.codec_allocs"] = rungCodec(50_000)
	if cfg := wl.config(1); cfg.Backend == core.BackendDisk {
		m["vfs.pagecache_write_ns"], m["vfs.pagecache_commit_ns"] = rungPageCache(cfg, 20_000, 200)
	} else {
		m["vfs.pagecache_write_ns"], m["vfs.pagecache_commit_ns"] = 0, 0
	}
	return m
}

// token is the value the switch rung passes, boxed once.
var token any = new(int)

// rungSwitch ping-pongs a token between two processes through two queues:
// every Get parks and every Put resumes the peer, two handoffs per round.
func rungSwitch(rounds int) (float64, float64) {
	sim := des.New()
	ping, pong := des.NewQueue(sim, "ping"), des.NewQueue(sim, "pong")
	sim.Spawn("a", func(p *des.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Put(token)
			pong.Get(p)
		}
		ping.Close()
	})
	sim.Spawn("b", func(p *des.Proc) {
		for {
			v, ok := ping.Get(p)
			if !ok {
				return
			}
			pong.Put(v)
		}
	})
	w := startWatch()
	sim.Run()
	return w.per(2 * rounds)
}

// rungPostCQE posts RDMA Writes of the workload's record size between two
// nodes of its profile and waits for each completion.
func rungPostCQE(wl *workload, n int) (ns, allocsPerOp float64) {
	cfg := wl.config(1)
	sim := des.New()
	fab := ibsim.NewFabric(sim, cfg.CopyData)
	cliCfg, srvCfg := cfg.Profile.Client, cfg.Profile.Server
	cliCfg.Name, srvCfg.Name = "client", "server"
	cli, srv := fab.AddNode(cliCfg), fab.AddNode(srvCfg)
	qc, _ := fab.Connect(srv, cli, ibsim.QPConfig{})
	sim.Spawn("writer", func(p *des.Proc) {
		src := srv.Mem.Alloc(wl.record)
		dst := cli.Mem.Alloc(wl.record)
		mr := cli.HCA.Register(p, dst, 0, wl.record, ibsim.AccessLocalWrite|ibsim.AccessRemoteWrite)
		wqe := &ibsim.SendWQE{
			Op:        ibsim.OpWrite,
			Local:     []ibsim.LocalSeg{{Buf: src, Len: wl.record}},
			RemoteKey: mr.Rkey(), RemoteAddr: dst.Addr(0), Signaled: true,
		}
		w := startWatch()
		for i := 0; i < n; i++ {
			qc.PostAndWait(p, wqe)
		}
		ns, allocsPerOp = w.per(n)
	})
	sim.Run()
	return ns, allocsPerOp
}

// rungHeader round-trips the RPC/RDMA header of the workload's calls.
func rungHeader(shape rpcrdma.Header, n int) (float64, float64) {
	h := shape
	h.XID, h.Credits = 7, 32
	w := startWatch()
	for i := 0; i < n; i++ {
		h.XID++
		if _, _, err := rpcrdma.DecodeHeader(h.Encode()); err != nil {
			panic(err)
		}
	}
	return w.per(n)
}

// rungCodec encodes and decodes the args and results of the four nfs3
// procedures the workloads issue most.
func rungCodec(n int) (float64, float64) {
	fh := nfs3.FH{FSID: 1, FileID: 42}
	attr := nfs3.PostOpAttr{Present: true, Attr: nfs3.FAttr{Type: nfs3.TypeReg, Mode: 0644, Nlink: 1, Size: 1 << 20}}
	msgs := []interface{ Encode(*xdr.Encoder) }{
		&nfs3.ReadArgs{FH: fh, Offset: 4096, Count: 4096},
		&nfs3.ReadRes{Status: nfs3.OK, Attr: attr, Count: 4096},
		&nfs3.WriteArgs{FH: fh, Offset: 4096, Count: 4096, Stable: nfs3.Unstable},
		&nfs3.WriteRes{Status: nfs3.OK, Wcc: nfs3.WccData{Post: attr}, Count: 4096},
		&nfs3.GetAttrArgs{FH: fh},
		&nfs3.GetAttrRes{Status: nfs3.OK, Attr: attr.Attr},
		&nfs3.DirOpArgs{Dir: fh, Name: "f7"},
		&nfs3.LookupRes{Status: nfs3.OK, Object: fh, ObjAttr: attr, DirAttr: attr},
	}
	decode := []func(*xdr.Decoder) error{
		func(d *xdr.Decoder) error { _, err := nfs3.DecodeReadArgs(d); return err },
		func(d *xdr.Decoder) error { _, err := nfs3.DecodeReadRes(d); return err },
		func(d *xdr.Decoder) error { _, err := nfs3.DecodeWriteArgs(d); return err },
		func(d *xdr.Decoder) error { _, err := nfs3.DecodeWriteRes(d); return err },
		func(d *xdr.Decoder) error { _, err := nfs3.DecodeGetAttrArgs(d); return err },
		func(d *xdr.Decoder) error { _, err := nfs3.DecodeGetAttrRes(d); return err },
		func(d *xdr.Decoder) error { _, err := nfs3.DecodeDirOpArgs(d); return err },
		func(d *xdr.Decoder) error { _, err := nfs3.DecodeLookupRes(d); return err },
	}
	buf := make([]byte, 0, 512)
	w := startWatch()
	for i := 0; i < n; i++ {
		for j, msg := range msgs {
			e := xdr.NewEncoder(buf[:0])
			msg.Encode(e)
			if err := decode[j](xdr.NewDecoder(e.Bytes())); err != nil {
				panic(err)
			}
		}
	}
	return w.per(n * len(msgs))
}

// rungPageCache fills a page cache over the profile's disk array to
// scale-mux's residency (every client's file resident) and dirty level
// (at the limit), then times record writes to random resident pages —
// each write to a clean page forces a writeback of the oldest dirty one —
// and commits of single dirty records.
func rungPageCache(cfg core.Config, writes, commits int) (writeNs, commitNs float64) {
	sim := des.New()
	disk := vfs.NewDiskArray(sim, "bench-raid", cfg.Profile.Disk)
	pc := vfs.NewPageCache(disk, vfs.PageCacheConfig{CapacityBytes: cfg.Profile.PageCacheBytes})
	sim.Spawn("pagecache", func(p *des.Proc) {
		for f := 0; f < muxClients; f++ {
			for b := 0; b < muxBlocks; b++ {
				pc.Write(p, vfs.FileID(f+1), int64(b*muxRecord), muxRecord)
			}
		}
		rng := des.NewRand(1)
		pick := func() (vfs.FileID, int64) {
			return vfs.FileID(rng.Intn(muxClients) + 1), int64(rng.Intn(muxBlocks) * muxRecord)
		}
		w := startWatch()
		for i := 0; i < writes; i++ {
			f, off := pick()
			pc.Write(p, f, off, muxRecord)
		}
		writeNs, _ = w.per(writes)
		var spent time.Duration
		for i := 0; i < commits; i++ {
			f, off := pick()
			pc.Write(p, f, off, muxRecord)
			t0 := time.Now()
			pc.Commit(p, f, off, muxRecord)
			spent += time.Since(t0)
		}
		commitNs = float64(spent.Nanoseconds()) / float64(commits)
	})
	sim.Run()
	return writeNs, commitNs
}
