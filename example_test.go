package nfsrdma_test

// Runnable examples of the public API, one per scenario. Each prints a short
// report; the simulation is deterministic, so the Output blocks pin the
// exact figures and go test runs every example as a test.

import (
	"fmt"
	"log"
	"time"

	nfsrdma "repro"
)

// Example_quickstart brings up a one-client NFS/RDMA deployment (the
// paper's proposed Read-Write design with the buffer registration cache),
// writes a file over the simulated InfiniBand fabric, and reads it back —
// once through the buffered path and once through the zero-copy direct-I/O
// path.
func Example_quickstart() {
	cluster := nfsrdma.NewCluster(nfsrdma.Config{
		Profile:   nfsrdma.SolarisSDR(),
		Transport: nfsrdma.TransportRDMA,
		Design:    nfsrdma.DesignReadWrite,
		RegMode:   nfsrdma.RegCache,
		CopyData:  true, // move real bytes so we can verify them
	})
	client := cluster.Clients[0]

	cluster.Start("quickstart", func(p *nfsrdma.Proc) {
		if err := client.Mkdir(p, "home"); err != nil {
			log.Panicf("mkdir: %v", err)
		}
		f, err := client.Create(p, "home/hello.txt")
		if err != nil {
			log.Panicf("create: %v", err)
		}

		msg := "hello from NFS over (simulated) RDMA\n"
		wbuf := client.NewMaterializedBuffer(len(msg))
		copy(wbuf.Bytes(), msg)
		if _, err := f.WriteAt(p, wbuf, 0, 0, len(msg), true); err != nil {
			log.Panicf("write: %v", err)
		}

		for _, direct := range []bool{false, true} {
			rbuf := client.NewMaterializedBuffer(len(msg))
			n, eof, err := f.ReadAt(p, rbuf, 0, 0, len(msg), direct)
			if err != nil {
				log.Panicf("read (direct=%v): %v", direct, err)
			}
			fmt.Printf("read %d bytes (direct=%v, eof=%v) at t=%v: %q\n",
				n, direct, eof, p.Now(), string(rbuf.Bytes()[:n]))
		}

		size, _ := f.Size(p)
		fmt.Printf("file size per GETATTR: %d bytes\n", size)
		fmt.Printf("server memory regions ever exposed to clients: %d (Read-Write design)\n",
			cluster.Server.Node.HCA.RemoteExposedEver())
	})
	end := cluster.Run()
	fmt.Printf("simulation finished at %v\n", end)

	// Output:
	// read 37 bytes (direct=false, eof=true) at t=835.695µs: "hello from NFS over (simulated) RDMA\n"
	// read 37 bytes (direct=true, eof=true) at t=994.158µs: "hello from NFS over (simulated) RDMA\n"
	// file size per GETATTR: 37 bytes
	// server memory regions ever exposed to clients: 0 (Read-Write design)
	// simulation finished at 1.114441ms
}

// Example_registration compares the four §4.3 memory-registration
// strategies on one IOzone-style configuration and shows why the
// critical-path TPT work is the dominant cost of an RPC/RDMA transport —
// the observation that motivates the paper's buffer registration cache.
func Example_registration() {
	fmt.Println("IOzone read/write, 8 threads, 128 KiB records, Linux SDR testbed, Read-Write design")
	fmt.Printf("%-14s %11s %11s %14s %12s %12s\n",
		"registration", "read MB/s", "write MB/s", "dyn registers", "FMR maps", "cache hits")

	for _, mode := range []nfsrdma.RegMode{
		nfsrdma.RegDynamic, nfsrdma.RegFMR, nfsrdma.RegAllPhysical, nfsrdma.RegCache,
	} {
		cluster := nfsrdma.NewCluster(nfsrdma.Config{
			Profile:   nfsrdma.LinuxSDR(),
			Transport: nfsrdma.TransportRDMA,
			Design:    nfsrdma.DesignReadWrite,
			RegMode:   mode,
		})
		var res nfsrdma.IOzoneResult
		cluster.Start("iozone", func(p *nfsrdma.Proc) {
			var err error
			res, err = nfsrdma.RunIOzone(p, cluster, nfsrdma.IOzoneConfig{
				Threads: 8, FileSize: 32 << 20, RecordSize: 128 << 10,
			})
			if err != nil {
				log.Panicf("iozone (%v): %v", mode, err)
			}
		})
		cluster.Run()
		st := cluster.Server.Mgr.Stats()
		fmt.Printf("%-14v %11.1f %11.1f %14d %12d %12d\n",
			mode, res.Read.MBps, res.Write.MBps, st.Registers, st.FMRMaps, st.CacheHits)
	}

	fmt.Println(`
Reading the table:
  - dynamic registration pays per-page TPT transactions on every RPC;
  - FMR pre-allocates tags so mapping is cheaper, but entries still cross
    the I/O bus;
  - all-physical skips registration entirely (best read throughput) but
    fragments buffers into physical runs — writes issue several RDMA Reads
    per record and press the IRD/ORD=8 limit;
  - the registration cache keeps slab buffers registered across requests:
    a hit costs nothing, and the buffers are never exposed to clients.`)

	// Output:
	// IOzone read/write, 8 threads, 128 KiB records, Linux SDR testbed, Read-Write design
	// registration     read MB/s  write MB/s  dyn registers     FMR maps   cache hits
	// register             636.8       632.4           4096            0            0
	// fmr                  763.7       757.5              0         4096            0
	// all-physical         884.6       678.1              0            0            0
	// cache                892.4       680.0              8            0         4088
	//
	// Reading the table:
	//   - dynamic registration pays per-page TPT transactions on every RPC;
	//   - FMR pre-allocates tags so mapping is cheaper, but entries still cross
	//     the I/O bus;
	//   - all-physical skips registration entirely (best read throughput) but
	//     fragments buffers into physical runs — writes issue several RDMA Reads
	//     per record and press the IRD/ORD=8 limit;
	//   - the registration cache keeps slab buffers registered across requests:
	//     a hit costs nothing, and the buffers are never exposed to clients.
}

// Example_oltp runs the FileBench-style online-transaction-processing mix
// the paper uses in §5.2 (Fig. 8) against each memory-registration strategy
// and prints the throughput and per-operation CPU comparison — the experiment
// behind the paper's "up to 50% application-level improvement" claim for
// the buffer registration cache.
func Example_oltp() {
	fmt.Println("FileBench-style OLTP, 128 KiB mean I/O, Solaris testbed, Read-Write design")
	fmt.Printf("%-14s %12s %14s %14s\n", "registration", "ops/s", "client µs/op", "server µs/op")

	var baseline float64
	for _, mode := range []nfsrdma.RegMode{nfsrdma.RegDynamic, nfsrdma.RegFMR, nfsrdma.RegCache} {
		cluster := nfsrdma.NewCluster(nfsrdma.Config{
			Profile:   nfsrdma.SolarisSDR(),
			Transport: nfsrdma.TransportRDMA,
			Design:    nfsrdma.DesignReadWrite,
			RegMode:   mode,
		})
		var res nfsrdma.OLTPResult
		cluster.Start("oltp", func(p *nfsrdma.Proc) {
			var err error
			res, err = nfsrdma.RunOLTP(p, cluster, nfsrdma.OLTPConfig{
				Readers:  100,
				Writers:  10,
				MeanIO:   128 << 10,
				FileSize: 256 << 20,
				Duration: 500 * time.Millisecond,
				Seed:     42,
			})
			if err != nil {
				log.Panicf("oltp (%v): %v", mode, err)
			}
		})
		cluster.Run()
		fmt.Printf("%-14v %12.0f %14.1f %14.1f\n", mode, res.OpsPerSec, res.ClientUSPerOp, res.ServerUSPerOp)
		if mode == nfsrdma.RegDynamic {
			baseline = res.OpsPerSec
		} else if mode == nfsrdma.RegCache && baseline > 0 {
			fmt.Printf("\nregistration cache vs dynamic registration: %+.0f%% ops/s (paper: up to +50%%)\n",
				res.OpsPerSec/baseline*100-100)
		}
	}

	// Output:
	// FileBench-style OLTP, 128 KiB mean I/O, Solaris testbed, Read-Write design
	// registration          ops/s   client µs/op   server µs/op
	// register               2663          193.2          236.6
	// fmr                    3081          181.9          225.4
	// cache                  5286          161.6          201.4
	//
	// registration cache vs dynamic registration: +98% ops/s (paper: up to +50%)
}

// Example_metadata runs a small-op, metadata-heavy mix (stat / open+read /
// overwrite / create+remove / readdir) where bulk transfer is irrelevant
// and per-RPC latency rules. Two things matter here: the inline RPC path of
// the transport, and the client's attribute/lookup cache — the standard NFS
// client machinery this library implements alongside the paper's transport.
func Example_metadata() {
	fmt.Println("metadata-heavy mix, 8 threads, Linux SDR testbed, Read-Write design + registration cache")
	fmt.Printf("%-22s %12s %16s %12s %12s\n", "configuration", "ops/s", "avg latency µs", "client cpu", "server cpu")

	for _, useCache := range []bool{false, true} {
		cluster := nfsrdma.NewCluster(nfsrdma.Config{
			Profile:   nfsrdma.LinuxSDR(),
			Transport: nfsrdma.TransportRDMA,
			Design:    nfsrdma.DesignReadWrite,
			RegMode:   nfsrdma.RegCache,
		})
		var res nfsrdma.MetadataResult
		cluster.Start("meta", func(p *nfsrdma.Proc) {
			var err error
			res, err = nfsrdma.RunMetadata(p, cluster, nfsrdma.MetadataConfig{
				Threads: 8, Dirs: 16, Files: 64, Ops: 400, Seed: 11,
				UseCache: useCache,
			})
			if err != nil {
				log.Panicf("metadata (cache=%v): %v", useCache, err)
			}
		})
		cluster.Run()
		name := "no client cache"
		if useCache {
			name = "attr+lookup cache"
		}
		fmt.Printf("%-22s %12.0f %16.1f %11.1f%% %11.1f%%\n",
			name, res.OpsPerSec, res.AvgLatencyUS, res.ClientCPUPct, res.ServerCPUPct)
	}
	fmt.Println("\nThe cache absorbs the LOOKUP/GETATTR chatter that dominates path-heavy")
	fmt.Println("workloads; the data operations still ride the RPC/RDMA transport.")

	// Output:
	// metadata-heavy mix, 8 threads, Linux SDR testbed, Read-Write design + registration cache
	// configuration                 ops/s   avg latency µs   client cpu   server cpu
	// no client cache               39288            203.6        33.1%        81.3%
	// attr+lookup cache             73701            108.5        29.1%        70.7%
	//
	// The cache absorbs the LOOKUP/GETATTR chatter that dominates path-heavy
	// workloads; the data operations still ride the RPC/RDMA transport.
}

// Example_multiclient is the §5.3 scale-out experiment — up to seven clients
// stream-reading 64 MiB files from a server whose data lives on a RAID-0
// array behind a page cache, comparing NFS/RDMA against NFS/TCP over IPoIB
// and Gigabit Ethernet. Watch the RDMA curve collapse the moment the
// clients' combined working set overflows the server cache.
func Example_multiclient() {
	const (
		fileSize  = 64 << 20  // per client (1/16 of the paper's 1 GB: same shape, faster run)
		cacheSize = 192 << 20 // 1/16 of the paper's ~3 GB usable on the 4 GB server
	)
	fmt.Println("multi-client streaming read, RAID-0 back end, server cache", cacheSize>>20, "MiB,",
		fileSize>>20, "MiB per client")
	fmt.Printf("%-8s %12s %12s %12s %10s %8s\n", "clients", "RDMA MB/s", "IPoIB MB/s", "GigE MB/s", "cache-hit", "disk%")

	for clients := 1; clients <= 7; clients++ {
		row := map[nfsrdma.Transport]nfsrdma.MultiClientResult{}
		for _, tr := range []nfsrdma.Transport{nfsrdma.TransportRDMA, nfsrdma.TransportIPoIB, nfsrdma.TransportGigE} {
			cluster := nfsrdma.NewCluster(nfsrdma.Config{
				Profile:        nfsrdma.LinuxDDR(),
				Transport:      tr,
				Design:         nfsrdma.DesignReadWrite,
				RegMode:        nfsrdma.RegAllPhysical,
				Clients:        clients,
				Backend:        nfsrdma.BackendDisk,
				PageCacheBytes: cacheSize,
			})
			var res nfsrdma.MultiClientResult
			cluster.Start("stream", func(p *nfsrdma.Proc) {
				var err error
				res, err = nfsrdma.RunMultiClient(p, cluster, nfsrdma.MultiClientConfig{
					FileSize: fileSize, RecordSize: 1 << 20,
				})
				if err != nil {
					log.Panicf("multiclient (%v, %d clients): %v", tr, clients, err)
				}
			})
			cluster.Run()
			row[tr] = res
		}
		rdma := row[nfsrdma.TransportRDMA]
		fmt.Printf("%-8d %12.1f %12.1f %12.1f %9.0f%% %7.0f%%\n",
			clients,
			rdma.AggregateReadMBps,
			row[nfsrdma.TransportIPoIB].AggregateReadMBps,
			row[nfsrdma.TransportGigE].AggregateReadMBps,
			rdma.CacheHitRatio*100,
			rdma.DiskUtilization*100)
	}
	fmt.Println("\nThe paper's Fig. 10: RDMA rides the wire while the working set fits the cache,")
	fmt.Println("then every transport converges on the disk array; TCP never gets near the wire.")

	// Output:
	// multi-client streaming read, RAID-0 back end, server cache 192 MiB, 64 MiB per client
	// clients     RDMA MB/s   IPoIB MB/s    GigE MB/s  cache-hit    disk%
	// 1               390.3        153.1         95.2       100%       0%
	// 2               775.3        297.7        111.7       100%       0%
	// 3               871.9        335.1        105.8       100%       0%
	// 4               115.8        110.5         75.6        66%      82%
	// 5               132.3        128.0         80.3        66%      90%
	// 6               142.3        136.8         81.9        66%      94%
	// 7               148.5        145.0         80.3        66%      96%
	//
	// The paper's Fig. 10: RDMA rides the wire while the working set fits the cache,
	// then every transport converges on the disk array; TCP never gets near the wire.
}

// Example_security demonstrates the §4.1 vulnerabilities of the original
// Read-Read RPC/RDMA design and how the paper's Read-Write design closes
// them.
//
// Part 1 measures the server's exposure: how many memory regions each
// design makes remotely accessible while serving the same reads.
//
// Part 2 plays the malicious client: under Read-Read, a client that
// withholds RDMA_DONE pins the server's reply buffers — and once the reply
// pool is exhausted, a well-behaved client on the same server starves.
// Under Read-Write there is nothing to withhold.
func Example_security() {
	securityExposure()
	securityMaliciousClient()

	// Output:
	// ── server memory exposure while serving 50 READs ──
	// read-read    server MRs ever remotely readable:  50   (32-bit steering tags a client could replay or scan)
	// read-write   server MRs ever remotely readable:   0   (32-bit steering tags a client could replay or scan)
	//
	// ── malicious client withholding RDMA_DONE (Read-Read design) ──
	// after 31 withheld DONEs: server has 31 reply buffers pinned, 4063232 bytes still exposed
	// server reply buffers still pinned at shutdown: 32
	// victim client NEVER completed: the reply-buffer pool was exhausted by the attacker
	//
	// In the Read-Write design the server pushes data with RDMA Write and frees its
	// buffers on its own send completion — there is no DONE for a client to withhold,
	// and no server buffer is ever remotely accessible.
}

func securityExposure() {
	fmt.Println("── server memory exposure while serving 50 READs ──")
	for _, design := range []nfsrdma.Design{nfsrdma.DesignReadRead, nfsrdma.DesignReadWrite} {
		cluster := nfsrdma.NewCluster(nfsrdma.Config{
			Profile:   nfsrdma.SolarisSDR(),
			Transport: nfsrdma.TransportRDMA,
			Design:    design,
			RegMode:   nfsrdma.RegDynamic,
		})
		cl := cluster.Clients[0]
		cluster.Start("reads", func(p *nfsrdma.Proc) {
			f, _ := cl.Create(p, "data")
			buf := cl.NewBuffer(128 << 10)
			f.WriteAt(p, buf, 0, 0, 128<<10, false)
			for i := 0; i < 50; i++ {
				f.ReadAt(p, buf, 0, 0, 128<<10, false)
			}
		})
		cluster.Run()
		fmt.Printf("%-12v server MRs ever remotely readable: %3d   (32-bit steering tags a client could replay or scan)\n",
			design, cluster.Server.Node.HCA.RemoteExposedEver())
	}
	fmt.Println()
}

func securityMaliciousClient() {
	fmt.Println("── malicious client withholding RDMA_DONE (Read-Read design) ──")
	cluster := nfsrdma.NewCluster(nfsrdma.Config{
		Profile:   nfsrdma.SolarisSDR(),
		Transport: nfsrdma.TransportRDMA,
		Design:    nfsrdma.DesignReadRead,
		RegMode:   nfsrdma.RegDynamic,
		Clients:   2,
	})
	evil, good := cluster.Clients[0], cluster.Clients[1]

	cluster.Start("attack", func(p *nfsrdma.Proc) {
		evil.RDMA.DropDone = true // never acknowledge server chunks
		f, _ := evil.Create(p, "bait")
		buf := evil.NewBuffer(128 << 10)
		f.WriteAt(p, buf, 0, 0, 128<<10, false)
		// Each read parks one server reply buffer forever; the pool is
		// bounded, so this loop wedges the server.
		for i := 0; i < 64; i++ {
			if _, _, err := f.ReadAt(p, buf, 0, 0, 128<<10, false); err != nil {
				break
			}
			if i == 30 {
				fmt.Printf("after %2d withheld DONEs: server has %d reply buffers pinned, %d bytes still exposed\n",
					i+1, cluster.Server.RDMA.ParkedReplies(), cluster.Server.Node.HCA.RemoteExposedBytes())
			}
		}
	})

	victimDone := false
	cluster.Start("victim", func(p *nfsrdma.Proc) {
		p.Sleep(50 * time.Millisecond) // let the attack build up
		f, err := good.Create(p, "honest-work")
		if err != nil {
			return
		}
		buf := good.NewBuffer(64 << 10)
		start := p.Now()
		f.WriteAt(p, buf, 0, 0, 64<<10, false)
		if _, _, err := f.ReadAt(p, buf, 0, 0, 64<<10, false); err == nil {
			fmt.Printf("victim client read completed after %v\n", p.Now()-start)
			victimDone = true
		}
	})

	cluster.RunUntil(nfsrdma.Time(2 * time.Second))
	fmt.Printf("server reply buffers still pinned at shutdown: %d\n", cluster.Server.RDMA.ParkedReplies())
	if !victimDone {
		fmt.Println("victim client NEVER completed: the reply-buffer pool was exhausted by the attacker")
	}
	fmt.Println("\nIn the Read-Write design the server pushes data with RDMA Write and frees its")
	fmt.Println("buffers on its own send completion — there is no DONE for a client to withhold,")
	fmt.Println("and no server buffer is ever remotely accessible.")
}

// flowcontrolRun plays one DONE-withholding attack against a victim and
// reports both clients' grants.
func flowcontrolRun(dynamic bool) {
	profile := nfsrdma.SolarisSDR()
	profile.RDMAClient.DynamicCredits = dynamic
	profile.RDMAServer.DynamicCredits = dynamic
	profile.RDMAClient.Credits = 16
	profile.RDMAServer.Credits = 16
	profile.RDMAServer.ReplyBufPool = 16

	cluster := nfsrdma.NewCluster(nfsrdma.Config{
		Profile:   profile,
		Transport: nfsrdma.TransportRDMA,
		Design:    nfsrdma.DesignReadRead, // the vulnerable design
		RegMode:   nfsrdma.RegDynamic,
		Clients:   2,
	})
	evil, good := cluster.Clients[0], cluster.Clients[1]

	attackerReads := 0
	cluster.Start("attacker", func(p *nfsrdma.Proc) {
		evil.RDMA.DropDone = true
		f, _ := evil.Create(p, "bait")
		buf := evil.NewBuffer(64 << 10)
		f.WriteAt(p, buf, 0, 0, 64<<10, false)
		// Try to pin well past the pool size: under the shared static pool
		// this wedges the whole server; under per-connection dynamic pools
		// it wedges only this connection.
		for i := 0; i < 40; i++ {
			if _, _, err := f.ReadAt(p, buf, 0, 0, 64<<10, false); err != nil {
				break
			}
			attackerReads++
		}
	})

	victimOps := 0
	cluster.Start("victim", func(p *nfsrdma.Proc) {
		p.Sleep(20 * time.Millisecond)
		f, err := good.Create(p, "work")
		if err != nil {
			return
		}
		buf := good.NewBuffer(64 << 10)
		f.WriteAt(p, buf, 0, 0, 64<<10, false)
		deadline := p.Now() + nfsrdma.Time(500*time.Millisecond)
		for p.Now() < deadline {
			if _, _, err := f.ReadAt(p, buf, 0, 0, 64<<10, false); err != nil {
				return
			}
			victimOps++
		}
	})

	cluster.RunUntil(nfsrdma.Time(2 * time.Second))
	mode := "static credits "
	if dynamic {
		mode = "dynamic credits"
	}
	fmt.Printf("%s: attacker pinned %2d replies (grant fell to %2d); victim completed %4d ops (grant %2d)\n",
		mode,
		cluster.Server.RDMA.ParkedReplies(),
		evil.RDMA.GrantedCredits(),
		victimOps,
		good.RDMA.GrantedCredits())
}

// Example_flowcontrol shows the paper's future-work proposal, implemented —
// dynamic credit-based flow control on the RPC/RDMA transport. The server
// advertises its live capacity in every reply's credit field (Figure 2's
// flow-control field); clients throttle new calls to the latest grant.
//
// This example replays the §4.1 buffer-pinning attack from
// Example_security with dynamic credits enabled on the Read-Read design:
// the attacker still pins what it touches, but the shrinking grant caps its
// rate, and the damage stabilizes instead of wedging the server.
func Example_flowcontrol() {
	fmt.Println("Read-Read design under a DONE-withholding client, 16-credit connection:")
	flowcontrolRun(false)
	flowcontrolRun(true)
	fmt.Println("\nStatic credits share one reply pool: the attacker exhausts it and the victim")
	fmt.Println("starves. Dynamic credits make the pool and the grant per connection: the")
	fmt.Println("attacker's grant collapses and only the attacker wedges.")

	// Output:
	// Read-Read design under a DONE-withholding client, 16-credit connection:
	// static credits : attacker pinned 16 replies (grant fell to 16); victim completed    0 ops (grant 16)
	// dynamic credits: attacker pinned 16 replies (grant fell to  1); victim completed  737 ops (grant 16)
	//
	// Static credits share one reply pool: the attacker exhausts it and the victim
	// starves. Dynamic credits make the pool and the grant per connection: the
	// attacker's grant collapses and only the attacker wedges.
}
