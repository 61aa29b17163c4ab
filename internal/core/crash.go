package core

import (
	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/rpcrdma"
)

// Server crash and restart. NFSv3 is stateless by design, so a crash kills
// exactly the server's volatile memory and nothing a client cannot recover
// from:
//
//	dies with the server      survives the crash
//	-------------------       ------------------------------------------
//	DRC replay windows        the exported tree + stable file contents
//	registration cache/MRs    file handles (FSID + FileID, no generation)
//	parked replies (RR)       cumulative per-procedure Ops counters
//	SRQ pools, work queues    client-side state (XID stream, caches)
//	page cache (dirty too)
//	write verifier (bumped)
//
// Clients notice the crash as QP deaths, reconnect through the existing
// EnableRecovery path once TryServe accepts again, and replay in-flight
// calls with their original XIDs. Because the DRC died, a replayed
// non-idempotent call (WRITE, RENAME, ...) RE-EXECUTES — the NFSv3
// semantics the data-integrity oracle in internal/chaos makes explicit:
// re-executed WRITEs are idempotent at the data level (same bytes, same
// offset), while a re-executed RENAME of an already-renamed file surfaces
// as ENOENT inside the crash window.

// ServerDown reports whether the server is currently crashed.
func (c *Cluster) ServerDown() bool { return c.serverDown }

// CrashServer kills the server at the current virtual instant: every live
// connection's QP errors (clients observe the death immediately), parked
// replies and work queues are torn down, and all volatile server state —
// DRC, registration manager, page cache — is wiped. The server stays down,
// rejecting dials, until RestartServer. RDMA transport only; no-op if
// already down.
func (c *Cluster) CrashServer(p *des.Proc) {
	if c.serverDown || c.Server.RDMA == nil {
		return
	}
	c.serverDown = true
	c.Crashes++
	c.Server.RDMA.Shutdown(p)
	c.Server.Dispatcher.DropDRC()
	if c.Server.Cache != nil {
		c.Server.Cache.Crash()
	}
}

// RestartServer boots the server back up: a fresh registration manager
// (the old one's cached registrations died with the HCA state), a fresh
// server transport built from the same configuration as initial wiring, and
// a bumped NFSv3 write verifier so clients can detect the reboot. Dialing
// clients are accepted again from this instant on.
func (c *Cluster) RestartServer(p *des.Proc) {
	if !c.serverDown {
		return
	}
	srv := c.Server
	srv.Mgr = memreg.NewManager(p, srv.Node, memreg.Config{Mode: c.Cfg.RegMode, CacheMaxBytes: c.Cfg.CacheMaxBytes})
	srv.RDMA = rpcrdma.NewServerTransport(p, srv.Node, srv.Mgr, srv.Dispatcher, c.serverRDMACfg)
	c.serverRDMAs = append(c.serverRDMAs, srv.RDMA)
	srv.NFS.Restart(uint64(c.Crashes))
	c.serverDown = false
}

// ServerTransports returns every RDMA server transport the cluster has
// booted, in boot order: the initial one plus one per restart. A crashed
// transport's counters stop at its crash, so summing over the slice counts
// a whole run.
func (c *Cluster) ServerTransports() []*rpcrdma.ServerTransport { return c.serverRDMAs }

// ScheduleServerCrash arms a crash at virtual time at, followed by a
// restart after downtime. Crashes are serialized through the serverDown
// flag: a crash scheduled while the server is already down is a no-op (and
// its restart, finding the server already up, is too).
func (c *Cluster) ScheduleServerCrash(at des.Time, downtime des.Duration) {
	c.Sim.SpawnAt(at, "server-crash", func(p *des.Proc) {
		if c.serverDown {
			return
		}
		c.CrashServer(p)
		p.Sleep(downtime)
		c.RestartServer(p)
	})
}
