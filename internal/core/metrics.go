package core

import (
	"fmt"
	"io"

	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/stats"
)

// Metrics is a point-in-time snapshot of a cluster's observable state,
// suitable for experiment reports and the command-line tools.
type Metrics struct {
	SimTime des.Time

	// Server side.
	ServerCPUPct      float64
	ServerInterrupts  int64
	ServerTPTUtilPct  float64
	ServerPortTxPct   float64
	ServerPortRxPct   float64
	ServerExposedMRs  int64 // remotely accessible registrations right now
	ServerExposedEver int64
	ParkedReplies     int
	Registration      memreg.Stats

	// Disk back end (zero-valued for tmpfs).
	DiskUtilPct   float64
	CacheHitRatio float64
	DiskBytesRead int64

	// Per-client CPU utilization.
	ClientCPUPct []float64

	// Fabric counters (op counts, bytes, errors).
	Fabric []stats.CounterValue
}

// Metrics snapshots the cluster. Utilizations are computed over the window
// starting at since (zero = since simulation start).
func (c *Cluster) Metrics(since des.Time) Metrics {
	m := Metrics{
		SimTime:           c.Sim.Now(),
		ServerCPUPct:      c.Server.Node.CPU.UtilizationSince(since) * 100,
		ServerInterrupts:  c.Server.Node.CPU.Interrupts(),
		ServerTPTUtilPct:  c.Server.Node.HCA.TPTEngineUtilization(since) * 100,
		ServerExposedMRs:  c.Server.Node.HCA.RemoteExposedBytes(),
		ServerExposedEver: c.Server.Node.HCA.RemoteExposedEver(),
		Fabric:            c.Fabric.Counters.Snapshot(),
	}
	tx, rx := c.Server.Node.PortUtilization(since)
	m.ServerPortTxPct, m.ServerPortRxPct = tx*100, rx*100
	if c.Server.Mgr != nil {
		m.Registration = c.Server.Mgr.Stats()
	}
	if c.Server.RDMA != nil {
		m.ParkedReplies = c.Server.RDMA.ParkedReplies()
	}
	if c.Server.Disk != nil {
		m.DiskUtilPct = c.Server.Disk.Utilization(since) * 100
		m.DiskBytesRead = c.Server.Disk.BytesRead
	}
	if c.Server.Cache != nil {
		if tot := c.Server.Cache.Hits + c.Server.Cache.Misses; tot > 0 {
			m.CacheHitRatio = float64(c.Server.Cache.Hits) / float64(tot)
		}
	}
	for _, cl := range c.Clients {
		m.ClientCPUPct = append(m.ClientCPUPct, cl.Node.CPU.UtilizationSince(since)*100)
	}
	return m
}

// Write renders the snapshot as a human-readable report.
func (m Metrics) Write(w io.Writer) {
	fmt.Fprintf(w, "simulated time: %v\n", m.SimTime)
	fmt.Fprintf(w, "server: cpu %.1f%%  tpt-engine %.1f%%  port tx/rx %.1f%%/%.1f%%  interrupts %d\n",
		m.ServerCPUPct, m.ServerTPTUtilPct, m.ServerPortTxPct, m.ServerPortRxPct, m.ServerInterrupts)
	fmt.Fprintf(w, "server exposure: %d bytes now, %d MRs ever; parked replies %d\n",
		m.ServerExposedMRs, m.ServerExposedEver, m.ParkedReplies)
	fmt.Fprintf(w, "registration: dynamic=%d fmr=%d fallbacks=%d cacheHits=%d cacheMisses=%d evictions=%d\n",
		m.Registration.Registers, m.Registration.FMRMaps, m.Registration.FMRFallback,
		m.Registration.CacheHits, m.Registration.CacheMisses, m.Registration.Evictions)
	if m.DiskBytesRead > 0 || m.DiskUtilPct > 0 {
		fmt.Fprintf(w, "disk: util %.1f%%  read %d bytes  cache hit ratio %.2f\n",
			m.DiskUtilPct, m.DiskBytesRead, m.CacheHitRatio)
	}
	for i, u := range m.ClientCPUPct {
		fmt.Fprintf(w, "client%d: cpu %.1f%%\n", i, u)
	}
	for _, cv := range m.Fabric {
		fmt.Fprintf(w, "  fabric %-24s %d\n", cv.Name, cv.Value)
	}
}
