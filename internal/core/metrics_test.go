package core

import (
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
	"repro/internal/trace"
)

func TestMetricsSnapshot(t *testing.T) {
	cluster := NewCluster(Config{
		Profile: profiles.LinuxDDR(), Transport: TransportRDMA,
		Design: rpcrdma.ReadWrite, RegMode: memreg.Cache,
		Backend: BackendDisk, PageCacheBytes: 16 << 20, Clients: 2,
	})
	cluster.Start("io", func(p *des.Proc) {
		cl := cluster.Clients[0]
		f, _ := cl.Create(p, "m")
		buf := cl.NewBuffer(1 << 20)
		for i := 0; i < 32; i++ {
			f.WriteAt(p, buf, 0, int64(i)<<20, 1<<20, false)
		}
		for i := 0; i < 32; i++ {
			f.ReadAt(p, buf, 0, int64(i)<<20, 1<<20, true)
		}
		m := cluster.Metrics(0)
		if m.SimTime <= 0 {
			t.Error("no simulated time")
		}
		if m.Registration.CacheHits == 0 {
			t.Error("no cache activity recorded")
		}
		if m.DiskBytesRead == 0 {
			t.Error("disk traffic not recorded")
		}
		if len(m.ClientCPUPct) != 2 {
			t.Errorf("client CPU entries = %d", len(m.ClientCPUPct))
		}
		if m.ServerExposedEver != 0 {
			t.Error("read-write server should never expose MRs")
		}
		var sb strings.Builder
		m.Write(&sb)
		for _, want := range []string{"server:", "registration:", "disk:", "fabric"} {
			if !strings.Contains(sb.String(), want) {
				t.Errorf("report missing %q:\n%s", want, sb.String())
			}
		}
	})
	cluster.Run()
}

// TestMetricsWindowing pins the regression where CPU utilizations ignored
// the snapshot's `since` argument: a window opened after all the work is
// done must report idle CPUs on every host, client and server alike, while
// the full-run snapshot still shows the activity.
func TestMetricsWindowing(t *testing.T) {
	cluster := NewCluster(Config{
		Profile: profiles.LinuxSDR(), Transport: TransportRDMA,
		Design: rpcrdma.ReadWrite, RegMode: memreg.Regular, Clients: 2,
	})
	cluster.Start("windowed-io", func(p *des.Proc) {
		cl := cluster.Clients[0]
		f, err := cl.Create(p, "w")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		buf := cl.NewBuffer(256 << 10)
		for i := 0; i < 16; i++ {
			if _, err := f.WriteAt(p, buf, 0, int64(i)<<18, 256<<10, false); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		busyEnd := p.Now()
		p.Sleep(des.Duration(busyEnd)) // an equally long fully idle tail

		full := cluster.Metrics(0)
		tail := cluster.Metrics(busyEnd)
		if full.ClientCPUPct[0] <= 0 {
			t.Fatalf("full-run client CPU = %v, want > 0", full.ClientCPUPct[0])
		}
		if full.ServerCPUPct <= 0 {
			t.Fatalf("full-run server CPU = %v, want > 0", full.ServerCPUPct)
		}
		for i, u := range tail.ClientCPUPct {
			if u > 0.01 {
				t.Errorf("idle-window client%d CPU = %v%%, want ~0 (since ignored?)", i, u)
			}
		}
		if tail.ServerCPUPct > 0.01 {
			t.Errorf("idle-window server CPU = %v%%, want ~0 (since ignored?)", tail.ServerCPUPct)
		}
		// The busy half alone must show at least the full-run average.
		if half := cluster.Metrics(0); half.ClientCPUPct[0] < tail.ClientCPUPct[0] {
			t.Errorf("window inversion: full %v < tail %v", half.ClientCPUPct[0], tail.ClientCPUPct[0])
		}
	})
	cluster.Run()
}

// TestTraceRecordsCallAndServe: on a traced cluster run the structured
// tracer records both ends of an RPC — the client's KindRPC span and the
// server's KindServe span for the same XID, the serve starting while the
// call is outstanding (it may end after the reply lands: the server still
// reaps its send completion).
func TestTraceRecordsCallAndServe(t *testing.T) {
	cluster := NewCluster(Config{
		Profile: profiles.LinuxSDR(), Transport: TransportRDMA,
		Design: rpcrdma.ReadWrite, RegMode: memreg.Regular,
	})
	tr := cluster.EnableTracing(1 << 16)
	cluster.Start("io", func(p *des.Proc) {
		cl := cluster.Clients[0]
		f, _ := cl.Create(p, "t")
		buf := cl.NewBuffer(4096)
		f.WriteAt(p, buf, 0, 0, 4096, false)
	})
	cluster.Run()
	events := tr.Events()
	var call *trace.Event
	for i := range events {
		if e := &events[i]; e.Kind == trace.KindRPC && e.Phase == trace.PhaseSpan && e.Track == "client0" {
			call = e
			break
		}
	}
	if call == nil {
		t.Fatal("no client RPC span recorded")
	}
	xid := uint32(call.ID)
	for _, e := range events {
		// Server spans key by connection<<32|xid: XIDs repeat across clients.
		if e.Kind != trace.KindServe || uint32(e.ID) != xid {
			continue
		}
		if e.T < call.T || e.T > call.End() {
			t.Fatalf("serve span starts at %d, outside its call [%d,%d]", e.T, call.T, call.End())
		}
		return
	}
	t.Fatalf("no server serve span for xid %#x", xid)
}
