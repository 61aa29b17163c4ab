package ibsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/des"
)

// securityPair builds an attacker/server node pair; vulnerable selects the
// server's security posture (sequential tags, FMR tags reused across remaps).
func securityPair(vulnerable bool) (*des.Sim, *Fabric, *Node, *Node) {
	sim := des.New()
	fab := NewFabric(sim, true)
	atk := fab.AddNode(NodeConfig{Name: "attacker", Cores: 2, PortBandwidth: 900e6, PortLatency: 3 * time.Microsecond})
	srv := fab.AddNode(NodeConfig{Name: "server", Cores: 4, PortBandwidth: 900e6, PortLatency: 3 * time.Microsecond,
		Vulnerable: vulnerable})
	return sim, fab, atk, srv
}

// probe issues one one-sided access from a fresh QP. A fresh QP per probe is
// required because a protection fault moves the QP to the error state — the
// same redial an attacker would pay.
func probe(p *des.Proc, fab *Fabric, atk, srv *Node, local *Buffer, op Opcode, rkey uint32, addr uint64, n int) error {
	qa, _ := fab.Connect(atk, srv, QPConfig{})
	cqe := qa.PostAndWait(p, &SendWQE{
		WRID: 1, Op: op,
		Local:     []LocalSeg{{Buf: local, Len: n}},
		RemoteKey: rkey, RemoteAddr: addr,
	})
	return cqe.Err
}

// TestMRAccessEnforcementMatrix drives the TPT's access-flag and bounds
// checks through every registration regime a transfer design can produce:
// a transient per-I/O registration, an FMR mapping, and a long-lived
// cache-style registration, plus the all-physical global key. For each:
// remote reads must fault on write-only MRs, remote writes on read-only
// MRs, zero-length accesses at the exact end of the region pass, and
// one-past-the-end accesses fault.
func TestMRAccessEnforcementMatrix(t *testing.T) {
	sim, fab, atk, srv := securityPair(false)
	sim.Spawn("matrix", func(p *des.Proc) {
		local := atk.Mem.AllocMaterialized(8 << 10)
		buf := srv.Mem.AllocMaterialized(8 << 10)

		type regime struct {
			name string
			// expose registers 4 KiB of buf with the given access and
			// returns the steering tag, region start, and a teardown.
			expose func(access Access) (uint32, uint64, func())
		}
		regimes := []regime{
			{"regular", func(a Access) (uint32, uint64, func()) {
				mr := srv.HCA.Register(p, buf, 0, 4096, a)
				return mr.Rkey(), mr.Start(), func() { srv.HCA.Deregister(p, mr) }
			}},
			{"fmr", func(a Access) (uint32, uint64, func()) {
				fh := srv.HCA.NewFMRHandle(p, 8<<10)
				mr := fh.Map(p, buf, 0, 4096, a)
				return mr.Rkey(), mr.Start(), func() { fh.Unmap(p) }
			}},
			// The registration cache amortizes one long-lived MR across many
			// I/Os; at the TPT the enforcement is identical, the exposure
			// just lasts longer.
			{"cache", func(a Access) (uint32, uint64, func()) {
				mr := srv.HCA.Register(p, buf, 0, 4096, a)
				for i := 0; i < 3; i++ { // reuse across several probes
					probe(p, fab, atk, srv, local, OpRead, mr.Rkey(), mr.Start(), 64)
				}
				return mr.Rkey(), mr.Start(), func() { srv.HCA.Deregister(p, mr) }
			}},
		}

		for _, r := range regimes {
			// Read-only region: reads land, writes fault.
			rkey, start, drop := r.expose(AccessRemoteRead)
			if err := probe(p, fab, atk, srv, local, OpRead, rkey, start, 64); err != nil {
				t.Errorf("%s: read on read-only MR: %v", r.name, err)
			}
			if err := probe(p, fab, atk, srv, local, OpWrite, rkey, start, 64); !errors.Is(err, ErrProtection) {
				t.Errorf("%s: write on read-only MR: err = %v, want protection fault", r.name, err)
			}
			// Bounds: zero-length at the exact end is legal; one byte past
			// the end is not; an overlong read from the start is not.
			if err := probe(p, fab, atk, srv, local, OpRead, rkey, start+4096, 0); err != nil {
				t.Errorf("%s: zero-length read at region end: %v", r.name, err)
			}
			if err := probe(p, fab, atk, srv, local, OpRead, rkey, start+4095, 1); err != nil {
				t.Errorf("%s: last-byte read: %v", r.name, err)
			}
			if err := probe(p, fab, atk, srv, local, OpRead, rkey, start+4096, 1); !errors.Is(err, ErrProtection) {
				t.Errorf("%s: one-past-end read: err = %v, want protection fault", r.name, err)
			}
			if err := probe(p, fab, atk, srv, local, OpRead, rkey, start, 4097); !errors.Is(err, ErrProtection) {
				t.Errorf("%s: overlong read: err = %v, want protection fault", r.name, err)
			}
			drop()
			if err := probe(p, fab, atk, srv, local, OpRead, rkey, start, 64); !errors.Is(err, ErrProtection) {
				t.Errorf("%s: read after teardown: err = %v, want protection fault", r.name, err)
			}

			// Write-only region: writes land, reads fault.
			rkey, start, drop = r.expose(AccessRemoteWrite)
			if err := probe(p, fab, atk, srv, local, OpWrite, rkey, start, 64); err != nil {
				t.Errorf("%s: write on write-only MR: %v", r.name, err)
			}
			if err := probe(p, fab, atk, srv, local, OpRead, rkey, start, 64); !errors.Is(err, ErrProtection) {
				t.Errorf("%s: read on write-only MR: err = %v, want protection fault", r.name, err)
			}
			drop()
		}

		// All-physical: the global key grants read+write to the entire
		// address space — no flag or bound saves the target.
		g := srv.HCA.EnableGlobalRkey()
		if err := probe(p, fab, atk, srv, local, OpRead, g.Rkey(), buf.Addr(100), 64); err != nil {
			t.Errorf("all-physical: read via global key: %v", err)
		}
		if err := probe(p, fab, atk, srv, local, OpWrite, g.Rkey(), buf.Addr(100), 64); err != nil {
			t.Errorf("all-physical: write via global key: %v", err)
		}
	})
	sim.Run()
}

// TestFMRRemapWindow pins the FMR pool's stale-rkey semantics. Under the
// vulnerable posture the pool-time steering tag survives remapping, so a
// peer holding the previous cycle's rkey silently reads the *new* mapping —
// the exposure window the simulator counts as fmr.remap_reuse. Under the
// hardened posture (the default) the old tag faults after remap and the
// rotation is counted.
func TestFMRRemapWindow(t *testing.T) {
	for _, rotate := range []bool{false, true} {
		rotate := rotate
		name := "reuse"
		if rotate {
			name = "rotate"
		}
		t.Run(name, func(t *testing.T) {
			sim, fab, atk, srv := securityPair(!rotate)
			sim.Spawn("remap", func(p *des.Proc) {
				local := atk.Mem.AllocMaterialized(4096)
				bufA := srv.Mem.AllocMaterialized(4096)
				bufB := srv.Mem.AllocMaterialized(4096)
				for i := range bufA.Data() {
					bufA.Data()[i] = 0xAA
					bufB.Data()[i] = 0xBB
				}
				fh := srv.HCA.NewFMRHandle(p, 4096)
				mrA := fh.Map(p, bufA, 0, 4096, AccessRemoteRead)
				oldKey := fh.Rkey()
				if err := probe(p, fab, atk, srv, local, OpRead, oldKey, mrA.Start(), 16); err != nil {
					t.Fatalf("read of live mapping: %v", err)
				}
				if local.Data()[0] != 0xAA {
					t.Fatalf("live read got %#x, want 0xAA", local.Data()[0])
				}
				fh.Unmap(p)
				if err := probe(p, fab, atk, srv, local, OpRead, oldKey, mrA.Start(), 16); !errors.Is(err, ErrProtection) {
					t.Fatalf("read while unmapped: err = %v, want protection fault", err)
				}
				mrB := fh.Map(p, bufB, 0, 4096, AccessRemoteRead)
				if rotate {
					if fh.Rkey() == oldKey {
						t.Fatalf("rotation kept rkey %#x across remap", oldKey)
					}
					if err := probe(p, fab, atk, srv, local, OpRead, oldKey, mrB.Start(), 16); !errors.Is(err, ErrProtection) {
						t.Fatalf("stale rkey after rotated remap: err = %v, want protection fault", err)
					}
					if got := fab.Counters.Get("fmr.key_rotations"); got != 1 {
						t.Fatalf("fmr.key_rotations = %d, want 1", got)
					}
				} else {
					if err := probe(p, fab, atk, srv, local, OpRead, oldKey, mrB.Start(), 16); err != nil {
						t.Fatalf("stale rkey after reused remap: %v (expected silent alias)", err)
					}
					if local.Data()[0] != 0xBB {
						t.Fatalf("stale-key read got %#x, want the new mapping's 0xBB", local.Data()[0])
					}
					if got := fab.Counters.Get("fmr.remap_reuse"); got != 1 {
						t.Fatalf("fmr.remap_reuse = %d, want 1", got)
					}
				}
			})
			sim.Run()
		})
	}
}
