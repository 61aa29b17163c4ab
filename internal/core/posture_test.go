package core

import (
	"testing"

	"repro/internal/des"
	"repro/internal/memreg"
	"repro/internal/profiles"
	"repro/internal/rpcrdma"
)

// TestPostureFMRKeyRotation: the zero-value Config is the hardened posture,
// so an honest FMR cluster rotates every remapped handle's steering tag
// (fmr.key_rotations) and never reuses one (fmr.remap_reuse). Vulnerable
// reopens the remap window: the same run reuses tags and rotates none.
func TestPostureFMRKeyRotation(t *testing.T) {
	for _, vulnerable := range []bool{false, true} {
		cluster := NewCluster(Config{
			Profile: profiles.LinuxSDR(), Transport: TransportRDMA,
			Design: rpcrdma.ReadWrite, RegMode: memreg.FMR,
			Vulnerable: vulnerable,
		})
		cluster.Start("io", func(p *des.Proc) {
			cl := cluster.Clients[0]
			f, err := cl.Create(p, "data")
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			buf := cl.NewBuffer(128 << 10)
			for i := 0; i < 4; i++ {
				if _, err := f.WriteAt(p, buf, 0, int64(i)<<17, 128<<10, true); err != nil {
					t.Errorf("write: %v", err)
				}
				if _, _, err := f.ReadAt(p, buf, 0, int64(i)<<17, 128<<10, true); err != nil {
					t.Errorf("read: %v", err)
				}
			}
		})
		cluster.Run()
		rotations := cluster.Fabric.Counters.Get("fmr.key_rotations")
		reuses := cluster.Fabric.Counters.Get("fmr.remap_reuse")
		if vulnerable {
			if reuses == 0 || rotations != 0 {
				t.Errorf("vulnerable: remap_reuse = %d, key_rotations = %d; want reuse only", reuses, rotations)
			}
		} else if rotations == 0 || reuses != 0 {
			t.Errorf("hardened default: key_rotations = %d, remap_reuse = %d; want rotation only", rotations, reuses)
		}
	}
}
