package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/des.(*Sim).Run":                    "des",
		"repro/internal/rpcrdma.(*ServerTransport).handle": "rpcrdma",
		"repro/internal/experiments/runner.MapWorkers":     "experiments",
		"repro/internal/xdr.NewEncoder":                    "xdr",
		"runtime.chansend":                                 "",
		"main.(*recorder).end":                             "",
		"repro/perfbench.run":                              "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeInnermostRepoFrame(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		// Channel handoff below a des frame is des time.
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "repro/internal/des.(*Proc).park", "repro/internal/rpcrdma.(*ServerTransport).worker"}, "des"},
		// Allocation charged to the innermost repository caller.
		{[]string{"runtime.mallocgc", "runtime.growslice", "repro/internal/xdr.(*Encoder).Uint32", "repro/internal/nfs3.(*ReadArgs).Encode"}, "xdr"},
		// The benchmark's own frames are transparent.
		{[]string{"main.(*recorder).end", "main.glob..func5.1", "repro/internal/core.(*File).ReadAt"}, "core"},
		// No repository frame at all: collector and scheduler work.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{nil, "gc"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestHostSharesFromCPUProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles half a second of work")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		rungSwitch(50_000)
	}
	pprof.StopCPUProfile()
	shares, samples, err := hostShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Skipf("only %d samples", samples)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	// The ping-pong spends its time in the des kernel and the channel
	// handoffs below it.
	if shares["des"] < 0.5 {
		t.Errorf("des share = %.2f of %d samples, want most of them (%v)", shares["des"], samples, shares)
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, _, err := hostShares([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}
