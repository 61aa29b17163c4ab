package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// streamDigest digests the op stream a workload generates for a seed: the
// ops themselves, not their timing.
func streamDigest(wl *workload, seed uint64) string {
	h := sha256.New()
	switch wl {
	case bulkSeq:
		// Each thread writes, then reads, its own file at these offsets; the
		// seed only staggers when the threads start.
		for th := 0; th < bulkThreads; th++ {
			fmt.Fprintln(h, th, bulkOffsets(bulkRecords))
		}
	case metaSmall:
		for c := 0; c < metaClients; c++ {
			for th := 0; th < metaThreads; th++ {
				fmt.Fprintln(h, metaStream(seed, c, th, metaOpsPerThread))
			}
		}
	case scaleMux:
		for i, rate := range muxLadder {
			gap := arrivalGap(muxRecord, rate, muxClients)
			fmt.Fprintln(h, rungSchedules(seed, i, muxClients, gap, muxRungWindow(i, 1), muxBlocks, muxWriteOne))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSeedChangesOpStreams(t *testing.T) {
	for _, wl := range workloads {
		same := streamDigest(wl, 1) == streamDigest(wl, 2)
		if want := wl == bulkSeq; same != want {
			t.Errorf("%s: op streams of seeds 1 and 2 equal = %v, want %v", wl.name, same, want)
		}
		if streamDigest(wl, 5) != streamDigest(wl, 5) {
			t.Errorf("%s: one seed generated two op streams", wl.name)
		}
	}
}

func TestMetaStreamMix(t *testing.T) {
	var count [len(metaMix)]int
	ops := metaStream(9, 3, 1, metaOpsPerThread)
	for _, op := range ops {
		count[op.kind]++
		if op.file < 0 || op.file >= metaFiles || op.block < 0 || op.block >= metaBlocks {
			t.Fatalf("op %+v outside the tree", op)
		}
	}
	for k, share := range metaMix {
		if want := metaOpsPerThread * share / 20; count[k] != want {
			t.Errorf("kind %d: %d ops, want %d", k, count[k], want)
		}
	}
}

// TestRepsPassChecks runs a short prefix of each closed-loop workload twice
// and checks that every output check passes and the simulated fingerprint
// repeats.
func TestRepsPassChecks(t *testing.T) {
	for _, wl := range []*workload{bulkSeq, metaSmall} {
		var fp string
		for i := 0; i < 2; i++ {
			r := &rep{wl: wl, seed: 4, prefix: 16}
			r.execute()
			if len(r.rec.failures) > 0 {
				t.Fatalf("%s: %v", wl.name, r.rec.failures)
			}
			if n, _ := r.measuredCalls(); n == 0 {
				t.Fatalf("%s: no measured calls", wl.name)
			}
			got := fingerprint(simMetrics(r))
			if i == 1 && got != fp {
				t.Errorf("%s: fingerprint %s then %s for one seed", wl.name, fp, got)
			}
			fp = got
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's
// metric definitions in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in the program",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eDefs)
	check("per_layer", spec.PerLayer, perLayerDefs())
}
