package des

import (
	"testing"
)

// TestKernelBenchmarksAllocFree pins the kernel's allocation contract with
// tracing disabled (the default): every BenchmarkKernel* hot path runs at
// 0 allocs/op, except that a spawn allocates its Proc handle and nothing
// else (its coroutine comes from the pool). The tracing layer must remain a
// nil-check when off — a regression here means an instrumentation site
// allocates even when no tracer is installed.
func TestKernelBenchmarksAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-driven; skipped in -short")
	}
	benches := []struct {
		name string
		fn   func(*testing.B)
		max  int64 // EventFire's fresh one-shot Event grows a waiters slice per op; Spawn allocates its Proc
	}{
		{"ScheduleResume", BenchmarkKernelScheduleResume, 0},
		{"QueuePutGet", BenchmarkKernelQueuePutGet, 0},
		{"EventFire", BenchmarkKernelEventFire, 1},
		{"Resource", BenchmarkKernelResource, 0},
		{"TimerHeap", BenchmarkKernelTimerHeap, 0},
		{"Spawn", BenchmarkKernelSpawn, 1},
	}
	for _, b := range benches {
		b := b
		t.Run(b.name, func(t *testing.T) {
			r := testing.Benchmark(b.fn)
			if allocs := r.AllocsPerOp(); allocs > b.max {
				t.Fatalf("BenchmarkKernel%s: %d allocs/op with tracing disabled, want <= %d", b.name, allocs, b.max)
			}
		})
	}
}
