package runner

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/des"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	// Make early indices finish last so completion order inverts submission
	// order: results must still land by index.
	out := MapWorkers(8, 16, func(i int) int {
		time.Sleep(time.Duration(16-i) * time.Millisecond)
		return i * i
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapSequentialAndParallelIdentical(t *testing.T) {
	fn := func(i int) string { return strings.Repeat("x", i) }
	seq := MapWorkers(1, 32, fn)
	par := MapWorkers(8, 32, fn)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("index %d differs: %q vs %q", i, seq[i], par[i])
		}
	}
}

func TestMapRunsEveryPointExactlyOnce(t *testing.T) {
	var counts [100]int64
	MapWorkers(7, len(counts), func(i int) struct{} {
		atomic.AddInt64(&counts[i], 1)
		return struct{}{}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("point %d ran %d times", i, c)
		}
	}
}

func TestMapZeroAndSmallN(t *testing.T) {
	if out := Map(0, func(i int) int { return i }); len(out) != 0 {
		t.Fatalf("n=0 returned %v", out)
	}
	if out := MapWorkers(64, 1, func(i int) int { return 7 }); len(out) != 1 || out[0] != 7 {
		t.Fatalf("n=1 returned %v", out)
	}
}

func TestMapPanicPropagatesAfterDrain(t *testing.T) {
	var completed int64
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		if !strings.Contains(r.(string), "point 3") {
			t.Fatalf("panic message %v does not name the failing point", r)
		}
		// All non-panicking points still ran: workers drained before rethrow.
		if n := atomic.LoadInt64(&completed); n != 7 {
			t.Fatalf("completed %d points, want 7", n)
		}
	}()
	MapWorkers(4, 8, func(i int) int {
		if i == 3 {
			panic("boom")
		}
		atomic.AddInt64(&completed, 1)
		return i
	})
}

func TestGridRowMajorOrder(t *testing.T) {
	pts := Grid(2, 3)
	want := [][]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if len(pts) != len(want) {
		t.Fatalf("len = %d, want %d", len(pts), len(want))
	}
	for i := range want {
		if pts[i][0] != want[i][0] || pts[i][1] != want[i][1] {
			t.Fatalf("pts[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
	if Grid(3, 0) != nil {
		t.Fatal("degenerate axis should yield nil")
	}
	if n := len(Grid(4, 2, 2)); n != 16 {
		t.Fatalf("Grid(4,2,2) has %d points, want 16", n)
	}
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d", Workers())
	}
}

// TestMapReportsProcessPanic runs a simulation whose process panics inside
// one sweep point and asserts the panic reaches Map's caller naming both
// the point and the process, instead of crashing the binary from a process
// goroutine.
func TestMapReportsProcessPanic(t *testing.T) {
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, `point 2: des: process "bad" panicked: boom`) {
			t.Fatalf("panic %v does not report the point and the process", r)
		}
	}()
	MapWorkers(4, 4, func(i int) des.Time {
		s := des.New()
		s.Spawn("bad", func(p *des.Proc) {
			p.Sleep(1)
			if i == 2 {
				panic("boom")
			}
		})
		return s.Run()
	})
	t.Fatal("Map returned despite a panicking point")
}
