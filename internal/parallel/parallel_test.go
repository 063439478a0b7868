package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out, err := Map(8, items, func(x int) (int, error) { return x * x, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapRunsConcurrently(t *testing.T) {
	var inFlight, maxInFlight int64
	items := make([]int, 32)
	_, err := Map(8, items, func(int) (int, error) {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			old := atomic.LoadInt64(&maxInFlight)
			if cur <= old || atomic.CompareAndSwapInt64(&maxInFlight, old, cur) {
				break
			}
		}
		// Spin a little to give other workers a chance to overlap.
		for i := 0; i < 100000; i++ {
			_ = i * i
		}
		atomic.AddInt64(&inFlight, -1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&maxInFlight) < 2 {
		t.Skip("no observable concurrency on this machine (GOMAXPROCS=1?)")
	}
}

func TestMapFirstErrorBySmallestIndex(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, err := Map(4, items, func(x int) (int, error) {
		if x%3 == 2 { // items 2 and 5 fail
			return 0, fmt.Errorf("boom %d", x)
		}
		return x, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if want := "item 2"; !errors.Is(err, err) || !contains(err.Error(), want) {
		t.Errorf("err = %v, want mention of %q", err, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestMapEmptyAndNil(t *testing.T) {
	out, err := Map(4, []int{}, func(int) (int, error) { return 1, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("empty map: %v %v", out, err)
	}
	if _, err := Map[int, int](4, []int{1}, nil); err == nil {
		t.Error("nil fn accepted")
	}
}

func TestMapZeroWorkersDefaults(t *testing.T) {
	out, err := Map(0, []int{1, 2, 3}, func(x int) (int, error) { return x + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if out[2] != 4 {
		t.Errorf("out = %v", out)
	}
}

// Property: parallel Map equals sequential map for pure functions.
func TestMapEquivalentToSequentialProperty(t *testing.T) {
	prop := func(xs []int16, workersRaw uint8) bool {
		items := make([]int, len(xs))
		for i, x := range xs {
			items[i] = int(x)
		}
		workers := int(workersRaw%16) + 1
		got, err := Map(workers, items, func(x int) (int, error) { return 3*x - 1, nil })
		if err != nil {
			return false
		}
		for i, x := range items {
			if got[i] != 3*x-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
