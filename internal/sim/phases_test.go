package sim

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestTerminalIndexShape pins the bounds the publish path relies on —
// an index of n jobs has at most ⌈log₂ n⌉+1 runs, strictly decreasing in
// length — and that an index value is persistent: every earlier value
// still answers exactly what it answered when it was current.
func TestTerminalIndexShape(t *testing.T) {
	ids := rand.New(rand.NewSource(1)).Perm(3000)
	var idx terminalIndex
	type held struct {
		idx terminalIndex
		n   int
	}
	var olds []held
	for n, id := range ids {
		ref := n
		if id%7 == 0 {
			ref = cancelledRef
		}
		idx = idx.with(id, ref)
		if limit := bits.Len(uint(n)) + 1; len(idx.runs) > limit {
			t.Fatalf("%d jobs in %d runs, want at most %d", n+1, len(idx.runs), limit)
		}
		for k := 1; k < len(idx.runs); k++ {
			if len(idx.runs[k]) >= len(idx.runs[k-1]) {
				t.Fatalf("after %d inserts run %d has %d entries, the one before %d", n+1, k, len(idx.runs[k]), len(idx.runs[k-1]))
			}
		}
		if n%97 == 0 {
			olds = append(olds, held{idx, n + 1})
		}
	}
	for _, old := range append(olds, held{idx, len(ids)}) {
		if old.idx.n != old.n {
			t.Fatalf("index of %d jobs says it holds %d", old.n, old.idx.n)
		}
		for n, id := range ids {
			e, ok := old.idx.get(id)
			if ok != (n < old.n) {
				t.Fatalf("index of %d jobs: get(%d) ok=%v for insert %d", old.n, id, ok, n)
			}
			if !ok {
				continue
			}
			wantPhase := JobFinished
			if id%7 == 0 {
				wantPhase = JobCancelled
			}
			if e.id != id || e.phase() != wantPhase || wantPhase == JobFinished && e.ref != n {
				t.Fatalf("index of %d jobs: get(%d) = %+v, inserted with ref %d as %v", old.n, id, e, n, wantPhase)
			}
		}
	}
}
