package avail

import (
	"math/rand"
	"sort"
	"testing"
)

// heapEntry mirrors one queued transition for the sort reference.
type heapEntry struct{ slot, worker int }

// drainHeap pops every entry, verifying the heap invariant never yields an
// out-of-order pair, and returns the pop sequence.
func drainHeap(t *testing.T, h *transitionHeap) []heapEntry {
	t.Helper()
	var got []heapEntry
	for h.len() > 0 {
		if at, ok := h.min(); !ok || at != h.slot[0] {
			t.Fatalf("min() = (%d, %v), root slot %d", at, ok, h.slot[0])
		}
		s, w := h.pop()
		got = append(got, heapEntry{s, w})
	}
	if _, ok := h.min(); ok {
		t.Fatalf("min() reports an entry on an empty heap")
	}
	return got
}

// TestTransitionHeapPopOrder drives random push/pop interleavings and checks
// the pop sequence against a stable sort reference on (slot, worker) —
// including batches where many workers share the same transition slot, the
// case whose worker-order tie-break applies simultaneous transitions, and
// their crash events, in ascending worker order.
func TestTransitionHeapPopOrder(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		var h transitionHeap
		h.reset()
		// A few slot values only, so same-slot ties are dense.
		n := 5 + r.Intn(300)
		want := make([]heapEntry, 0, n)
		for k := 0; k < n; k++ {
			e := heapEntry{slot: r.Intn(8), worker: r.Intn(50)}
			h.push(e.slot, e.worker)
			want = append(want, e)
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].slot != want[b].slot {
				return want[a].slot < want[b].slot
			}
			return want[a].worker < want[b].worker
		})
		got := drainHeap(t, &h)
		if len(got) != len(want) {
			t.Fatalf("seed %d: popped %d entries, pushed %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: pop[%d] = %+v, sorted reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestTransitionHeapInterleaved alternates pushes and pops (the clock's
// real access pattern: pop a due transition, push the worker's next
// one) and checks every pop is the minimum of the live set.
func TestTransitionHeapInterleaved(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		var h transitionHeap
		h.reset()
		live := map[heapEntry]int{} // multiset: duplicates are legal
		for op := 0; op < 2000; op++ {
			if h.len() == 0 || r.Intn(3) != 0 {
				e := heapEntry{slot: r.Intn(40), worker: r.Intn(64)}
				h.push(e.slot, e.worker)
				live[e]++
				continue
			}
			s, w := h.pop()
			got := heapEntry{s, w}
			for e := range live {
				if e.slot < s || (e.slot == s && e.worker < w) {
					t.Fatalf("seed %d op %d: popped %+v with smaller live entry %+v", seed, op, got, e)
				}
			}
			if live[got] == 0 {
				t.Fatalf("seed %d op %d: popped %+v which is not live", seed, op, got)
			}
			live[got]--
			if live[got] == 0 {
				delete(live, got)
			}
		}
	}
}
