package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestReadyHeapPopsOldestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h readyHeap
	var ref []uint64
	present := map[uint64]bool{}
	seq := uint64(0)
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || rng.Intn(3) > 0 {
			// Seqs are unique but not pushed in order (stashed items
			// return to the heap after younger ones arrived).
			seq += uint64(1 + rng.Intn(5))
			s := seq - uint64(rng.Intn(int(min(seq, 50))))
			if present[s] {
				continue
			}
			present[s] = true
			h.push(readyItem{seq: s, slot: int32(s % 97)})
			ref = append(ref, s)
			sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			continue
		}
		got := h.pop()
		if got.seq != ref[0] || got.slot != int32(ref[0]%97) {
			t.Fatalf("step %d: pop = %+v, want seq %d", step, got, ref[0])
		}
		delete(present, ref[0])
		ref = ref[1:]
	}
	if len(h) != len(ref) {
		t.Fatalf("heap holds %d items, want %d", len(h), len(ref))
	}
}

// TestEventWheelOrder drives the wheel with random delays, including
// ones past its horizon, and checks the delivery order of each cycle:
// bucket events in schedule order, then overflow events in schedule
// order.
func TestEventWheelOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var w eventWheel
	type due struct{ near, far []event }
	want := map[uint64]*due{}
	id := int32(0)
	pending, maxPending := 0, 0 // events held in the node slab
	const cycles = 3 << wheelBits
	for now := uint64(1); now <= cycles; now++ {
		var got []event
		for n := w.take(now); n != 0; {
			var ev event
			ev, n = w.next(n)
			got = append(got, ev)
			pending--
		}
		got = append(got, w.takeOverflow(now)...)
		var exp []event
		if d := want[now]; d != nil {
			exp = append(append(exp, d.near...), d.far...)
			delete(want, now)
		}
		if len(got) != len(exp) {
			t.Fatalf("cycle %d: %d events, want %d", now, len(got), len(exp))
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("cycle %d: event %d = %+v, want %+v", now, i, got[i], exp[i])
			}
		}
		if now > cycles-(2<<wheelBits) {
			continue // let everything scheduled come due
		}
		for k := rng.Intn(4); k > 0; k-- {
			var delay uint64
			switch rng.Intn(4) {
			case 0:
				delay = 1<<wheelBits + uint64(rng.Intn(1000)) // overflow
			case 1:
				delay = 1<<wheelBits - 1 - uint64(rng.Intn(3)) // last wheel slots
			default:
				delay = 1 + uint64(rng.Intn(300))
			}
			at := now + delay
			id++
			ev := event{slot: id, seq: uint64(id)}
			w.schedule(now, at, ev)
			d := want[at]
			if d == nil {
				d = &due{}
				want[at] = d
			}
			if delay < 1<<wheelBits {
				d.near = append(d.near, ev)
				pending++
				maxPending = max(maxPending, pending)
			} else {
				d.far = append(d.far, ev)
			}
		}
	}
	if len(want) != 0 || len(w.overflow) != 0 {
		t.Fatalf("%d cycles of events never delivered", len(want))
	}
	// Delivered nodes are recycled: the slab (plus its nil node) holds
	// no more nodes than were ever pending at once.
	if len(w.nodes)-1 > maxPending {
		t.Fatalf("node slab grew to %d nodes, at most %d were pending", len(w.nodes)-1, maxPending)
	}
}

func TestRingWraps(t *testing.T) {
	q := newRing[int](5)
	next, head := 0, 0
	for step := 0; step < 1000; step++ {
		if !q.full() && (q.len() == 0 || step%3 != 0) {
			q.push(next)
			next++
		} else {
			if *q.at(0) != head {
				t.Fatalf("step %d: front = %d, want %d", step, *q.at(0), head)
			}
			q.popFront()
			head++
		}
		for i := 0; i < q.len(); i++ {
			if *q.at(i) != head+i {
				t.Fatalf("step %d: at(%d) = %d, want %d", step, i, *q.at(i), head+i)
			}
		}
	}
	if next < 10*len(q.buf) {
		t.Fatalf("only %d pushes: the buffer barely wrapped", next)
	}
}
