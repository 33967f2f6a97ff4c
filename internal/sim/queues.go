package sim

// The engine's per-cycle containers. Each reuses its storage across
// cycles, so the simulation loop allocates nothing per instruction.

// readyItem orders ready instructions oldest-first for issue.
type readyItem struct {
	seq  uint64
	slot int32
}

// readyHeap is a binary min-heap on seq. Seqs are unique, so the pop
// order is fully determined by the set of items.
type readyHeap []readyItem

func (h *readyHeap) push(it readyItem) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if s[i].seq <= s[j].seq {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *readyHeap) pop() readyItem {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].seq < s[j].seq {
			j = r
		}
		if s[i].seq <= s[j].seq {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s
	return top
}

// event is a scheduled completion.
type event struct {
	slot int32
	seq  uint64
}

const wheelBits = 15 // the event wheel spans 32k cycles; later events overflow

// wheelNode is one scheduled event in a bucket's list. Nodes live in a
// slab and are linked by index; index 0 is the nil link.
type wheelNode struct {
	ev   event
	next int32
}

// eventWheel holds pending completions by due cycle. Each of its 1<<15
// buckets is a FIFO list over one recycled node slab; events due 32k or
// more cycles ahead go to a map keyed by their exact cycle.
//
// Ordering rule: the events of one cycle are delivered in schedule
// order, first those from the bucket (take, next), then those from the
// overflow map (takeOverflow).
type eventWheel struct {
	head, tail [1 << wheelBits]int32
	nodes      []wheelNode // nodes[0] is unused so that 0 means nil
	free       int32       // head of the free-node list
	overflow   map[uint64][]event
}

// schedule adds an event due at cycle at, which must be after now.
func (w *eventWheel) schedule(now, at uint64, ev event) {
	if at-now >= 1<<wheelBits {
		if w.overflow == nil {
			w.overflow = map[uint64][]event{}
		}
		w.overflow[at] = append(w.overflow[at], ev)
		return
	}
	n := w.free
	if n != 0 {
		w.free = w.nodes[n].next
		w.nodes[n] = wheelNode{ev: ev}
	} else {
		if len(w.nodes) == 0 {
			w.nodes = append(w.nodes, wheelNode{})
		}
		n = int32(len(w.nodes))
		w.nodes = append(w.nodes, wheelNode{ev: ev})
	}
	b := at & (1<<wheelBits - 1)
	if w.tail[b] == 0 {
		w.head[b] = n
	} else {
		w.nodes[w.tail[b]].next = n
	}
	w.tail[b] = n
}

// take detaches the bucket of events due at cycle now and returns its
// first node for next to walk. Events due now must not be scheduled
// while the list is walked.
func (w *eventWheel) take(now uint64) int32 {
	b := now & (1<<wheelBits - 1)
	n := w.head[b]
	w.head[b], w.tail[b] = 0, 0
	return n
}

// next returns node n's event and the node after it, recycling n.
func (w *eventWheel) next(n int32) (event, int32) {
	nd := w.nodes[n]
	w.nodes[n].next = w.free
	w.free = n
	return nd.ev, nd.next
}

// takeOverflow removes and returns the overflow events due at now, which
// follow the bucket's events.
func (w *eventWheel) takeOverflow(now uint64) []event {
	if len(w.overflow) == 0 {
		return nil
	}
	ov := w.overflow[now]
	if ov != nil {
		delete(w.overflow, now)
	}
	return ov
}

// ring is a fixed-capacity FIFO queue over a circular buffer. Its
// capacity is the size of the structure it models (fetch queue, LSQ),
// whose occupancy limit the engine enforces before pushing.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, capacity)}
}

func (q *ring[T]) len() int   { return q.n }
func (q *ring[T]) full() bool { return q.n == len(q.buf) }

// at returns the i-th oldest element.
func (q *ring[T]) at(i int) *T {
	j := q.head + i
	if j >= len(q.buf) {
		j -= len(q.buf)
	}
	return &q.buf[j]
}

func (q *ring[T]) push(v T) {
	if q.full() {
		panic("sim: push to a full queue")
	}
	*q.at(q.n) = v
	q.n++
}

func (q *ring[T]) popFront() {
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
}
