package noc

// ring is a FIFO deque of values on a circular buffer whose length is
// zero or a power of two. It grows by doubling and never shrinks, so a
// queue that has reached its bound once never allocates again. Router
// input ports, bus source queues, the hybrid's retry queues and the
// sweep's source queues are all rings; pushFront exists for the bus's
// NACK path, which re-heads a corrupted transfer for retransmission.
type ring[T any] struct {
	buf  []T
	head int // index of the queue front in buf
	n    int // live entries
}

// front returns the queue head; valid only when n > 0.
func (q *ring[T]) front() *T { return &q.buf[q.head] }

// at returns the k-th entry from the front; valid only when k < n.
func (q *ring[T]) at(k int) *T { return &q.buf[(q.head+k)&(len(q.buf)-1)] }

// pushBack adds an entry at the back and returns it for the caller to
// fill. Filling it in place, rather than passing a value in, lets the
// compiler store the fields straight into the ring instead of spilling
// the argument and copying it.
func (q *ring[T]) pushBack() *T {
	if q.n == len(q.buf) {
		q.grow()
	}
	e := &q.buf[(q.head+q.n)&(len(q.buf)-1)]
	q.n++
	return e
}

func (q *ring[T]) pushFront(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = v
	q.n++
}

func (q *ring[T]) popFront() T {
	v := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the ring (minimum 4 slots), unwrapping entries to the
// front so the mask arithmetic stays valid.
func (q *ring[T]) grow() {
	nb := make([]T, max(4, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		nb[i] = *q.at(i)
	}
	q.buf, q.head = nb, 0
}

// slab holds a network's in-flight packets by value. A packet keeps its
// index from hold to release; released indices are reused last in,
// first out, so the slab grows only to the network's peak occupancy.
type slab struct {
	at   []Packet
	free []int32
}

// hold copies p into the slab and returns its index.
func (s *slab) hold(p Packet) int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		s.at[idx] = p
		return idx
	}
	s.at = append(s.at, p)
	return int32(len(s.at) - 1)
}

// release frees index idx.
func (s *slab) release(idx int32) { s.free = append(s.free, idx) }
