package sat

// varHeap is a binary max-heap of variable indices ordered by activity,
// with an index table supporting in-place priority updates (the classic
// MiniSat order heap). Entries are int32: half the bytes of int on the
// arrays every decision and backtrack walks.
type varHeap struct {
	// activity points at the solver's activity slice, which growVarCaps
	// may reallocate; up and down dereference it once per call.
	activity *[]float64
	heap     []int32
	indices  []int32 // indices[v] is v's position in heap, or -1
}

// clone deep-copies the heap with capacity for n variables, rebinding it
// to the given activity slice (the clone's own, so later bumps don't
// couple the two solvers).
func (h *varHeap) clone(activity *[]float64, n int) varHeap {
	return varHeap{
		activity: activity,
		heap:     grown(h.heap, n-len(h.heap)),
		indices:  grown(h.indices, n-len(h.indices)),
	}
}

// grow pre-sizes the heap's backing arrays for n variables (see
// Solver.growVarCaps).
func (h *varHeap) grow(n int) {
	if cap(h.heap) < n {
		h.heap = grown(h.heap, n-len(h.heap))
	}
	if cap(h.indices) < n {
		h.indices = grown(h.indices, n-len(h.indices))
	}
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) contains(v int) bool {
	return v < len(h.indices) && h.indices[v] >= 0
}

// insert adds v if absent.
func (h *varHeap) insert(v int) {
	for len(h.indices) <= v {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	i := len(h.heap)
	h.heap = append(h.heap, int32(v))
	h.up(i)
}

// update restores heap order after v's activity increased.
func (h *varHeap) update(v int) {
	if h.contains(v) {
		h.up(int(h.indices[v]))
	}
}

// removeMax pops the highest-activity variable.
func (h *varHeap) removeMax() int {
	top := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap[0] = last
	h.indices[last] = 0
	h.indices[top] = -1
	h.heap = h.heap[:len(h.heap)-1]
	if len(h.heap) > 1 {
		h.down(0)
	}
	return int(top)
}

func (h *varHeap) up(i int) {
	act := *h.activity
	heap, indices := h.heap, h.indices
	v := heap[i]
	av := act[v]
	for i > 0 {
		parent := (i - 1) / 2
		p := heap[parent]
		if av <= act[p] {
			break
		}
		heap[i] = p
		indices[p] = int32(i)
		i = parent
	}
	heap[i] = v
	indices[v] = int32(i)
}

func (h *varHeap) down(i int) {
	act := *h.activity
	heap, indices := h.heap, h.indices
	n := len(heap)
	v := heap[i]
	av := act[v]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && act[heap[right]] > act[heap[left]] {
			child = right
		}
		c := heap[child]
		if act[c] <= av {
			break
		}
		heap[i] = c
		indices[c] = int32(i)
		i = child
	}
	heap[i] = v
	indices[v] = int32(i)
}
