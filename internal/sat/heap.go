package sat

// varHeap is a binary max-heap of variable indices ordered by activity,
// with an index table supporting in-place priority updates (the classic
// MiniSat order heap).
type varHeap struct {
	activity *[]float64
	heap     []int
	indices  []int // indices[v] is v's position in heap, or -1
}

func newVarHeap(activity *[]float64) *varHeap {
	return &varHeap{activity: activity}
}

// clone deep-copies the heap, rebinding it to the given activity slice
// (the clone's own, so later bumps don't couple the two solvers).
func (h *varHeap) clone(activity *[]float64) *varHeap {
	return &varHeap{
		activity: activity,
		heap:     append([]int(nil), h.heap...),
		indices:  append([]int(nil), h.indices...),
	}
}

// grow pre-sizes the heap's backing arrays for n variables (see
// Solver.EnsureVars).
func (h *varHeap) grow(n int) {
	if cap(h.heap) < n {
		heap := make([]int, len(h.heap), n)
		copy(heap, h.heap)
		h.heap = heap
	}
	if cap(h.indices) < n {
		indices := make([]int, len(h.indices), n)
		copy(indices, h.indices)
		h.indices = indices
	}
}

func (h *varHeap) less(a, b int) bool {
	act := *h.activity
	return act[a] > act[b]
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
	h.indices[v] = len(h.heap)
	h.heap = append(h.heap, v)
	h.up(h.indices[v])
}

// update restores heap order after v's activity increased.
func (h *varHeap) update(v int) {
	if h.contains(v) {
		h.up(h.indices[v])
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
	return top
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.indices[h.heap[i]] = i
		i = parent
	}
	h.heap[i] = v
	h.indices[v] = i
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	for {
		left := 2*i + 1
		if left >= len(h.heap) {
			break
		}
		child := left
		if right := left + 1; right < len(h.heap) && h.less(h.heap[right], h.heap[left]) {
			child = right
		}
		if !h.less(h.heap[child], v) {
			break
		}
		h.heap[i] = h.heap[child]
		h.indices[h.heap[i]] = i
		i = child
	}
	h.heap[i] = v
	h.indices[v] = i
}
