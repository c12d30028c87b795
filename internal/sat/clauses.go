package sat

// Clauses is an ordered stream of clauses, each stored once: a clause's
// literals followed by a 0, in chunks that are never copied to grow. A
// compiler writes an instance into one stream, and Bulk lays the stream
// out in a solver without copying it again. The zero value is an empty
// stream.
type Clauses struct {
	chunks [][]Lit
}

// A stream's first chunk holds firstChunk literals and every later one
// clauseChunk: a query's few clauses fit the first, a compile's
// thousands fill the later ones.
const (
	firstChunk  = 256
	clauseChunk = 4096
)

// Add appends the clause lits to the stream. The empty clause makes an
// instance loaded from the stream unsatisfiable.
func (cs *Clauses) Add(lits ...Lit) {
	for _, l := range lits {
		if l == 0 {
			panic("sat: literal 0 is invalid")
		}
	}
	cs.add(lits)
}

// add appends a clause whose literals are known to be nonzero.
func (cs *Clauses) add(lits []Lit) {
	n := len(cs.chunks)
	if n == 0 || len(cs.chunks[n-1])+len(lits)+1 > cap(cs.chunks[n-1]) {
		size := firstChunk
		if n > 0 {
			size = clauseChunk
		}
		cs.chunks = append(cs.chunks, make([]Lit, 0, max(size, len(lits)+1)))
		n++
	}
	cs.chunks[n-1] = append(append(cs.chunks[n-1], lits...), 0)
}

// Each calls fn with every clause of the stream, in order. fn may
// rewrite the clause's literals in place but must not retain the slice.
func (cs *Clauses) Each(fn func(lits []Lit)) {
	for _, chunk := range cs.chunks {
		for i := 0; i < len(chunk); {
			j := i
			for chunk[j] != 0 {
				j++
			}
			fn(chunk[i:j])
			i = j + 1
		}
	}
}

// Renumber moves the variables above from to follow to instead: in
// every clause the stream holds, variable from+i becomes to+i, and the
// variables up to from keep their numbers. A writer that does not yet
// know how many variables an instance's other clauses name can number
// its own variables from a placeholder and move them into place once it
// does.
func (cs *Clauses) Renumber(from, to int) {
	lo, d := Lit(from), Lit(to-from)
	for _, chunk := range cs.chunks {
		for i, l := range chunk {
			switch {
			case l > lo:
				chunk[i] = l + d
			case l < -lo:
				chunk[i] = l - d
			}
		}
	}
}
