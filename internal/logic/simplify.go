package logic

// Simplify performs structural simplification: constant folding, flattening
// of nested conjunctions/disjunctions, removal of duplicate operands, and
// detection of complementary operands (x ∧ ¬x → ⊥, x ∨ ¬x → ⊤). The result
// is logically equivalent to the input.
//
// Simplify is idempotent and runs in expected linear time over the
// formula size: operands are compared by structural hash, each match
// confirmed with Equal. An already-simplified formula is returned as is,
// without allocating unless a node has more than maxStackArity operands.
func Simplify(f Formula) Formula {
	g, _ := simplify(f)
	return g
}

// simplify returns Simplify(f) and whether it differs from f. When it
// does not, the result is f itself, so unchanged subtrees are shared.
func simplify(f Formula) (Formula, bool) {
	switch f.kind {
	case KindTrue, KindFalse, KindVar:
		return f, false
	case KindNot:
		a, changed := simplify(f.args[0])
		if !changed && a.kind != KindNot && !a.IsConst() {
			return f, false
		}
		return Not(a), true
	case KindAnd, KindOr:
		unit, zero := KindTrue, KindFalse
		if f.kind == KindOr {
			unit, zero = KindFalse, KindTrue
		}
		// args stays nil until an operand changes; then it takes a copy
		// of the unchanged prefix and collects the flattened rest.
		var args []Formula
		for i, a := range f.args {
			s, changed := simplify(a)
			if s.kind == zero {
				return Formula{kind: zero}, true
			}
			if args == nil {
				if !changed && s.kind != unit && s.kind != f.kind {
					continue
				}
				args = make([]Formula, i, len(f.args))
				copy(args, f.args[:i])
			}
			switch s.kind {
			case unit:
			case f.kind:
				args = append(args, s.args...)
			default:
				args = append(args, s)
			}
		}
		g, changed := f, false
		if args != nil {
			g, changed = flat(f.kind, args), true
			if g.kind != KindAnd && g.kind != KindOr {
				return g, true
			}
		}
		g, dropped := dedupComplement(g)
		return g, changed || dropped
	}
	panic("logic: invalid formula kind " + f.kind.String())
}

// smallArity is the widest node dedupComplement scans pairwise; wider
// nodes go through a hash table so the pass stays linear.
const smallArity = 16

// maxStackArity is the widest node whose dedupComplement table fits on
// the stack.
const maxStackArity = 256

// dedupComplement removes duplicate operands from a flat And/Or node,
// keeping the first occurrence of each, and collapses the node to its
// absorbing constant if it contains complementary operands. It reports
// whether the result differs from f; if not, it returns f, allocating
// nothing unless f has more than maxStackArity operands.
func dedupComplement(f Formula) (Formula, bool) {
	collapse := True
	if f.kind == KindAnd {
		collapse = False
	}
	// Operands are compared by atom (the operand with any negation
	// stripped) and polarity: the same atom with the same polarity is a
	// duplicate, with the opposite one a complement.
	var out []Formula // nil until the first duplicate is dropped
	if len(f.args) <= smallArity {
		for j, a := range f.args {
			atom, neg := polarize(a)
			h := atom.hash()
			dup := false
			for _, b := range f.args[:j] {
				batom, bneg := polarize(b)
				if batom.hash() != h || !Equal(atom, batom) {
					continue
				}
				if bneg != neg {
					return collapse, true
				}
				dup = true
				break
			}
			out = keep(out, f.args, j, dup)
		}
	} else {
		// An open-addressed table of operand indices (+1; 0 marks a free
		// slot) probed by the atom's structural hash, at most half full.
		// Up to maxStackArity operands it lives on the stack, so a node
		// with nothing to drop allocates nothing.
		var stack [2 * maxStackArity]int32
		size := 1
		for size < 2*len(f.args) {
			size <<= 1
		}
		var slots []int32
		if size <= len(stack) {
			slots = stack[:size]
		} else {
			slots = make([]int32, size)
		}
		mask := uint32(size - 1)
		for j, a := range f.args {
			atom, neg := polarize(a)
			h := atom.hash()
			dup := false
			for k := h & mask; ; k = (k + 1) & mask {
				i := slots[k]
				if i == 0 {
					slots[k] = int32(j + 1)
					break
				}
				batom, bneg := polarize(f.args[i-1])
				if batom.hash() != h || !Equal(atom, batom) {
					continue
				}
				if bneg != neg {
					return collapse, true
				}
				dup = true
				break
			}
			out = keep(out, f.args, j, dup)
		}
	}
	if out == nil {
		return f, false
	}
	return flat(f.kind, out), true
}

// polarize splits an operand into its atom and whether it is negated.
func polarize(a Formula) (Formula, bool) {
	if a.kind == KindNot {
		return a.args[0], true
	}
	return a, false
}

// keep appends args[j] to out unless it is a duplicate. out stays nil
// while no operand has been dropped; the first drop copies the prefix.
func keep(out, args []Formula, j int, dup bool) []Formula {
	switch {
	case dup && out == nil:
		return append(make([]Formula, 0, len(args)-1), args[:j]...)
	case dup:
		return out
	case out != nil:
		return append(out, args[j])
	}
	return nil
}

// formulaMap maps formulas to int32 values by structural equality. A
// formula is stored under its structural hash, or, if that key is
// taken, under the next free key after it (linear probing over the
// hash space; entries are never deleted, so a lookup can stop at the
// first free key). A lookup confirms each hash match with Equal.
type formulaMap map[uint32]formulaEntry

type formulaEntry struct {
	f   Formula
	val int32
}

// get returns f's value and whether f is present.
func (m formulaMap) get(f Formula) (int32, bool) {
	h := f.hash()
	for k := h; ; k++ {
		e, ok := m[k]
		if !ok {
			return 0, false
		}
		if e.f.hash() == h && Equal(e.f, f) {
			return e.val, true
		}
	}
}

// put adds f, which must be absent, with value val.
func (m formulaMap) put(f Formula, val int32) {
	k := f.hash()
	for {
		if _, taken := m[k]; !taken {
			m[k] = formulaEntry{f, val}
			return
		}
		k++
	}
}

// NNF converts f to negation normal form: negations are pushed inward until
// they apply only to variables. The result is logically equivalent to f and
// at most twice its size.
func NNF(f Formula) Formula {
	switch f.kind {
	case KindTrue, KindFalse, KindVar:
		return f
	case KindNot:
		return nnfNeg(f.args[0])
	case KindAnd, KindOr:
		args := make([]Formula, 0, len(f.args))
		for _, a := range f.args {
			args = append(args, NNF(a))
		}
		return nary(f.kind, args)
	}
	panic("logic: invalid formula kind " + f.kind.String())
}

// nnfNeg returns the NNF of ¬f.
func nnfNeg(f Formula) Formula {
	switch f.kind {
	case KindTrue:
		return False
	case KindFalse:
		return True
	case KindVar:
		return Not(f)
	case KindNot:
		return NNF(f.args[0])
	case KindAnd, KindOr:
		k := KindOr
		if f.kind == KindOr {
			k = KindAnd
		}
		args := make([]Formula, 0, len(f.args))
		for _, a := range f.args {
			args = append(args, nnfNeg(a))
		}
		return nary(k, args)
	}
	panic("logic: invalid formula kind " + f.kind.String())
}
