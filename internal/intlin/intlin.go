// Package intlin encodes bounded non-negative integer linear arithmetic
// into CNF by bit-blasting: integer variables become vectors of SAT
// literals, sums become ripple-carry adders, and comparisons become
// reified lexicographic comparator circuits.
//
// The reasoning engine uses it for the quantitative half of the paper's
// rules of thumb — core counts, memory, port bandwidth, power budgets —
// which §3.1 singles out as the facts that are "easy to accurately
// characterize" and therefore worth encoding exactly.
//
// All integers are non-negative; ranges are [0, Max]. Widths are sized to
// the declared maximum and overflow is impossible by construction (adders
// grow their result width).
package intlin

import (
	"fmt"
	"math/bits"
	"slices"

	"netarch/internal/sat"
)

// Int is a bit-blasted non-negative integer. Bit 0 is least significant.
// Every bit is a solver literal; constants use the builder's fixed
// true/false literal, so all Ints are handled uniformly.
type Int struct {
	bits []sat.Lit
	max  int64 // inclusive upper bound implied by construction
}

// Max returns the largest value the integer can take.
func (a Int) Max() int64 { return a.max }

// Width returns the number of bits.
func (a Int) Width() int { return len(a.bits) }

// Bit returns the literal of bit i (bit 0 is least significant).
func (a Int) Bit(i int) sat.Lit { return a.bits[i] }

// Builder allocates integer circuits in a solver. It reuses a scratch
// buffer across gates, so one Builder must not be used from two
// goroutines at once.
type Builder struct {
	s       *sat.Solver
	trueLit sat.Lit   // a literal constrained to be true
	in      []sat.Lit // scratch: a gate's folded inputs
}

// New returns a Builder emitting into s. It allocates one variable pinned
// true to represent constant bits.
func New(s *sat.Solver) *Builder {
	t := sat.Lit(s.NewVar())
	s.AddClause(t)
	return &Builder{s: s, trueLit: t}
}

// Attach returns a Builder emitting into s that reuses an existing
// constant-true literal rather than allocating one: trueLit must already
// be pinned true inside s. A clone of a solver, or a solver restored from
// a snapshot, holds the original Builder's pinned variable, so
// Attach(clone, b.True()) builds circuits over the clone.
func Attach(s *sat.Solver, trueLit sat.Lit) *Builder {
	return &Builder{s: s, trueLit: trueLit}
}

// True returns the builder's constant-true literal.
func (b *Builder) True() sat.Lit { return b.trueLit }

// False returns the builder's constant-false literal.
func (b *Builder) False() sat.Lit { return b.trueLit.Flip() }

func widthFor(max int64) int {
	if max <= 0 {
		return 0
	}
	return bits.Len64(uint64(max))
}

// Const builds the constant v (v ≥ 0).
func (b *Builder) Const(v int64) Int {
	if v < 0 {
		panic(fmt.Sprintf("intlin: negative constant %d", v))
	}
	w := widthFor(v)
	out := Int{bits: make([]sat.Lit, w), max: v}
	for i := 0; i < w; i++ {
		if v&(1<<i) != 0 {
			out.bits[i] = b.trueLit
		} else {
			out.bits[i] = b.False()
		}
	}
	return out
}

// Var builds a fresh integer variable ranging over [0, max].
func (b *Builder) Var(max int64) Int {
	if max < 0 {
		panic(fmt.Sprintf("intlin: negative maximum %d", max))
	}
	w := widthFor(max)
	out := Int{bits: make([]sat.Lit, w), max: max}
	for i := range out.bits {
		out.bits[i] = sat.Lit(b.s.NewVar())
	}
	// If max is not 2^w - 1, forbid values above max.
	if max != (1<<w)-1 {
		b.s.AddClause(b.LeqConst(out, max))
	}
	return out
}

// ScaledBool returns the integer that is c when l is true and 0 otherwise
// (c ≥ 0). It is the building block for "deploying system S costs c cores".
func (b *Builder) ScaledBool(l sat.Lit, c int64) Int {
	if c < 0 {
		panic(fmt.Sprintf("intlin: negative scale %d", c))
	}
	w := widthFor(c)
	out := Int{bits: make([]sat.Lit, w), max: c}
	for i := 0; i < w; i++ {
		if c&(1<<i) != 0 {
			out.bits[i] = l
		} else {
			out.bits[i] = b.False()
		}
	}
	return out
}

// gate helpers -------------------------------------------------------------
//
// Every gate folds its inputs before it allocates anything: a constant
// input that cannot change the result drops out, one that decides the
// result is returned as that constant, duplicates merge, and a gate left
// with a single input returns that input. A circuit over constant operands
// (an adder's initial carry, ScaledBool's zero bits, bits past an
// operand's width) therefore costs no variable and no clause.

// andGate returns a literal g with g ↔ (l1 ∧ … ∧ ln).
func (b *Builder) andGate(ls ...sat.Lit) sat.Lit { return b.gate(ls, false) }

// orGate returns a literal g with g ↔ (l1 ∨ … ∨ ln).
func (b *Builder) orGate(ls ...sat.Lit) sat.Lit { return b.gate(ls, true) }

// gate returns a literal g with g ↔ (l1 ∧ … ∧ ln), or g ↔ (l1 ∨ … ∨ ln)
// when or is set. An or-gate is built as the and-gate of the complemented
// inputs with its output complemented (De Morgan), so the fresh variable
// is still the or-gate's positive output.
func (b *Builder) gate(ls []sat.Lit, or bool) sat.Lit {
	neg := func(l sat.Lit) sat.Lit {
		if or {
			return l.Flip()
		}
		return l
	}
	// b.in[0] is left for the output literal of the long clause.
	b.in = append(b.in[:0], 0)
	for _, l := range ls {
		x := neg(l) // the and-gate's input
		if x == b.trueLit || slices.Contains(b.in[1:], x) {
			continue
		}
		if x == b.False() || slices.Contains(b.in[1:], x.Flip()) {
			return neg(b.False())
		}
		b.in = append(b.in, x)
	}
	switch len(b.in) {
	case 1:
		return neg(b.trueLit)
	case 2:
		return neg(b.in[1])
	}
	g := sat.Lit(b.s.NewVar())
	out := neg(g) // out ↔ ∧ x
	for i, x := range b.in[1:] {
		b.s.AddClause(out.Flip(), x) // out -> x
		b.in[i+1] = x.Flip()
	}
	b.in[0] = out
	b.s.AddClause(b.in...) // all x -> out
	return g
}

// iffGate returns a literal g with g ↔ (a ↔ c).
func (b *Builder) iffGate(a, c sat.Lit) sat.Lit {
	if c.Var() == b.trueLit.Var() {
		a, c = c, a
	}
	switch a {
	case c:
		return b.trueLit
	case c.Flip():
		return b.False()
	case b.trueLit:
		return c
	case b.False():
		return c.Flip()
	}
	g := sat.Lit(b.s.NewVar())
	b.s.AddClause(g.Flip(), a.Flip(), c)
	b.s.AddClause(g.Flip(), a, c.Flip())
	b.s.AddClause(g, a, c)
	b.s.AddClause(g, a.Flip(), c.Flip())
	return g
}

// xorGate returns a literal g with g ↔ (a ⊕ c).
func (b *Builder) xorGate(a, c sat.Lit) sat.Lit {
	return b.iffGate(a, c).Flip()
}

// fullAdder returns sum and carry-out literals for a+c+cin.
func (b *Builder) fullAdder(a, c, cin sat.Lit) (sum, cout sat.Lit) {
	sum = b.xorGate(b.xorGate(a, c), cin)
	cout = b.orGate(b.andGate(a, c), b.andGate(a, cin), b.andGate(c, cin))
	return sum, cout
}

// bit returns the i-th bit of a, or constant false beyond its width.
func (b *Builder) bit(a Int, i int) sat.Lit {
	if i < len(a.bits) {
		return a.bits[i]
	}
	return b.False()
}

// Add returns a+c as a new integer (width grows to avoid overflow).
func (b *Builder) Add(a, c Int) Int {
	max := a.max + c.max
	w := widthFor(max)
	out := Int{bits: make([]sat.Lit, w), max: max}
	carry := b.False()
	for i := 0; i < w; i++ {
		out.bits[i], carry = b.fullAdder(b.bit(a, i), b.bit(c, i), carry)
	}
	// carry out of the top bit is impossible given max; no clause needed.
	return out
}

// Sum returns the sum of all terms using a balanced tree of adders.
func (b *Builder) Sum(terms ...Int) Int {
	switch len(terms) {
	case 0:
		return b.Const(0)
	case 1:
		return terms[0]
	}
	mid := len(terms) / 2
	return b.Add(b.Sum(terms[:mid]...), b.Sum(terms[mid:]...))
}

// comparisons ---------------------------------------------------------------

// LeqConst returns a reified literal g with g ↔ (a ≤ k).
func (b *Builder) LeqConst(a Int, k int64) sat.Lit {
	if k < 0 {
		return b.False()
	}
	if k >= a.max {
		return b.trueLit
	}
	// MSB-first: leq holds iff for the highest bit where a differs from k,
	// a has 0 and k has 1 — or they never differ.
	leq := b.trueLit
	for i := 0; i < len(a.bits); i++ { // from LSB to MSB, folding suffix results
		ai := a.bits[i]
		if k&(1<<i) != 0 {
			// ki=1: leq_i ↔ ¬ai ∨ leq_{i+1}
			leq = b.orGate(ai.Flip(), leq)
		} else {
			// ki=0: leq_i ↔ ¬ai ∧ leq_{i+1}
			leq = b.andGate(ai.Flip(), leq)
		}
	}
	return leq
}

// GeqConst returns a reified literal g with g ↔ (a ≥ k).
func (b *Builder) GeqConst(a Int, k int64) sat.Lit {
	if k <= 0 {
		return b.trueLit
	}
	if k > a.max {
		return b.False()
	}
	return b.LeqConst(a, k-1).Flip()
}

// Leq returns a reified literal g with g ↔ (a ≤ c).
func (b *Builder) Leq(a, c Int) sat.Lit {
	w := len(a.bits)
	if len(c.bits) > w {
		w = len(c.bits)
	}
	// lt_i / eq_i over the suffix of bits i..w-1, folded LSB→MSB:
	// lt over suffix i = (¬a_i ∧ c_i) ∨ ((a_i ↔ c_i) ∧ lt_{i+1}).
	lt := b.False()
	for i := 0; i < w; i++ {
		ai, ci := b.bit(a, i), b.bit(c, i)
		lt = b.orGate(b.andGate(ai.Flip(), ci), b.andGate(b.iffGate(ai, ci), lt))
	}
	// a ≤ c ⟺ a < c ∨ a = c; fold equality into the final or.
	return b.orGate(lt, b.Eq(a, c))
}

// Eq returns a reified literal g with g ↔ (a = c).
func (b *Builder) Eq(a, c Int) sat.Lit {
	w := len(a.bits)
	if len(c.bits) > w {
		w = len(c.bits)
	}
	ls := make([]sat.Lit, w)
	for i := 0; i < w; i++ {
		ls[i] = b.iffGate(b.bit(a, i), b.bit(c, i))
	}
	return b.andGate(ls...)
}

// AssertImplies adds guard → l.
func (b *Builder) AssertImplies(guard, l sat.Lit) { b.s.AddClause(guard.Flip(), l) }

// AssertImpliesEq adds guard → (a = k) as one binary clause ¬guard ∨ ±bit
// per bit of a, with no auxiliary variable: nothing reads the reverse
// direction of a guarded equality. A k outside [0, a.Max()] adds the unit
// ¬guard.
func (b *Builder) AssertImpliesEq(guard sat.Lit, a Int, k int64) {
	if k < 0 || k > a.max {
		b.s.AddClause(guard.Flip())
		return
	}
	for i, l := range a.bits {
		if k&(1<<i) == 0 {
			l = l.Flip()
		}
		b.s.AddClause(guard.Flip(), l)
	}
}

// ValueOf reads the integer's value from a model (model[i] is the value of
// variable i+1).
func ValueOf(a Int, model []bool) int64 {
	var v int64
	for i, l := range a.bits {
		val := model[l.Var()-1]
		if l.Neg() {
			val = !val
		}
		if val {
			v |= 1 << i
		}
	}
	return v
}
