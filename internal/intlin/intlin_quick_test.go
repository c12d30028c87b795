package intlin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"netarch/internal/sat"
)

// TestQuickLinearCombination is the package's end-to-end property: a
// random linear combination of pinned variables must evaluate to the
// arithmetic result, and every reified comparison against it must agree
// with native Go arithmetic.
func TestQuickLinearCombination(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := sat.NewSolver()
		b := New(s)
		n := 1 + r.Intn(4)
		var want int64
		terms := make([]Int, n)
		assumps := make([]sat.Lit, 0, n)
		for i := 0; i < n; i++ {
			max := int64(1 + r.Intn(50))
			val := int64(r.Intn(int(max + 1)))
			coef := int64(r.Intn(7))
			x := b.Var(max)
			terms[i] = scaledInt(b, x, coef)
			assumps = append(assumps, b.EqConst(x, val))
			want += coef * val
		}
		total := b.Sum(terms...)
		k := int64(r.Intn(int(total.Max() + 2)))
		leq := b.LeqConst(total, k)
		geq := b.GeqConst(total, k)
		eq := b.EqConst(total, k)
		if s.SolveAssuming(assumps) != sat.Sat {
			return false
		}
		m := s.Model()
		val := func(l sat.Lit) bool { return m[l.Var()-1] != l.Neg() }
		return ValueOf(total, m) == want &&
			val(leq) == (want <= k) &&
			val(geq) == (want >= k) &&
			val(eq) == (want == k)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickAddCommutes checks Add(a,b) and Add(b,a) agree in every model.
func TestQuickAddCommutes(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := sat.NewSolver()
		b := New(s)
		x := b.Var(int64(1 + r.Intn(40)))
		y := b.Var(int64(1 + r.Intn(40)))
		ab := b.Add(x, y)
		ba := b.Add(y, x)
		b.s.AddClause(b.Eq(ab, ba))
		// Must be satisfiable for every pinning of x and y.
		xv := int64(r.Intn(int(x.Max() + 1)))
		yv := int64(r.Intn(int(y.Max() + 1)))
		if s.SolveAssuming([]sat.Lit{b.EqConst(x, xv), b.EqConst(y, yv)}) != sat.Sat {
			return false
		}
		m := s.Model()
		return ValueOf(ab, m) == xv+yv && ValueOf(ba, m) == xv+yv
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickComparatorTotality checks that for any two pinned ints exactly
// one of lt / eq / gt holds.
func TestQuickComparatorTotality(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := sat.NewSolver()
		b := New(s)
		x := b.Var(int64(1 + r.Intn(30)))
		y := b.Var(int64(1 + r.Intn(30)))
		lt := b.Leq(y, x).Flip()
		eq := b.Eq(x, y)
		gt := b.Leq(x, y).Flip()
		xv := int64(r.Intn(int(x.Max() + 1)))
		yv := int64(r.Intn(int(y.Max() + 1)))
		if s.SolveAssuming([]sat.Lit{b.EqConst(x, xv), b.EqConst(y, yv)}) != sat.Sat {
			return false
		}
		m := s.Model()
		val := func(l sat.Lit) bool { return m[l.Var()-1] != l.Neg() }
		count := 0
		for _, v := range []bool{val(lt), val(eq), val(gt)} {
			if v {
				count++
			}
		}
		return count == 1 &&
			val(lt) == (xv < yv) && val(eq) == (xv == yv) && val(gt) == (xv > yv)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
