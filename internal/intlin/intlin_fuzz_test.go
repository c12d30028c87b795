package intlin

import (
	"fmt"
	"testing"

	"netarch/internal/sat"
)

// fuzzReader hands out the fuzz input one byte at a time, then zeros.
type fuzzReader []byte

func (r *fuzzReader) more() bool { return len(*r) > 0 }

func (r *fuzzReader) next() int64 {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int64(b)
}

// FuzzArith builds a random circuit of Const, Var, ScaledBool, Add, Sum
// and constant-multiple (scaledInt) terms over a mix of constant and free
// operands, pins every free operand to a value the input picks (through
// assumptions, so the circuit itself stays unconstrained), and checks
// each term's ValueOf and Max against integer arithmetic. Constant
// operands exercise the gates' folding; free ones the gates they still
// build.
func FuzzArith(f *testing.F) {
	f.Add([]byte{1, 13, 11, 0, 7, 3, 0, 0, 3, 1, 1})
	f.Add([]byte{2, 2, 1, 5, 2, 0, 3, 2, 3, 1, 5, 4, 3, 0, 1, 2, 5, 2, 9})
	f.Add([]byte{1, 255, 200, 2, 3, 0, 99, 5, 0, 37, 4, 2, 1, 0, 3, 2, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		s := sat.NewSolver()
		b := New(s)
		type term struct {
			a    Int
			want int64
			desc string
		}
		var terms []term
		var assumps []sat.Lit
		pick := func() term {
			if len(terms) == 0 {
				return term{b.Const(0), 0, "0"}
			}
			return terms[int(r.next())%len(terms)]
		}
		// boolLit returns a constant or a fresh free literal with its
		// pinned truth value.
		boolLit := func() (sat.Lit, bool) {
			switch r.next() % 4 {
			case 0:
				return b.True(), true
			case 1:
				return b.False(), false
			}
			l := sat.Lit(s.NewVar())
			if r.next()&1 == 1 {
				assumps = append(assumps, l)
				return l, true
			}
			assumps = append(assumps, l.Flip())
			return l, false
		}
		const limit = 1 << 40 // keeps every sum and product inside int64
		for len(terms) < 12 && r.more() {
			var tm term
			switch r.next() % 7 {
			case 0:
				v := r.next() << (r.next() % 12)
				tm = term{b.Const(v), v, fmt.Sprint(v)}
			case 1:
				max := r.next() << (r.next() % 4)
				v := r.next() % (max + 1)
				x := b.Var(max)
				assumps = append(assumps, b.EqConst(x, v))
				tm = term{x, v, fmt.Sprintf("var[0,%d]=%d", max, v)}
			case 2:
				l, on := boolLit()
				c := r.next()
				want := int64(0)
				if on {
					want = c
				}
				tm = term{b.ScaledBool(l, c), want, fmt.Sprintf("%d·bool(%v)", c, on)}
			case 3:
				l, on := boolLit()
				want := int64(0)
				if on {
					want = 1
				}
				tm = term{b.ScaledBool(l, 1), want, fmt.Sprintf("bool(%v)", on)}
			case 4:
				x, y := pick(), pick()
				if x.a.Max()+y.a.Max() > limit {
					continue
				}
				tm = term{b.Add(x.a, y.a), x.want + y.want, fmt.Sprintf("(%s + %s)", x.desc, y.desc)}
			case 5:
				n := 1 + int(r.next()%4)
				parts := make([]Int, n)
				var max int64
				tm.desc = "sum("
				for i := range parts {
					p := pick()
					parts[i], max = p.a, max+p.a.Max()
					tm.want += p.want
					tm.desc += p.desc + ","
				}
				if max > limit {
					continue
				}
				tm.a = b.Sum(parts...)
				tm.desc += ")"
			case 6:
				x, c := pick(), r.next()%64
				if c > 0 && x.a.Max() > limit/c {
					continue
				}
				tm = term{scaledInt(b, x.a, c), x.want * c, fmt.Sprintf("%d·%s", c, x.desc)}
			}
			terms = append(terms, tm)
		}
		if s.SolveAssuming(assumps) != sat.Sat {
			t.Fatal("pinning the free operands must be satisfiable")
		}
		m := s.Model()
		for i, tm := range terms {
			if got := ValueOf(tm.a, m); got != tm.want {
				t.Fatalf("term %d %s = %d, want %d", i, tm.desc, got, tm.want)
			}
			if tm.want > tm.a.Max() {
				t.Fatalf("term %d %s = %d exceeds its Max %d", i, tm.desc, tm.want, tm.a.Max())
			}
		}
	})
}
