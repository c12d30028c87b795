// Package logic provides a propositional-logic formula representation with
// named variables, negation normal form, and Tseitin conversion to CNF.
//
// The package is the front end of the reasoning shim described in the paper
// "Lightweight Automated Reasoning for Network Architectures" (HotNets '24):
// knowledge-base rules are assembled as Formula values and compiled to CNF
// for the CDCL solver in internal/sat.
//
// Formulas are immutable; all combinators return new values. The zero
// Formula is invalid — use True, False, or the constructors.
package logic

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies the top-level connective of a Formula node.
type Kind uint8

// Formula node kinds.
const (
	KindFalse Kind = iota // the constant ⊥
	KindTrue              // the constant ⊤
	KindVar               // a propositional variable
	KindNot               // ¬f
	KindAnd               // f1 ∧ … ∧ fn
	KindOr                // f1 ∨ … ∨ fn
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindFalse:
		return "false"
	case KindTrue:
		return "true"
	case KindVar:
		return "var"
	case KindNot:
		return "not"
	case KindAnd:
		return "and"
	case KindOr:
		return "or"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Var is a propositional variable, identified by an index into a Vocabulary.
// Variables are 1-based; 0 is reserved as "no variable".
type Var uint32

// Formula is an immutable propositional formula. Implies and Iff are
// provided as derived constructors and are expanded structurally, so the
// node kinds are limited to the six above.
type Formula struct {
	kind Kind
	v    Var       // valid when kind == KindVar
	args []Formula // valid when kind is KindNot (len 1), KindAnd, KindOr
}

// True is the constant ⊤.
var True = Formula{kind: KindTrue}

// False is the constant ⊥.
var False = Formula{kind: KindFalse}

// Kind reports the top-level connective.
func (f Formula) Kind() Kind { return f.kind }

// V returns the formula consisting of the single variable v.
// It panics if v is 0, which is reserved.
func V(v Var) Formula {
	if v == 0 {
		panic("logic: variable 0 is reserved")
	}
	return Formula{kind: KindVar, v: v}
}

// Not returns ¬f, folding constants and double negation.
func Not(f Formula) Formula {
	switch f.kind {
	case KindTrue:
		return False
	case KindFalse:
		return True
	case KindNot:
		return f.args[0]
	}
	return Formula{kind: KindNot, args: []Formula{f}}
}

// And returns the conjunction of fs. Nested conjunctions are flattened,
// ⊤ operands are dropped, and any ⊥ operand collapses the result to ⊥.
// And() is ⊤.
func And(fs ...Formula) Formula { return nary(KindAnd, fs) }

// Or returns the disjunction of fs. Nested disjunctions are flattened,
// ⊥ operands are dropped, and any ⊤ operand collapses the result to ⊤.
// Or() is ⊥.
func Or(fs ...Formula) Formula { return nary(KindOr, fs) }

func nary(k Kind, fs []Formula) Formula {
	unit, zero := True, False
	if k == KindOr {
		unit, zero = False, True
	}
	args := make([]Formula, 0, len(fs))
	for _, f := range fs {
		switch {
		case f.kind == unit.kind:
			// drop identity element
		case f.kind == zero.kind:
			return zero
		case f.kind == k:
			args = append(args, f.args...)
		default:
			args = append(args, f)
		}
	}
	switch len(args) {
	case 0:
		return unit
	case 1:
		return args[0]
	}
	return Formula{kind: k, args: args}
}

// Implies returns a → b, i.e. ¬a ∨ b.
func Implies(a, b Formula) Formula { return Or(Not(a), b) }

// Iff returns a ↔ b, i.e. (a → b) ∧ (b → a).
func Iff(a, b Formula) Formula { return And(Implies(a, b), Implies(b, a)) }

// Eval evaluates f under the given assignment. Variables absent from the
// map are treated as false.
func (f Formula) Eval(assign map[Var]bool) bool {
	switch f.kind {
	case KindTrue:
		return true
	case KindFalse:
		return false
	case KindVar:
		return assign[f.v]
	case KindNot:
		return !f.args[0].Eval(assign)
	case KindAnd:
		for _, a := range f.args {
			if !a.Eval(assign) {
				return false
			}
		}
		return true
	case KindOr:
		for _, a := range f.args {
			if a.Eval(assign) {
				return true
			}
		}
		return false
	}
	panic("logic: invalid formula kind " + f.kind.String())
}

// String renders the formula using a vocabulary-free notation (variables
// print as x<N>). Use Vocabulary.Render for named output.
func (f Formula) String() string {
	var b strings.Builder
	f.write(&b, nil)
	return b.String()
}

func (f Formula) write(b *strings.Builder, names func(Var) string) {
	switch f.kind {
	case KindTrue:
		b.WriteString("true")
	case KindFalse:
		b.WriteString("false")
	case KindVar:
		if names != nil {
			if s := names(f.v); s != "" {
				b.WriteString(s)
				return
			}
		}
		var buf [11]byte
		b.WriteByte('x')
		b.Write(strconv.AppendUint(buf[:0], uint64(f.v), 10))
	case KindNot:
		b.WriteString("!")
		arg := f.args[0]
		if arg.kind == KindAnd || arg.kind == KindOr {
			b.WriteString("(")
			arg.write(b, names)
			b.WriteString(")")
		} else {
			arg.write(b, names)
		}
	case KindAnd, KindOr:
		op := " & "
		if f.kind == KindOr {
			op = " | "
		}
		for i, a := range f.args {
			if i > 0 {
				b.WriteString(op)
			}
			if a.kind == KindAnd || a.kind == KindOr {
				b.WriteString("(")
				a.write(b, names)
				b.WriteString(")")
			} else {
				a.write(b, names)
			}
		}
	}
}

// Vocabulary allocates variables and remembers their names. It is the
// bridge between symbolic knowledge-base atoms and solver variables.
// The zero value is ready to use. Vocabulary is not safe for concurrent use.
type Vocabulary struct {
	names  []string       // names[i] is the name of Var(i+1)
	byName map[string]Var // reverse index
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{byName: make(map[string]Var)}
}

// NewVocabularySize returns an empty vocabulary with room for n
// variables, so allocating the first n does not copy the names.
func NewVocabularySize(n int) *Vocabulary {
	return &Vocabulary{names: make([]string, 0, n), byName: make(map[string]Var)}
}

// Fresh allocates a new variable with the given name (which may be empty
// for anonymous variables). Names need not be unique, but Lookup returns
// the first variable registered under a name.
func (vo *Vocabulary) Fresh(name string) Var {
	vo.names = append(vo.names, name)
	v := Var(len(vo.names))
	if name != "" {
		if vo.byName == nil {
			vo.byName = make(map[string]Var)
		}
		if _, dup := vo.byName[name]; !dup {
			vo.byName[name] = v
		}
	}
	return v
}

// FreshUnindexed allocates a new variable with the given name but
// leaves the name out of the index, so Get and Lookup never return it;
// Name still does. It suits a caller that resolves the name itself, or
// never by name, and so keeps the index small.
func (vo *Vocabulary) FreshUnindexed(name string) Var {
	vo.names = append(vo.names, name)
	return Var(len(vo.names))
}

// FreshAnonymous allocates n anonymous variables and fits the name
// storage to the new count, so a vocabulary that allocates no more
// variables keeps no spare room.
func (vo *Vocabulary) FreshAnonymous(n int) {
	names := make([]string, len(vo.names)+n)
	copy(names, vo.names)
	vo.names = names
}

// Get returns the variable registered under name, allocating it if needed.
func (vo *Vocabulary) Get(name string) Var {
	if v, ok := vo.byName[name]; ok {
		return v
	}
	return vo.Fresh(name)
}

// Lookup returns the variable registered under name, or 0 if absent.
func (vo *Vocabulary) Lookup(name string) Var {
	return vo.byName[name]
}

// Name returns the name of v, or "" if v is anonymous or out of range.
func (vo *Vocabulary) Name(v Var) string {
	if v == 0 || int(v) > len(vo.names) {
		return ""
	}
	return vo.names[v-1]
}

// Len returns the number of variables allocated so far.
func (vo *Vocabulary) Len() int { return len(vo.names) }

// Render renders f with variable names from the vocabulary.
func (vo *Vocabulary) Render(f Formula) string {
	var b strings.Builder
	f.write(&b, vo.Name)
	return b.String()
}
