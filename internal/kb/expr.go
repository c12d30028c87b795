package kb

import (
	"fmt"
	"strings"

	"netarch/internal/logic"
)

// Expr is a serializable predicate-logic expression over the knowledge
// base's shared atom namespace. Atoms are namespaced strings:
//
//	system:<name>        — system <name> is deployed
//	ctx:<name>           — environment/context flag
//	prop:<property>      — objective <property> is achieved
//	hw:<name>            — hardware model <name> is selected
//	cap:<kind>:<cap>     — selected <kind> hardware has capability <cap>
//
// Expr is a tagged tree: Op is one of "atom", "not", "and", "or",
// "implies", "iff", "true", "false". Atom is set only for Op == "atom".
type Expr struct {
	Op   string `json:"op"`
	Atom string `json:"atom,omitempty"`
	Args []Expr `json:"args,omitempty"`
}

// Expression constructors.

// Atom returns the atom expression for a namespaced name.
func Atom(name string) Expr { return Expr{Op: "atom", Atom: name} }

// SystemAtom returns the atom "system:<name>".
func SystemAtom(name string) Expr { return Atom("system:" + name) }

// CtxAtom returns the atom "ctx:<name>".
func CtxAtom(name string) Expr { return Atom("ctx:" + name) }

// CapAtom returns the atom "cap:<kind>:<cap>".
func CapAtom(kind HardwareKind, c Capability) Expr {
	return Atom("cap:" + string(kind) + ":" + string(c))
}

// Not returns the negation of e.
func Not(e Expr) Expr { return Expr{Op: "not", Args: []Expr{e}} }

// And returns the conjunction of es.
func And(es ...Expr) Expr { return Expr{Op: "and", Args: es} }

// Or returns the disjunction of es.
func Or(es ...Expr) Expr { return Expr{Op: "or", Args: es} }

// Implies returns a → b.
func Implies(a, b Expr) Expr { return Expr{Op: "implies", Args: []Expr{a, b}} }

// Iff returns a ↔ b.
func Iff(a, b Expr) Expr { return Expr{Op: "iff", Args: []Expr{a, b}} }

// TrueExpr is the constant true expression.
func TrueExpr() Expr { return Expr{Op: "true"} }

// FalseExpr is the constant false expression.
func FalseExpr() Expr { return Expr{Op: "false"} }

// Validate checks structural well-formedness.
func (e Expr) Validate() error {
	switch e.Op {
	case "atom":
		if e.Atom == "" {
			return fmt.Errorf("kb: atom expression with empty atom")
		}
		if len(e.Args) != 0 {
			return fmt.Errorf("kb: atom %q must have no args", e.Atom)
		}
	case "true", "false":
		if len(e.Args) != 0 || e.Atom != "" {
			return fmt.Errorf("kb: constant expression must be bare")
		}
	case "not":
		if len(e.Args) != 1 {
			return fmt.Errorf("kb: not requires exactly 1 arg, got %d", len(e.Args))
		}
	case "and", "or":
		// zero args allowed (identity elements)
	case "implies", "iff":
		if len(e.Args) != 2 {
			return fmt.Errorf("kb: %s requires exactly 2 args, got %d", e.Op, len(e.Args))
		}
	default:
		return fmt.Errorf("kb: unknown expression op %q", e.Op)
	}
	for _, a := range e.Args {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// size counts nodes; used by the §3.1 spec-size metric.
func (e Expr) size() int {
	n := 1
	for _, a := range e.Args {
		n += a.size()
	}
	return n
}

// Atoms appends every atom name in e to dst and returns it.
func (e Expr) Atoms(dst []string) []string {
	if e.Op == "atom" {
		return append(dst, e.Atom)
	}
	for _, a := range e.Args {
		dst = a.Atoms(dst)
	}
	return dst
}

// Compile lowers the expression to a logic formula, resolving atom names
// to variables via resolve (typically Vocabulary.Get with a prefix).
func (e Expr) Compile(resolve func(atom string) logic.Var) (logic.Formula, error) {
	if err := e.Validate(); err != nil {
		return logic.False, err
	}
	return e.compile(resolve), nil
}

func (e Expr) compile(resolve func(atom string) logic.Var) logic.Formula {
	switch e.Op {
	case "atom":
		return logic.V(resolve(e.Atom))
	case "true":
		return logic.True
	case "false":
		return logic.False
	case "not":
		return logic.Not(e.Args[0].compile(resolve))
	case "and":
		args := make([]logic.Formula, len(e.Args))
		for i, a := range e.Args {
			args[i] = a.compile(resolve)
		}
		return logic.And(args...)
	case "or":
		args := make([]logic.Formula, len(e.Args))
		for i, a := range e.Args {
			args[i] = a.compile(resolve)
		}
		return logic.Or(args...)
	case "implies":
		return logic.Implies(e.Args[0].compile(resolve), e.Args[1].compile(resolve))
	case "iff":
		return logic.Iff(e.Args[0].compile(resolve), e.Args[1].compile(resolve))
	}
	panic("kb: unreachable after Validate")
}

// String renders the expression in a compact infix form for diagnostics.
func (e Expr) String() string {
	var b strings.Builder
	e.write(&b)
	return b.String()
}

func (e Expr) write(b *strings.Builder) {
	switch e.Op {
	case "atom":
		b.WriteString(e.Atom)
	case "true":
		b.WriteString("true")
	case "false":
		b.WriteString("false")
	case "not":
		b.WriteString("!")
		b.WriteString("(")
		e.Args[0].write(b)
		b.WriteString(")")
	case "and", "or", "implies", "iff":
		op := map[string]string{"and": " & ", "or": " | ", "implies": " -> ", "iff": " <-> "}[e.Op]
		b.WriteString("(")
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(op)
			}
			a.write(b)
		}
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "<bad:%s>", e.Op)
	}
}

// ConditionExpr converts a Condition to the equivalent context-atom
// expression.
func ConditionExpr(c Condition) Expr {
	e := CtxAtom(c.Atom)
	if !c.Value {
		return Not(e)
	}
	return e
}
