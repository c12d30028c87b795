package logic

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
