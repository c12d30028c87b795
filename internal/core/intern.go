package core

import "sync"

// Tiered atom-name interning. Every compile builds namespaced vocabulary
// names by concatenation — "system:"+name, "hw:"+name, … — one fresh
// string per atom per compile. A seed-scale compile barely notices, but
// the relevance slicer turns one large catalog into many small compiles
// (one per scenario shape, re-run on every UpdateKB), and the same few
// hundred atom names are then re-concatenated for each of them. The
// engine therefore owns one interner with a tier per namespace; the
// first compile to mention an atom pays the concatenation, every later
// compile (any goroutine, any slice) reuses the canonical string. The
// vocabulary itself stays per-compile — interning shares the name
// strings, never the variable numbering, so a sliced base's var space
// is exactly as dense as its sub-KB.
//
// Tiers are keyed by the undecorated name (the capability tier by the
// precomposed "kind:cap" pair), so lookups on the hit path cost one
// lock-free sync.Map read and zero allocations.

const (
	tierSystem = iota
	tierHw
	tierCtx
	tierProp
	tierCap
	tierSel
	nTiers
)

var tierPrefix = [nTiers]string{"system:", "hw:", "ctx:", "prop:", "cap:", "sel:"}

// atomInterner canonicalizes namespaced atom names. The zero value is
// ready to use.
type atomInterner struct {
	tiers [nTiers]sync.Map // undecorated name -> canonical "prefix:name"
}

// full returns the canonical "prefix+name" string for a tier.
func (in *atomInterner) full(tier int, name string) string {
	if s, ok := in.tiers[tier].Load(name); ok {
		return s.(string)
	}
	actual, _ := in.tiers[tier].LoadOrStore(name, tierPrefix[tier]+name)
	return actual.(string)
}
