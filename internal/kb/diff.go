package kb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"
)

// DiffEntry is one difference between two knowledge bases.
type DiffEntry struct {
	// Section is "system", "hardware", "workload", "rule" or "order".
	Section string
	// Name identifies the entry within the section.
	Name string
	// Change is "added", "removed" or "changed".
	Change string
}

// String renders the entry.
func (d DiffEntry) String() string {
	return fmt.Sprintf("%s %s %q", d.Change, d.Section, d.Name)
}

// Diff compares two knowledge bases entry by entry — the review step of
// the crowd-sourcing workflow (§3.3): a maintainer diffing a contributed
// compendium against the current one sees exactly which encodings were
// added, removed, or modified. Two entries differ exactly when their JSON
// encodings (json.Marshal) would, so field order, map iteration order and
// a nil versus an empty omitempty field don't produce phantom changes.
// The comparison walks the entries' fields directly instead of encoding
// them, and each section's entries are looked up by name through an
// index built once; a repeated name compares its first occurrences.
func Diff(old, new *KB) []DiffEntry {
	var out []DiffEntry
	out = diffSection(out, "system", old.Systems, new.Systems, func(s *System) string { return s.Name }, systemEqual)
	out = diffSection(out, "hardware", old.Hardware, new.Hardware, func(h *Hardware) string { return h.Name }, hardwareEqual)
	out = diffSection(out, "workload", old.Workloads, new.Workloads, func(w *Workload) string { return w.Name }, workloadEqual)
	out = diffSection(out, "rule", old.Rules, new.Rules, func(r *Rule) string { return r.Name }, ruleEqual)
	out = diffSection(out, "order", old.Orders, new.Orders, func(o *OrderSpec) string { return o.Dimension }, orderEqual)

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Section != b.Section {
			return a.Section < b.Section
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Change < b.Change
	})
	return out
}

// diffSection appends one section's differences: a name only in old is
// removed, a name only in new is added, and a name in both is changed
// when its first entries differ.
func diffSection[T any](out []DiffEntry, section string, old, new []T,
	name func(*T) string, equal func(a, b *T) bool) []DiffEntry {
	oldIdx, newIdx := nameIndex(old, name), nameIndex(new, name)
	for i := range old {
		if n := name(&old[i]); !has(newIdx, n) {
			out = append(out, DiffEntry{section, n, "removed"})
		}
	}
	for i := range new {
		n := name(&new[i])
		j, ok := oldIdx[n]
		if !ok {
			out = append(out, DiffEntry{section, n, "added"})
		} else if !equal(&old[j], &new[newIdx[n]]) {
			out = append(out, DiffEntry{section, n, "changed"})
		}
	}
	return out
}

// nameIndex maps each name to the index of its first entry.
func nameIndex[T any](entries []T, name func(*T) string) map[string]int {
	idx := make(map[string]int, len(entries))
	for i := range entries {
		n := name(&entries[i])
		if !has(idx, n) {
			idx[n] = i
		}
	}
	return idx
}

func has(idx map[string]int, name string) bool {
	_, ok := idx[name]
	return ok
}

// The equality functions below follow encoding/json field by field: an
// omitempty slice or map that is empty is omitted whether nil or not,
// while a slice that is not omitempty encodes nil as null and empty as
// [], so there nil-ness counts.

func systemEqual(a, b *System) bool {
	return strEq(a.Name, b.Name) && strEq(a.Role, b.Role) &&
		strsEq(a.Solves, b.Solves) &&
		mapEq(a.RequiresCaps, b.RequiresCaps, nullableStrsEq[Capability]) &&
		strsEq(a.RequiresSystems, b.RequiresSystems) &&
		slicesEq(a.RequiresAnyOf, b.RequiresAnyOf, nullableStrsEq[string]) &&
		strsEq(a.ConflictsWith, b.ConflictsWith) &&
		slicesEq(a.RequiresContext, b.RequiresContext, conditionEqual) &&
		slicesEq(a.UsefulOnlyWhen, b.UsefulOnlyWhen, conditionEqual) &&
		mapEq(a.Resources, b.Resources, eq[int64]) &&
		a.CoresPerKFlows == b.CoresPerKFlows &&
		a.AppModification == b.AppModification &&
		strEq(a.Maturity, b.Maturity) &&
		mapEq(a.Notes, b.Notes, strEq[string])
}

func conditionEqual(a, b Condition) bool { return strEq(a.Atom, b.Atom) && a.Value == b.Value }

func hardwareEqual(a, b *Hardware) bool {
	return strEq(a.Name, b.Name) && strEq(a.Kind, b.Kind) && strEq(a.Vendor, b.Vendor) &&
		strsEq(a.Caps, b.Caps) &&
		mapEq(a.Quant, b.Quant, eq[int64]) &&
		a.CostUSD == b.CostUSD &&
		mapEq(a.Attrs, b.Attrs, strEq[string])
}

func workloadEqual(a, b *Workload) bool {
	return strEq(a.Name, b.Name) &&
		strsEq(a.Properties, b.Properties) && strsEq(a.DeployedAt, b.DeployedAt) &&
		a.PeakCores == b.PeakCores && a.PeakMemoryGB == b.PeakMemoryGB &&
		a.PeakBandwidthGbps == b.PeakBandwidthGbps && a.KFlows == b.KFlows &&
		strsEq(a.Needs, b.Needs)
}

func ruleEqual(a, b *Rule) bool {
	return strEq(a.Name, b.Name) && exprEqual(a.Expr, b.Expr) && strEq(a.Note, b.Note)
}

func exprEqual(a, b Expr) bool {
	return strEq(a.Op, b.Op) && strEq(a.Atom, b.Atom) && slicesEq(a.Args, b.Args, exprEqual)
}

// guardEqual compares omitempty *Expr fields: nil is omitted, anything
// else is encoded.
func guardEqual(a, b *Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return exprEqual(*a, *b)
}

func orderEqual(a, b *OrderSpec) bool {
	return strEq(a.Dimension, b.Dimension) &&
		slicesEq(a.Edges, b.Edges, func(x, y OrderEdge) bool {
			return strEq(x.Better, y.Better) && strEq(x.Worse, y.Worse) &&
				guardEqual(x.Guard, y.Guard) && strEq(x.Note, y.Note)
		}) &&
		slicesEq(a.Equals, b.Equals, func(x, y OrderEq) bool {
			return strEq(x.A, y.A) && strEq(x.B, y.B) &&
				guardEqual(x.Guard, y.Guard) && strEq(x.Note, y.Note)
		})
}

func eq[T comparable](a, b T) bool { return a == b }

// slicesEq compares two slices element by element; nil and empty are
// equal, as for an omitempty field.
func slicesEq[T any](a, b []T, eq func(x, y T) bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eq(a[i], b[i]) {
			return false
		}
	}
	return true
}

func strsEq[S ~string](a, b []S) bool { return slicesEq(a, b, strEq[S]) }

// nullableStrsEq compares string slices that are not omitempty, where
// JSON tells nil (null) from empty ([]).
func nullableStrsEq[S ~string](a, b []S) bool {
	return (a == nil) == (b == nil) && strsEq(a, b)
}

// strEq reports whether two strings encode alike: encoding/json writes
// every byte that is not valid UTF-8 as \ufffd, so strings that differ
// only in such bytes do.
func strEq[S ~string](a, b S) bool {
	if a == b {
		return true
	}
	x, y := string(a), string(b)
	if utf8.ValidString(x) && utf8.ValidString(y) {
		return false
	}
	for x != "" && y != "" {
		rx, nx := utf8.DecodeRuneInString(x)
		ry, ny := utf8.DecodeRuneInString(y)
		badX, badY := rx == utf8.RuneError && nx == 1, ry == utf8.RuneError && ny == 1
		if badX != badY || rx != ry {
			return false
		}
		x, y = x[nx:], y[ny:]
	}
	return x == y
}

// mapEq compares two maps as encoding/json writes them: keys sorted by
// their bytes, each with its value. Keys match by identity unless one
// holds invalid UTF-8, which only the sorted comparison can pair up.
func mapEq[K ~string, V any](a, b map[K]V, eq func(x, y V) bool) bool {
	if len(a) != len(b) {
		return false
	}
	exact := true
	for k, va := range a {
		if vb, ok := b[k]; !ok || !eq(va, vb) {
			exact = false
			break
		}
	}
	if exact {
		return true
	}
	if validKeys(a) && validKeys(b) {
		return false
	}
	ka, kb := sortedKeys(a), sortedKeys(b)
	for i := range ka {
		if !strEq(ka[i], kb[i]) || !eq(a[ka[i]], b[kb[i]]) {
			return false
		}
	}
	return true
}

func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func validKeys[K ~string, V any](m map[K]V) bool {
	for k := range m {
		if !utf8.ValidString(string(k)) {
			return false
		}
	}
	return true
}

// FormatDiff renders a diff as a human-readable summary.
func FormatDiff(entries []DiffEntry) string {
	if len(entries) == 0 {
		return "no differences\n"
	}
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%s\n", e)
	}
	fmt.Fprintf(&b, "%d difference(s)\n", len(entries))
	return b.String()
}
