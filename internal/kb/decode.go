package kb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth caps the nesting of JSON objects and arrays, as encoding/json
// does, so an adversarial document cannot exhaust the stack.
const maxDepth = 10000

// DecodeRule names the rule of the KB JSON format a document broke.
type DecodeRule int

// The rules Decode enforces. The first five are encoding/json's with
// DisallowUnknownFields; the last three are stricter than it.
const (
	// DecodeSyntax: the bytes are not JSON.
	DecodeSyntax DecodeRule = iota + 1
	// DecodeType: a value has the wrong JSON type for its field.
	DecodeType
	// DecodeInt: an integer field holds a number that is not an integer
	// in int64 range (1.0, 1e3 and 1e30 are all refused).
	DecodeInt
	// DecodeUnknownField: a key names no field of its object.
	DecodeUnknownField
	// DecodeDepth: objects and arrays nest more than 10,000 deep.
	DecodeDepth
	// DecodeOneObject: the document is not exactly one JSON object with
	// only whitespace after it (top-level null and trailing data).
	DecodeOneObject
	// DecodeKeyCase: a key equals a field's name only case-insensitively.
	DecodeKeyCase
	// DecodeDuplicateKey: a key repeats within one object or map.
	DecodeDuplicateKey
)

var ruleNames = [...]string{
	DecodeSyntax:       "syntax",
	DecodeType:         "type",
	DecodeInt:          "integer",
	DecodeUnknownField: "unknown field",
	DecodeDepth:        "depth",
	DecodeOneObject:    "one object",
	DecodeKeyCase:      "key case",
	DecodeDuplicateKey: "duplicate key",
}

func (r DecodeRule) String() string {
	if r > 0 && int(r) < len(ruleNames) {
		return ruleNames[r]
	}
	return "DecodeRule(" + strconv.Itoa(int(r)) + ")"
}

// DecodeError is the error Decode returns: where the document broke which
// rule.
type DecodeError struct {
	// Offset is the byte offset of the offending token in the input.
	Offset int
	// Path locates the offending value, e.g. hardware[3].quant.ports; it
	// is empty at the top level.
	Path string
	Rule DecodeRule
	// Detail says what was found.
	Detail string
}

func (e *DecodeError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("kb: decoding: byte %d: %s", e.Offset, e.Detail)
	}
	return fmt.Sprintf("kb: decoding: byte %d (%s): %s", e.Offset, e.Path, e.Detail)
}

// Decode parses a knowledge base from its JSON encoding (as Save writes
// it) in one pass over data, without validating it. It accepts what
// encoding/json with DisallowUnknownFields accepts and decodes it to the
// same KB, except that the document must be exactly one JSON object, keys
// must equal field names exactly, and no key may repeat within an object.
// Every error is a *DecodeError. Equal strings share one allocation, and
// no string aliases data.
func Decode(data []byte) (*KB, error) {
	d := decoder{data: data, strs: make(map[string]string, len(data)/256)}
	k := new(KB)
	d.ws()
	switch {
	case d.pos == len(data):
		d.syntax()
	case data[d.pos] != '{':
		d.fail(DecodeOneObject, d.pos, "the document must be a JSON object")
	default:
		d.kb(k)
	}
	if d.err == nil {
		if d.ws(); d.pos < len(data) {
			d.fail(DecodeOneObject, d.pos, "data after the top-level object")
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return k, nil
}

// decoder is the state of one Decode. Its methods do nothing once err is
// set, so a caller can finish its loop and return.
type decoder struct {
	data []byte
	pos  int
	err  *DecodeError
	// path holds one entry per open object or array: the offset of the
	// current key's opening quote, or the current element's index.
	path []pathElem
	key  []byte // the current key, unescaped
	buf  []byte // scratch for unescaping
	strs map[string]string

	// Scratch stacks: list decodes an array's elements here, then copies
	// them into a slice of exactly their count.
	texts  []string
	props  []Property
	caps   []Capability
	groups [][]string
	conds  []Condition
	edges  []OrderEdge
	equals []OrderEq
	exprs  []Expr
}

type pathElem struct {
	array bool
	at    int // index for an array; key offset for an object, -1 before the first
}

func (d *decoder) fail(rule DecodeRule, off int, format string, args ...any) {
	if d.err == nil {
		d.err = &DecodeError{Offset: off, Path: d.renderPath(), Rule: rule, Detail: fmt.Sprintf(format, args...)}
	}
}

// syntax reports the byte at pos (or the end of input) as unexpected.
func (d *decoder) syntax() {
	if d.pos >= len(d.data) {
		d.fail(DecodeSyntax, d.pos, "unexpected end of input")
		return
	}
	d.fail(DecodeSyntax, d.pos, "invalid character %q", d.data[d.pos])
}

// mismatch reports the value at pos as having the wrong type for a field
// that wants one of kind want, or as a syntax error when no JSON value
// starts there.
func (d *decoder) mismatch(want string) {
	var got string
	if d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '{':
			got = "an object"
		case c == '[':
			got = "an array"
		case c == '"':
			got = "a string"
		case c == 't' || c == 'f':
			got = "a boolean"
		case c == '-' || '0' <= c && c <= '9':
			got = "a number"
		}
	}
	if got == "" {
		d.syntax()
		return
	}
	d.fail(DecodeType, d.pos, "want %s, got %s", want, got)
}

// renderPath renders the current key or index of every open container.
// A long path keeps only its two ends.
func (d *decoder) renderPath() string {
	var b strings.Builder
	for _, p := range d.path {
		switch {
		case p.array:
			fmt.Fprintf(&b, "[%d]", p.at)
		case p.at >= 0:
			key := string((&decoder{data: d.data, pos: p.at}).rawString())
			if isIdent(key) {
				if b.Len() > 0 {
					b.WriteByte('.')
				}
				b.WriteString(key)
			} else {
				fmt.Fprintf(&b, "[%q]", key)
			}
		}
	}
	const end = 64
	s := b.String()
	if len(s) <= 3*end {
		return s
	}
	head, tail := s[:end], s[len(s)-end:]
	if i := strings.LastIndexByte(head, '.'); i > 0 {
		head = head[:i]
	}
	if j := strings.IndexByte(tail, '.'); j >= 0 {
		tail = tail[j:]
	}
	return strings.ToValidUTF8(head+"…"+tail, "")
}

func isIdent(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_') {
			return false
		}
	}
	return s != ""
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	i, data := d.pos, d.data
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	d.pos = i
}

// null consumes a null literal at pos, if there is one.
func (d *decoder) null() bool {
	if d.pos < len(d.data) && d.data[d.pos] == 'n' {
		d.literal("null")
		return true
	}
	return false
}

// literal consumes lit, which the byte at pos starts.
func (d *decoder) literal(lit string) {
	for i := 0; i < len(lit); i++ {
		if d.pos == len(d.data) || d.data[d.pos] != lit[i] {
			d.syntax()
			return
		}
		d.pos++
	}
}

// begin starts a value that must be an object or an array, as open
// ('{' or '[') says: it enters the container and returns true, or
// consumes null and returns false, or reports a mismatch.
func (d *decoder) begin(open byte) bool {
	if d.err != nil {
		return false
	}
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == open {
		if len(d.path) == maxDepth {
			d.fail(DecodeDepth, d.pos, "nesting deeper than %d", maxDepth)
			return false
		}
		d.path = append(d.path, pathElem{array: open == '[', at: -1})
		d.pos++
		return true
	}
	if !d.null() {
		if open == '{' {
			d.mismatch("an object")
		} else {
			d.mismatch("an array")
		}
	}
	return false
}

// next moves to element i of the open container, consuming the comma
// before every element but the first. At the closing bracket it leaves
// the container and returns false.
func (d *decoder) next(i int) bool {
	if d.err != nil {
		return false
	}
	top := &d.path[len(d.path)-1]
	closer := byte('}')
	if top.array {
		closer = ']'
	}
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == closer {
		d.pos++
		d.path = d.path[:len(d.path)-1]
		return false
	}
	if i > 0 {
		if d.pos == len(d.data) || d.data[d.pos] != ',' {
			d.syntax()
			return false
		}
		d.pos++
		d.ws()
	}
	if top.array {
		top.at = i
	}
	return true
}

// nextKey moves to key i of the open object and reads it, with its colon,
// into d.key.
func (d *decoder) nextKey(i int) bool {
	if !d.next(i) {
		return false
	}
	if d.pos == len(d.data) || d.data[d.pos] != '"' {
		d.syntax()
		return false
	}
	off := d.pos
	d.key = d.rawString()
	if d.err != nil {
		return false
	}
	d.path[len(d.path)-1].at = off
	d.ws()
	if d.pos == len(d.data) || d.data[d.pos] != ':' {
		d.syntax()
		return false
	}
	d.pos++
	return true
}

// field matches d.key against names, the field names of the open object,
// and returns the matching name, or "" after reporting an unknown,
// case-folded or repeated key. seen records the fields already decoded.
func (d *decoder) field(seen *uint32, names []string) string {
	off := d.path[len(d.path)-1].at
	for i, n := range names {
		if string(d.key) == n {
			if *seen&(1<<i) != 0 {
				d.fail(DecodeDuplicateKey, off, "duplicate key %q", n)
				return ""
			}
			*seen |= 1 << i
			return n
		}
	}
	key := string(d.key)
	for _, n := range names {
		if strings.EqualFold(key, n) {
			d.fail(DecodeKeyCase, off, "key %q must be spelled %q", key, n)
			return ""
		}
	}
	d.fail(DecodeUnknownField, off, "unknown field %q", key)
	return ""
}

// rawString reads the string at pos and returns its unescaped bytes,
// which alias data or d.buf until the next call. Bytes that are not
// UTF-8, and unpaired surrogate escapes, become U+FFFD.
func (d *decoder) rawString() []byte {
	start := d.pos + 1
	i := start
	for ; i < len(d.data); i++ {
		c := d.data[i]
		if c == '"' {
			d.pos = i + 1
			return d.data[start:i]
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
	}
	b := append(d.buf[:0], d.data[start:i]...)
	for {
		if i >= len(d.data) {
			d.pos = i
			d.syntax()
			return nil
		}
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			d.buf = b
			return b
		case c < 0x20:
			d.pos = i
			d.fail(DecodeSyntax, i, "control character %q in string", c)
			return nil
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && n == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, d.data[i:i+n]...)
			}
			i += n
		case c != '\\':
			b = append(b, c)
			i++
		default:
			if i+1 == len(d.data) {
				d.pos = i + 1
				d.syntax()
				return nil
			}
			i += 2
			switch e := d.data[i-1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[i:])
				if r < 0 {
					d.pos = i - 2
					d.fail(DecodeSyntax, i-2, "invalid \\u escape")
					return nil
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A pair is consumed whole; anything else leaves
					// U+FFFD and the next escape as it is.
					var r2 rune = -1
					if i+1 < len(d.data) && d.data[i] == '\\' && d.data[i+1] == 'u' {
						r2 = hex4(d.data[i+2:])
					}
					if p := utf16.DecodeRune(r, r2); p != utf8.RuneError {
						r = p
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				d.pos = i - 2
				d.fail(DecodeSyntax, i-2, "invalid escape %q", "\\"+string(e))
				return nil
			}
		}
	}
}

// hex4 decodes four hex digits, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// intern returns b as a string, one allocation per distinct value.
func (d *decoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// str decodes a string value; null is "".
func (d *decoder) str() string {
	if d.err != nil {
		return ""
	}
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == '"' {
		b := d.rawString()
		if d.err != nil {
			return ""
		}
		return d.intern(b)
	}
	if !d.null() {
		d.mismatch("a string")
	}
	return ""
}

// boolean decodes a boolean value; null is false.
func (d *decoder) boolean() bool {
	if d.err != nil {
		return false
	}
	d.ws()
	if d.pos < len(d.data) {
		switch d.data[d.pos] {
		case 't':
			d.literal("true")
			return d.err == nil
		case 'f':
			d.literal("false")
			return false
		}
	}
	if !d.null() {
		d.mismatch("a boolean")
	}
	return false
}

// integer decodes an integer value in int64 range; null is 0.
func (d *decoder) integer() int64 {
	if d.err != nil {
		return 0
	}
	d.ws()
	start := d.pos
	if d.null() {
		return 0
	}
	neg := d.pos < len(d.data) && d.data[d.pos] == '-'
	if neg {
		d.pos++
	}
	if d.pos == len(d.data) || d.data[d.pos] < '0' || d.data[d.pos] > '9' {
		if neg {
			d.syntax()
		} else {
			d.mismatch("an integer")
		}
		return 0
	}
	const limit = 1 << 63
	var mag uint64
	overflow := false
	if d.data[d.pos] == '0' {
		d.pos++
	} else {
		for ; d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9'; d.pos++ {
			digit := uint64(d.data[d.pos] - '0')
			if mag > (limit-digit)/10 {
				overflow = true
			}
			mag = mag*10 + digit
		}
	}
	if d.fraction() {
		d.fail(DecodeInt, start, "%s is not an integer", d.data[start:d.pos])
		return 0
	}
	if d.err != nil {
		return 0
	}
	if overflow || mag > limit || mag == limit && !neg {
		d.fail(DecodeInt, start, "%s is out of int64 range", d.data[start:d.pos])
		return 0
	}
	if neg {
		return -int64(mag)
	}
	return int64(mag)
}

// fraction consumes a number's fraction and exponent, reporting whether
// there were any.
func (d *decoder) fraction() bool {
	digits := func() {
		if d.pos == len(d.data) || d.data[d.pos] < '0' || d.data[d.pos] > '9' {
			d.syntax()
			return
		}
		for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
			d.pos++
		}
	}
	found := false
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		found = true
		d.pos++
		digits()
	}
	if d.err == nil && d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		found = true
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		digits()
	}
	return found && d.err == nil
}

// list decodes an array with elem, collecting the elements on stack and
// returning them in a slice of exactly their count; null is nil and []
// an empty slice.
func list[T any](d *decoder, stack *[]T, elem func(*decoder) T) []T {
	if !d.begin('[') {
		return nil
	}
	base := len(*stack)
	for i := 0; d.next(i); i++ {
		*stack = append(*stack, elem(d))
	}
	out := make([]T, len(*stack)-base)
	copy(out, (*stack)[base:])
	*stack = (*stack)[:base]
	return out
}

// dict decodes an object into a map with elem decoding each value; null
// is nil and {} an empty map.
func dict[K ~string, V any](d *decoder, elem func(*decoder) V) map[K]V {
	if !d.begin('{') {
		return nil
	}
	m := map[K]V{}
	for i := 0; d.nextKey(i); i++ {
		k := K(d.intern(d.key))
		if _, dup := m[k]; dup {
			d.fail(DecodeDuplicateKey, d.path[len(d.path)-1].at, "duplicate key %q", k)
			return nil
		}
		m[k] = elem(d)
	}
	return m
}

// text decodes a string element; null is "".
func text[S ~string](d *decoder) S { return S(d.str()) }

func (d *decoder) strList() []string { return list(d, &d.texts, text[string]) }

func (d *decoder) capList() []Capability { return list(d, &d.caps, text[Capability]) }

var kbFields = []string{"systems", "hardware", "workloads", "rules", "orders"}

func (d *decoder) kb(k *KB) {
	if !d.begin('{') {
		return
	}
	var seen uint32
	for i := 0; d.nextKey(i); i++ {
		switch d.field(&seen, kbFields) {
		case "systems":
			k.Systems = list(d, new([]System), (*decoder).system)
		case "hardware":
			k.Hardware = list(d, new([]Hardware), (*decoder).hardware)
		case "workloads":
			k.Workloads = list(d, new([]Workload), (*decoder).workload)
		case "rules":
			k.Rules = list(d, new([]Rule), (*decoder).rule)
		case "orders":
			k.Orders = list(d, new([]OrderSpec), (*decoder).order)
		}
	}
}

var systemFields = []string{
	"name", "role", "solves", "requires_caps", "requires_systems", "requires_any_of",
	"conflicts_with", "requires_context", "useful_only_when", "resources",
	"cores_per_kflows", "app_modification", "maturity", "notes",
}

func (d *decoder) system() (s System) {
	if !d.begin('{') {
		return
	}
	var seen uint32
	for i := 0; d.nextKey(i); i++ {
		switch d.field(&seen, systemFields) {
		case "name":
			s.Name = d.str()
		case "role":
			s.Role = Role(d.str())
		case "solves":
			s.Solves = list(d, &d.props, text[Property])
		case "requires_caps":
			s.RequiresCaps = dict[HardwareKind](d, (*decoder).capList)
		case "requires_systems":
			s.RequiresSystems = d.strList()
		case "requires_any_of":
			s.RequiresAnyOf = list(d, &d.groups, (*decoder).strList)
		case "conflicts_with":
			s.ConflictsWith = d.strList()
		case "requires_context":
			s.RequiresContext = list(d, &d.conds, (*decoder).condition)
		case "useful_only_when":
			s.UsefulOnlyWhen = list(d, &d.conds, (*decoder).condition)
		case "resources":
			s.Resources = dict[Resource](d, (*decoder).integer)
		case "cores_per_kflows":
			s.CoresPerKFlows = d.integer()
		case "app_modification":
			s.AppModification = d.boolean()
		case "maturity":
			s.Maturity = d.str()
		case "notes":
			s.Notes = dict[string](d, (*decoder).str)
		}
	}
	return
}

var conditionFields = []string{"atom", "value"}

func (d *decoder) condition() (c Condition) {
	if !d.begin('{') {
		return
	}
	var seen uint32
	for i := 0; d.nextKey(i); i++ {
		switch d.field(&seen, conditionFields) {
		case "atom":
			c.Atom = d.str()
		case "value":
			c.Value = d.boolean()
		}
	}
	return
}

var hardwareFields = []string{"name", "kind", "vendor", "caps", "quant", "cost_usd", "attrs"}

func (d *decoder) hardware() (h Hardware) {
	if !d.begin('{') {
		return
	}
	var seen uint32
	for i := 0; d.nextKey(i); i++ {
		switch d.field(&seen, hardwareFields) {
		case "name":
			h.Name = d.str()
		case "kind":
			h.Kind = HardwareKind(d.str())
		case "vendor":
			h.Vendor = d.str()
		case "caps":
			h.Caps = d.capList()
		case "quant":
			h.Quant = dict[Resource](d, (*decoder).integer)
		case "cost_usd":
			h.CostUSD = d.integer()
		case "attrs":
			h.Attrs = dict[string](d, (*decoder).str)
		}
	}
	return
}

var workloadFields = []string{
	"name", "properties", "deployed_at", "peak_cores", "peak_memory_gb",
	"peak_bandwidth_gbps", "kflows", "needs",
}

func (d *decoder) workload() (w Workload) {
	if !d.begin('{') {
		return
	}
	var seen uint32
	for i := 0; d.nextKey(i); i++ {
		switch d.field(&seen, workloadFields) {
		case "name":
			w.Name = d.str()
		case "properties":
			w.Properties = d.strList()
		case "deployed_at":
			w.DeployedAt = d.strList()
		case "peak_cores":
			w.PeakCores = d.integer()
		case "peak_memory_gb":
			w.PeakMemoryGB = d.integer()
		case "peak_bandwidth_gbps":
			w.PeakBandwidthGbps = d.integer()
		case "kflows":
			w.KFlows = d.integer()
		case "needs":
			w.Needs = list(d, &d.props, text[Property])
		}
	}
	return
}

var ruleFields = []string{"name", "expr", "note"}

func (d *decoder) rule() (r Rule) {
	if !d.begin('{') {
		return
	}
	var seen uint32
	for i := 0; d.nextKey(i); i++ {
		switch d.field(&seen, ruleFields) {
		case "name":
			r.Name = d.str()
		case "expr":
			r.Expr = d.expr()
		case "note":
			r.Note = d.str()
		}
	}
	return
}

var exprFields = []string{"op", "atom", "args"}

func (d *decoder) expr() (e Expr) {
	if !d.begin('{') {
		return
	}
	var seen uint32
	for i := 0; d.nextKey(i); i++ {
		switch d.field(&seen, exprFields) {
		case "op":
			e.Op = d.str()
		case "atom":
			e.Atom = d.str()
		case "args":
			e.Args = list(d, &d.exprs, (*decoder).expr)
		}
	}
	return
}

// guard decodes an optional expression; null is nil.
func (d *decoder) guard() *Expr {
	if d.err != nil {
		return nil
	}
	d.ws()
	if d.null() {
		return nil
	}
	g := d.expr()
	return &g
}

var orderFields = []string{"dimension", "edges", "equals"}

func (d *decoder) order() (o OrderSpec) {
	if !d.begin('{') {
		return
	}
	var seen uint32
	for i := 0; d.nextKey(i); i++ {
		switch d.field(&seen, orderFields) {
		case "dimension":
			o.Dimension = d.str()
		case "edges":
			o.Edges = list(d, &d.edges, (*decoder).edge)
		case "equals":
			o.Equals = list(d, &d.equals, (*decoder).equal)
		}
	}
	return
}

var edgeFields = []string{"better", "worse", "guard", "note"}

func (d *decoder) edge() (e OrderEdge) {
	if !d.begin('{') {
		return
	}
	var seen uint32
	for i := 0; d.nextKey(i); i++ {
		switch d.field(&seen, edgeFields) {
		case "better":
			e.Better = d.str()
		case "worse":
			e.Worse = d.str()
		case "guard":
			e.Guard = d.guard()
		case "note":
			e.Note = d.str()
		}
	}
	return
}

var equalFields = []string{"a", "b", "guard", "note"}

func (d *decoder) equal() (e OrderEq) {
	if !d.begin('{') {
		return
	}
	var seen uint32
	for i := 0; d.nextKey(i); i++ {
		switch d.field(&seen, equalFields) {
		case "a":
			e.A = d.str()
		case "b":
			e.B = d.str()
		case "guard":
			e.Guard = d.guard()
		case "note":
			e.Note = d.str()
		}
	}
	return
}
