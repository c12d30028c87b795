package kb_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"netarch/internal/catalog"
	"netarch/internal/kb"
)

// oracleDiff is kb.Diff as it was when it compared entries by their
// json.Marshal encodings, looked up by a linear scan per name. It is the
// reference the structural comparison must match.
func oracleDiff(old, new *kb.KB) []kb.DiffEntry {
	var out []kb.DiffEntry
	section := func(name string, oldNames, newNames []string, lookup func(string) (any, any)) {
		oldSet, newSet := map[string]bool{}, map[string]bool{}
		for _, n := range oldNames {
			oldSet[n] = true
		}
		for _, n := range newNames {
			newSet[n] = true
		}
		for _, n := range oldNames {
			if !newSet[n] {
				out = append(out, kb.DiffEntry{Section: name, Name: n, Change: "removed"})
			}
		}
		for _, n := range newNames {
			if !oldSet[n] {
				out = append(out, kb.DiffEntry{Section: name, Name: n, Change: "added"})
				continue
			}
			a, b := lookup(n)
			if canonicalJSON(a) != canonicalJSON(b) {
				out = append(out, kb.DiffEntry{Section: name, Name: n, Change: "changed"})
			}
		}
	}
	names := func(n int, get func(int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = get(i)
		}
		return out
	}
	section("system", names(len(old.Systems), func(i int) string { return old.Systems[i].Name }),
		names(len(new.Systems), func(i int) string { return new.Systems[i].Name }),
		func(n string) (any, any) { return old.SystemByName(n), new.SystemByName(n) })
	section("hardware", names(len(old.Hardware), func(i int) string { return old.Hardware[i].Name }),
		names(len(new.Hardware), func(i int) string { return new.Hardware[i].Name }),
		func(n string) (any, any) { return old.HardwareByName(n), new.HardwareByName(n) })
	section("workload", names(len(old.Workloads), func(i int) string { return old.Workloads[i].Name }),
		names(len(new.Workloads), func(i int) string { return new.Workloads[i].Name }),
		func(n string) (any, any) { return old.WorkloadByName(n), new.WorkloadByName(n) })
	ruleByName := func(k *kb.KB, n string) any {
		for i := range k.Rules {
			if k.Rules[i].Name == n {
				return &k.Rules[i]
			}
		}
		return (*kb.Rule)(nil)
	}
	section("rule", names(len(old.Rules), func(i int) string { return old.Rules[i].Name }),
		names(len(new.Rules), func(i int) string { return new.Rules[i].Name }),
		func(n string) (any, any) { return ruleByName(old, n), ruleByName(new, n) })
	section("order", names(len(old.Orders), func(i int) string { return old.Orders[i].Dimension }),
		names(len(new.Orders), func(i int) string { return new.Orders[i].Dimension }),
		func(n string) (any, any) { return old.OrderByDimension(n), new.OrderByDimension(n) })
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

func canonicalJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("!err:%v", err)
	}
	return string(data)
}

var section51JSON []byte

// caseStudyJSON returns the §5.1 case-study knowledge base with its three
// workloads as kb.Save writes it.
func caseStudyJSON(t testing.TB) []byte {
	t.Helper()
	if section51JSON == nil {
		k := catalog.CaseStudy()
		k.Workloads = append(k.Workloads, catalog.BatchAnalyticsWorkload(), catalog.StorageWorkload())
		var buf bytes.Buffer
		if err := k.Save(&buf); err != nil {
			t.Fatal(err)
		}
		section51JSON = buf.Bytes()
	}
	return section51JSON
}

// section51KB returns a fresh copy of the §5.1 case-study knowledge base
// with its three workloads, decoded from JSON so edits never reach the
// catalog's shared values.
func section51KB(t testing.TB) *kb.KB {
	t.Helper()
	out, err := kb.Load(bytes.NewReader(caseStudyJSON(t)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// editStrings are replacement strings that probe the JSON encoding: the
// empty string (omitted when omitempty), bytes that are not UTF-8 (all
// written as \ufffd, so "\xff" and "\xfe" encode alike), a real U+FFFD,
// and characters encoding/json escapes.
var editStrings = []string{"", "x", "\xff", "\xfe", "a\xffb", "a\xfeb", "\ufffd", "<&>", " "}

// editKB makes one random edit somewhere in k, reached by reflection:
// it rewrites a string, integer or bool; sets a slice to nil, to empty,
// or drops, duplicates or swaps elements; sets a map to nil or empty, or
// deletes, adds or rewrites an entry; or sets an order guard. Reusing a
// string seen elsewhere in k renames entries onto each other.
func editKB(r *rand.Rand, k *kb.KB) {
	var sites []reflect.Value
	var seen []string
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			sites = append(sites, v)
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Pointer:
			sites = append(sites, v)
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Map:
			sites = append(sites, v)
			for _, key := range v.MapKeys() {
				seen = append(seen, key.String())
			}
		case reflect.String:
			sites = append(sites, v)
			seen = append(seen, v.String())
		case reflect.Int64, reflect.Bool:
			sites = append(sites, v)
		}
	}
	walk(reflect.ValueOf(k).Elem())
	str := func(old string) string {
		switch r.Intn(4) {
		case 0:
			return old
		case 1:
			return seen[r.Intn(len(seen))]
		case 2:
			return old + editStrings[r.Intn(len(editStrings))]
		}
		return editStrings[r.Intn(len(editStrings))]
	}
	// value builds a fresh value of type t, deep enough for map values
	// and new slice elements.
	var value func(t reflect.Type) reflect.Value
	value = func(t reflect.Type) reflect.Value {
		v := reflect.New(t).Elem()
		switch t.Kind() {
		case reflect.String:
			v.SetString(str(""))
		case reflect.Int64:
			v.SetInt(int64(r.Intn(3)))
		case reflect.Bool:
			v.SetBool(r.Intn(2) == 0)
		case reflect.Slice:
			switch r.Intn(3) {
			case 0: // nil
			case 1:
				v.Set(reflect.MakeSlice(t, 0, 0))
			default:
				v.Set(reflect.Append(reflect.MakeSlice(t, 0, 1), value(t.Elem())))
			}
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if f := t.Field(i); f.Type.Kind() == reflect.String || f.Type.Kind() == reflect.Bool {
					v.Field(i).Set(value(f.Type))
				}
			}
		}
		return v
	}
	v := sites[r.Intn(len(sites))]
	switch v.Kind() {
	case reflect.String:
		v.SetString(str(v.String()))
	case reflect.Int64:
		v.SetInt(v.Int() + int64(r.Intn(3)-1))
	case reflect.Bool:
		v.SetBool(r.Intn(2) == 0)
	case reflect.Pointer:
		if r.Intn(2) == 0 {
			v.Set(reflect.Zero(v.Type()))
		} else {
			v.Set(reflect.New(v.Type().Elem()))
			v.Elem().Set(value(v.Type().Elem()))
		}
	case reflect.Slice:
		n := v.Len()
		switch op := r.Intn(5); {
		case op == 0:
			v.Set(reflect.Zero(v.Type()))
		case op == 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		case op == 2 && n > 0: // drop one element, in a fresh slice
			i := r.Intn(n)
			out := reflect.MakeSlice(v.Type(), 0, n-1)
			out = reflect.AppendSlice(out, v.Slice(0, i))
			v.Set(reflect.AppendSlice(out, v.Slice(i+1, n)))
		case op == 3 && n > 1: // swap two elements
			i, j := r.Intn(n), r.Intn(n)
			x := reflect.ValueOf(v.Index(i).Interface())
			v.Index(i).Set(v.Index(j))
			v.Index(j).Set(x)
		default: // append a fresh element
			out := reflect.MakeSlice(v.Type(), 0, n+1)
			out = reflect.AppendSlice(out, v)
			v.Set(reflect.Append(out, value(v.Type().Elem())))
		}
	case reflect.Map:
		keys := v.MapKeys()
		// Rewrite into a fresh map: maps may be shared with the other
		// side of the diff.
		m := reflect.MakeMapWithSize(v.Type(), len(keys)+1)
		for _, key := range keys {
			m.SetMapIndex(key, v.MapIndex(key))
		}
		switch op := r.Intn(5); {
		case op == 0:
			v.Set(reflect.Zero(v.Type()))
			return
		case op == 1:
			v.Set(reflect.MakeMap(v.Type()))
			return
		case op == 2 && len(keys) > 0:
			m.SetMapIndex(keys[r.Intn(len(keys))], reflect.Value{})
		case op == 3 && len(keys) > 0:
			m.SetMapIndex(keys[r.Intn(len(keys))], value(v.Type().Elem()))
		default:
			key := reflect.New(v.Type().Key()).Elem()
			key.SetString(str(""))
			m.SetMapIndex(key, value(v.Type().Elem()))
		}
		v.Set(m)
	}
}

// blurKB rewrites k in ways JSON may or may not see: it swaps the
// invalid bytes \xff and \xfe in strings and map keys (invisible: both
// encode as \ufffd) and turns empty slices and maps from nil to empty
// or back (invisible where omitempty, visible in the nested slices of
// RequiresAnyOf and the values of RequiresCaps).
func blurKB(r *rand.Rand, k *kb.KB) {
	swap := func(s string) string {
		b := []byte(s)
		for i, c := range b {
			switch c {
			case 0xff:
				b[i] = 0xfe
			case 0xfe:
				b[i] = 0xff
			}
		}
		return string(b)
	}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.String:
			if r.Intn(2) == 0 {
				v.SetString(swap(v.String()))
			}
		case reflect.Slice:
			if v.Len() == 0 {
				if r.Intn(2) == 0 {
					if v.IsNil() {
						v.Set(reflect.MakeSlice(v.Type(), 0, 0))
					} else {
						v.Set(reflect.Zero(v.Type()))
					}
				}
				return
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			if v.Len() == 0 {
				if r.Intn(2) == 0 {
					if v.IsNil() {
						v.Set(reflect.MakeMap(v.Type()))
					} else {
						v.Set(reflect.Zero(v.Type()))
					}
				}
				return
			}
			m := reflect.MakeMapWithSize(v.Type(), v.Len())
			for _, key := range v.MapKeys() {
				val := reflect.New(v.Type().Elem()).Elem()
				val.Set(v.MapIndex(key))
				walk(val)
				nk := reflect.New(key.Type()).Elem()
				nk.SetString(key.String())
				if r.Intn(2) == 0 {
					nk.SetString(swap(key.String()))
				}
				m.SetMapIndex(nk, val)
			}
			v.Set(m)
		}
	}
	walk(reflect.ValueOf(k).Elem())
}

// TestDiffMatchesJSONOracle: on random edits of the §5.1 KB, some
// blurred, Diff returns exactly the entries the json.Marshal comparison
// does, in both directions.
func TestDiffMatchesJSONOracle(t *testing.T) {
	const runs = 200
	changed := 0
	for seed := int64(1); seed <= runs; seed++ {
		edits := func(k *kb.KB, seed int64, n int) *kb.KB {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				editKB(r, k)
			}
			return k
		}
		// Both sides share a first round of edits, replayed from one
		// seed; new gets more on top.
		n := 2 + int(seed%5)
		old := edits(section51KB(t), seed, n)
		new := edits(section51KB(t), seed, n)
		if seed%3 != 0 {
			new = edits(new, -seed, 1+int(seed%3))
		}
		if seed%2 == 0 {
			blurKB(rand.New(rand.NewSource(seed)), new)
		}
		for _, pair := range [][2]*kb.KB{{old, new}, {new, old}} {
			got, want := kb.Diff(pair[0], pair[1]), oracleDiff(pair[0], pair[1])
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("seed %d: Diff = %v, want the JSON comparison's %v", seed, got, want)
			}
		}
		if len(oracleDiff(old, new)) > 0 {
			changed++
		}
	}
	if changed < runs/2 {
		t.Fatalf("only %d of %d edit runs changed the KB; the test exercises too little", changed, runs)
	}
}

// FuzzLoadKB feeds arbitrary bytes to kb.Load, which decodes and
// validates: it must return a KB or an error, never panic. An accepted
// KB must validate again, survive a Save/Load round trip and diff empty
// against its copy. Every input also goes through checkDecodeOracle.
func FuzzLoadKB(f *testing.F) {
	var buf bytes.Buffer
	k := catalog.CaseStudy()
	if err := k.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"systems":[{"name":"a","role":"monitoring","requires_any_of":[null,[]]}]}`))
	f.Add([]byte(`{"rules":[{"name":"r","expr":{"op":"and","args":[{"op":"atom","atom":"ctx:x"},{"op":"not"}]}}]}`))
	f.Add([]byte(`{"orders":[{"dimension":"d","edges":[{"better":"a","worse":"b","guard":{"op":"true"}}]}]}`))
	f.Add([]byte(`{"hardware":[{"name":"h","kind":"nic","quant":{"ports":-1}}],"unknown":1}`))
	f.Add([]byte(`[`))
	// Strings: every escape, surrogate pairs, unpaired surrogates and
	// bytes that are not UTF-8, in values and in keys.
	f.Add([]byte(`{"systems":[{"name":"\"\\\/\b\f\n\r\t\u0041\u00e9\u2028","role":"monitoring"}]}`))
	f.Add([]byte(`{"systems":[{"name":"\ud83d\ude00 \ud800 \udc00\ud800 \ud800\u0041 \ud800","role":"firewall"}]}`))
	f.Add([]byte("{\"hardware\":[{\"name\":\"a\xffb\xc3\",\"attrs\":{\"\xff\":\"\xed\xa0\x80\",\"k\xc3\":\"x\"}}]}"))
	f.Add([]byte("{\"hardware\":[{\"attrs\":{\"\xff\":\"\xed\xa0\x80\",\"\xfe\":\"x\"}}]}"))
	f.Add([]byte(`{"hardware":[{"name":"n\u0061me","n\u0061me":"x"}]}`))
	// null, [] and {} wherever they can stand.
	f.Add([]byte(`{"systems":null,"hardware":[],"workloads":[{}],"rules":[{"expr":null}],"orders":[{"edges":[{"guard":null}],"equals":[{"guard":{}}]}]}`))
	f.Add([]byte(`{"systems":[null,{"solves":[],"requires_caps":{"nic":null,"switch":[]},"resources":{"cores":null},"notes":{"k":null}},{"requires_caps":{},"notes":{}}]}`))
	f.Add([]byte(`{"systems":[{"name":null,"app_modification":null,"cores_per_kflows":null,"requires_context":[null,{"value":true}]}]}`))
	// Integer fields.
	f.Add([]byte(`{"hardware":[{"cost_usd":1.0}]}`))
	f.Add([]byte(`{"hardware":[{"cost_usd":1e3}]}`))
	f.Add([]byte(`{"hardware":[{"cost_usd":-0,"quant":{"ports":9223372036854775807,"cores":-9223372036854775808}}]}`))
	f.Add([]byte(`{"hardware":[{"quant":{"ports":9223372036854775808}}]}`))
	f.Add([]byte(`{"workloads":[{"kflows":-9223372036854775809}]}`))
	f.Add([]byte(`{"workloads":[{"kflows":01}]}`))
	f.Add([]byte(`{"workloads":[{"kflows":"1"}]}`))
	// The three strict rules.
	f.Add([]byte(`null`))
	f.Add([]byte(`{} trailing`))
	f.Add([]byte(`{"Systems":[]}`))
	f.Add([]byte(`{"hardware":[{"quant":{"ports":1,"ports":2}}]}`))
	f.Add([]byte(`{"hardware":[{"name":"a","name":"b"}]}`))
	// Nesting at the cap (10,000 levels) and one past it.
	for _, leaf := range []string{`{"op":"true"}`, `{"op":"true","args":[]}`} {
		f.Add([]byte(`{"rules":[{"expr":` + strings.Repeat(`{"op":"not","args":[`, 4998) +
			leaf + strings.Repeat(`]}`, 4998) + `}]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeOracle(t, data)
		k, err := kb.Load(bytes.NewReader(data))
		if err != nil {
			if k != nil {
				t.Fatal("Load returned both a KB and an error")
			}
			return
		}
		if err := k.Validate(); err != nil {
			t.Fatalf("a loaded KB fails Validate: %v", err)
		}
		var out bytes.Buffer
		if err := k.Save(&out); err != nil {
			t.Fatal(err)
		}
		again, err := kb.Load(&out)
		if err != nil {
			t.Fatalf("a saved KB does not load: %v", err)
		}
		if d := kb.Diff(k, again); len(d) != 0 {
			t.Fatalf("a Save/Load round trip changed the KB: %v", d)
		}
	})
}

// checkDecodeOracle checks kb.Decode against the decoder it replaced,
// encoding/json with DisallowUnknownFields. What Decode accepts, the
// reference must accept as a DeepEqual KB; Decode may refuse what the
// reference accepts only under one of its strict rules. Every refusal is
// a *kb.DecodeError inside the input. The input is overwritten after
// Decode returns, so a string aliasing it shows as a mismatch.
func checkDecodeOracle(t *testing.T, data []byte) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var want kb.KB
	refErr := dec.Decode(&want)

	in := bytes.Clone(data)
	got, err := kb.Decode(in)
	for i := range in {
		in[i] = '#'
	}
	if err != nil {
		var de *kb.DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("Decode error %v is a %T, not a *kb.DecodeError", err, err)
		}
		if got != nil {
			t.Fatal("Decode returned both a KB and an error")
		}
		if de.Offset < 0 || de.Offset > len(data) {
			t.Fatalf("%v: offset %d outside the %d-byte input", err, de.Offset, len(data))
		}
		strict := de.Rule == kb.DecodeOneObject || de.Rule == kb.DecodeKeyCase || de.Rule == kb.DecodeDuplicateKey
		if refErr == nil && !strict {
			t.Fatalf("Decode refused under rule %q what encoding/json accepts: %v", de.Rule, err)
		}
		return
	}
	if refErr != nil {
		t.Fatalf("Decode accepted what encoding/json refuses: %v", refErr)
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("Decode and encoding/json disagree:\n got %#v\nwant %#v", got, &want)
	}
}
