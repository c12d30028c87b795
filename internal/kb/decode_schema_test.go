package kb

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// decodedTypes pairs each type Decode builds with the field names its
// decoder matches, in declaration order.
var decodedTypes = []struct {
	typ    reflect.Type
	fields []string
}{
	{reflect.TypeFor[KB](), kbFields},
	{reflect.TypeFor[System](), systemFields},
	{reflect.TypeFor[Condition](), conditionFields},
	{reflect.TypeFor[Hardware](), hardwareFields},
	{reflect.TypeFor[Workload](), workloadFields},
	{reflect.TypeFor[Rule](), ruleFields},
	{reflect.TypeFor[Expr](), exprFields},
	{reflect.TypeFor[OrderSpec](), orderFields},
	{reflect.TypeFor[OrderEdge](), edgeFields},
	{reflect.TypeFor[OrderEq](), equalFields},
}

// TestDecodeFieldListsMatchTags ties the decoder to the struct tags Save
// writes with: each type's field list names its json tags in order, and
// every struct type reachable from KB has a list.
func TestDecodeFieldListsMatchTags(t *testing.T) {
	listed := map[reflect.Type]bool{}
	for _, dt := range decodedTypes {
		listed[dt.typ] = true
		var tags []string
		for i := range dt.typ.NumField() {
			f := dt.typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			tags = append(tags, name)
		}
		if !slices.Equal(tags, dt.fields) {
			t.Errorf("%v: decoder fields %q, json tags %q", dt.typ, dt.fields, tags)
		}
	}
	var walk func(reflect.Type)
	seen := map[reflect.Type]bool{}
	walk = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map:
			walk(typ.Elem())
		case reflect.Struct:
			if seen[typ] {
				return
			}
			seen[typ] = true
			if !listed[typ] {
				t.Errorf("%v is reachable from KB but has no decoder field list", typ)
			}
			for i := range typ.NumField() {
				walk(typ.Field(i).Type)
			}
		}
	}
	walk(reflect.TypeFor[KB]())
}

// TestDecodeRoundTripsEveryField saves generated KBs whose every field is
// set somewhere (strings with escapes and non-ASCII text, int64 extremes)
// and checks that Decode gives back an equal KB.
func TestDecodeRoundTripsEveryField(t *testing.T) {
	prop := func(seed int64) bool {
		var k KB
		fillValue(rand.New(rand.NewSource(seed)), reflect.ValueOf(&k).Elem(), 0)
		if unset := unsetFields(reflect.ValueOf(k)); len(unset) > 0 {
			t.Logf("seed %d leaves %v unset; the generator misses a field", seed, unset)
			return false
		}
		var buf bytes.Buffer
		if err := k.Save(&buf); err != nil {
			t.Log(err)
			return false
		}
		back, err := Decode(buf.Bytes())
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return reflect.DeepEqual(&k, back)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

var fillStrings = []string{
	"a", "pfc", `quote " and \ backslash`, "tab\tnewline\n", "\u0001\u001f",
	"héllo", "日本", "😀 pair", "<&>", "  ",
}

// fillValue sets v to random data with every slice and map non-empty
// (down to a nesting depth that keeps Expr trees small) and every bool
// true, so each field appears in Save's output.
func fillValue(r *rand.Rand, v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(fillStrings[r.Intn(len(fillStrings))])
	case reflect.Int64:
		v.SetInt([]int64{1, -7, 48, math.MaxInt64, math.MinInt64}[r.Intn(5)])
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(r, v.Elem(), depth+1)
	case reflect.Struct:
		for i := range v.NumField() {
			fillValue(r, v.Field(i), depth)
		}
	case reflect.Slice:
		if depth > 5 {
			return
		}
		n := 1 + r.Intn(3)
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := range s.Len() {
			fillValue(r, s.Index(i), depth+1)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for range 1 + r.Intn(3) {
			key := reflect.New(v.Type().Key()).Elem()
			fillValue(r, key, depth+1)
			val := reflect.New(v.Type().Elem()).Elem()
			fillValue(r, val, depth+1)
			m.SetMapIndex(key, val)
		}
		v.Set(m)
	default:
		panic("fillValue: unhandled kind " + v.Kind().String())
	}
}

// unsetFields returns the Type.Field names that are zero everywhere in v.
func unsetFields(v reflect.Value) []string {
	set := map[string]bool{}
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice:
			for i := range v.Len() {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value())
			}
		case reflect.Struct:
			for i := range v.NumField() {
				name := v.Type().Name() + "." + v.Type().Field(i).Name
				set[name] = set[name] || !v.Field(i).IsZero()
				walk(v.Field(i))
			}
		}
	}
	walk(v)
	var unset []string
	for name, ok := range set {
		if !ok {
			unset = append(unset, name)
		}
	}
	slices.Sort(unset)
	return unset
}
