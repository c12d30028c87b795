package core

import (
	"fmt"
	"reflect"
	"testing"
)

// sampleValue builds a non-zero value of type t that plausibly differs
// from the zero value's rendering: numbers become 7, strings "zz-probe",
// bools true, slices/maps one sampled element. It exists so the guard
// below keeps working for field types a future Scenario might add.
func sampleValue(t reflect.Type) reflect.Value {
	v := reflect.New(t).Elem()
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7)
	case reflect.String:
		v.SetString("zz-probe")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(t, 1, 1))
		v.Index(0).Set(sampleValue(t.Elem()))
	case reflect.Map:
		v.Set(reflect.MakeMap(t))
		v.SetMapIndex(sampleValue(t.Key()), sampleValue(t.Elem()))
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				v.Field(i).Set(sampleValue(t.Field(i).Type))
			}
		}
	case reflect.Ptr:
		v.Set(reflect.New(t.Elem()))
		v.Elem().Set(sampleValue(t.Elem()))
	default:
		panic(fmt.Sprintf("sampleValue: unhandled kind %v — extend the guard", t.Kind()))
	}
	return v
}

// TestFingerprintCoversEveryScenarioField is the aliasing guard of the
// compiled-base cache: fingerprints key cached bases, so a Scenario
// field the fingerprint ignores would silently alias different scenarios
// to one cache entry. Every exported field, present and future, must
// perturb the fingerprint.
func TestFingerprintCoversEveryScenarioField(t *testing.T) {
	scType := reflect.TypeOf(Scenario{})
	zero := Scenario{}
	zeroFP := zero.fingerprint()
	for i := 0; i < scType.NumField(); i++ {
		field := scType.Field(i)
		if !field.IsExported() {
			continue
		}
		probe := reflect.New(scType).Elem()
		probe.Field(i).Set(sampleValue(field.Type))
		sc := probe.Addr().Interface().(*Scenario)
		if got := sc.fingerprint(); got == zeroFP {
			t.Errorf("Scenario.%s does not perturb fingerprint(): a new field must be added to the "+
				"fingerprint before it ships, or cache entries alias across scenarios", field.Name)
		}
	}
}
