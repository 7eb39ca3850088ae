package core

import (
	"reflect"
	"testing"
)

// unkeyedOptions lists the Options fields that do not shape the compiled
// artifact and so stay out of Options.Key: Batch binds per run (see
// Binding.Batch); VerifyEach and Snapshot only observe the compilation.
var unkeyedOptions = map[string]bool{"Batch": true, "VerifyEach": true, "Snapshot": true}

// TestOptionsKeyCoversEveryField guards the artifact cache key: every
// Options field must either change Options.Key when set or be listed in
// unkeyedOptions. A new field that is neither would let the cache hand one
// configuration's graph to another.
func TestOptionsKeyCoversEveryField(t *testing.T) {
	zero := Options{}.Key()
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var o Options
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int:
			v.SetInt(1)
		case reflect.String:
			v.SetString("balance")
		case reflect.Func:
			v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
				out := make([]reflect.Value, v.Type().NumOut())
				for j := range out {
					out[j] = reflect.Zero(v.Type().Out(j))
				}
				return out
			}))
		default:
			t.Fatalf("Options.%s: no non-zero value for kind %s; extend this test", f.Name, v.Kind())
		}
		keyed := o.Key() != zero
		switch {
		case keyed && unkeyedOptions[f.Name]:
			t.Errorf("Options.%s changes the key but is listed as unkeyed", f.Name)
		case !keyed && !unkeyedOptions[f.Name]:
			t.Errorf("Options.%s is neither in Options.Key nor listed in unkeyedOptions", f.Name)
		}
	}
	for name := range unkeyedOptions {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("unkeyedOptions lists %s, which Options no longer has", name)
		}
	}
}
