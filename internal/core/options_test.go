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
			// not "balance": that is the default pipeline's canonical
			// spelling, and so keys as the zero Options does
			v.SetString("none")
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

// TestPassListSpellingsShareAKey pins the canonical pass-list key: the
// spellings of one pipeline compile byte-identical graphs
// (TestDefaultPassListSpellings), so they must be one cache key, while
// pipelines that can compile differently stay apart.
func TestPassListSpellingsShareAKey(t *testing.T) {
	for _, group := range [][]string{
		{"", "balance", " balance", "balance ", " balance\t"},
		{"dedup,balance", " dedup , balance ", "dedup,\tbalance"},
		{"arm-slack=2,balance", "arm-slack = 2, balance"},
		{"none", " none "},
	} {
		want := Options{Passes: group[0]}.Key()
		for _, spelling := range group[1:] {
			if got := (Options{Passes: spelling}).Key(); got != want {
				t.Errorf("Passes %q keys as %q, %q as %q", spelling, got, group[0], want)
			}
		}
	}
	distinct := []string{"", "none", "dedup", "dedup,balance", "balance-naive", "arm-slack=2,balance", "bogus", ",balance"}
	seen := map[string]string{}
	for _, list := range distinct {
		k := Options{Passes: list}.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("Passes %q and %q share a key", prev, list)
		}
		seen[k] = list
	}
}
