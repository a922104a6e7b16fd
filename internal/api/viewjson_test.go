package api

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The decoder's key lists are the types' json tags, in field order, and it
// decodes every field: a view with no zero field anywhere survives a
// marshal/decode round trip. A field added to SessionView or AllocationView
// without its decoder case fails here, not only when a seed happens to set
// it.
func TestViewDecoderCoversEveryField(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		keys []string
	}{
		{reflect.TypeFor[SessionView](), viewFields},
		{reflect.TypeFor[AllocationView](), allocFields},
	} {
		var tags []string
		for i := 0; i < tc.typ.NumField(); i++ {
			tags = append(tags, strings.Split(tc.typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(tags, tc.keys) {
			t.Fatalf("%s: json tags %q, decoder keys %q", tc.typ, tags, tc.keys)
		}
	}
	var full SessionView
	fill(reflect.ValueOf(&full).Elem())
	body, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	var got SessionView
	if err := got.UnmarshalJSON(body); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, full) {
		again, _ := json.Marshal(got)
		t.Fatalf("decoded %s\nfrom %s", again, body)
	}
}

// fill sets every field reachable from v to a non-zero value.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int64:
		v.SetInt(3)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i))
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeFor[time.Time]() {
			v.Set(reflect.ValueOf(time.Date(2026, 10, 17, 12, 0, 0, 0, time.UTC)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i))
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}
