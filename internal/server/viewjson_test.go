package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// plainView has SessionView's fields and none of its methods, so
// encoding/json decodes it by reflection: the reference the hand decoder is
// held to.
type plainView SessionView

// servedView creates a session on an in-process daemon, steps it once and
// returns the bytes the daemon serves for it.
func servedView(t testing.TB, spec SessionSpec) []byte {
	t.Helper()
	_, ts := newTestDaemon(t, Config{IdleTTL: -1})
	post := func(path string, body any) []byte {
		var rd io.Reader
		if body != nil {
			buf, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(buf)
		}
		resp, err := http.Post(ts.URL+path, "application/json", rd)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST %s: %d %s (%v)", path, resp.StatusCode, raw, err)
		}
		return raw
	}
	post("/v1/sessions", spec)
	return post("/v1/sessions/"+spec.ID+"/epoch", nil)
}

// FuzzSessionViewDecode holds SessionView.UnmarshalJSON to encoding/json's
// reflective decode of the same type: on any input both fail, or both
// succeed with deeply equal values — nil and empty slices told apart. A
// syntax error is the same *json.SyntaxError on both sides, and where the
// reference reports a *json.UnmarshalTypeError the hand decoder reports the
// same one. (Not the converse: encoding/json decodes on past a type error
// and returns a later time field's error instead, where the hand decoder
// stops at the first.) The view is checked through both of its entry
// points: the direct call the client makes and json.Unmarshal, which
// validates first and then calls it.
func FuzzSessionViewDecode(f *testing.F) {
	v8 := servedView(f, SessionSpec{ID: "v8", Workload: WorkloadSpec{Category: "CPBN", Cores: 8, Seed: 2},
		Mechanism: "balanced"})
	v64 := servedView(f, SessionSpec{ID: "v64", Workload: WorkloadSpec{Category: "CPBB", Cores: 64, Seed: 1},
		Mechanism: "rebudget-20"})
	sim := servedView(f, SessionSpec{ID: "sim", Mode: ModeSim, Workload: WorkloadSpec{Fig3: true},
		Mechanism: "equalbudget", Sim: &SimSpec{WarmupEpochs: 1, MaxAccessesPerCoreEpoch: 200}})
	var indented bytes.Buffer
	if err := json.Indent(&indented, v64, "", "  "); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		v8, v64, sim, indented.Bytes(),
		v64[:len(v64)/2], v8[:len(v8)-2], sim[:len(sim)/3], // truncated
		append(append([]byte{}, v8...), "x"...),     // trailing garbage
		append(append([]byte{}, v8...), " \n\t"...), // trailing whitespace
		[]byte(`null`), []byte(` null `), []byte(``), []byte(`[]`), []byte(`"s"`),
		[]byte(`{"id":"café\n","tenant":"acme\/prod","mode":"café","mechanism":"😀\ud800"}`),
		[]byte(`{"ID":"upper","Allocation":{"PLAYERS":["a"],"Mur":0.5},"CORES":3,"ıd":"dotless","id":"escaped key"}`),
		[]byte(`{"id":"a","id":"b","cores":1,"cores":2,"extra":{"x":[1,{"y":null}]},"allocation":{"mur":1},"allocation":{"mbr":2}}`),
		[]byte(`{"allocation":{"budgets":[1,2,3],"budgets":[5],"budgets":[7,null,null]}}`),
		[]byte(`{"allocation":{"allocations":[[1,2],[3]],"allocations":[[null,4],null,[]],"allocations":[[null,null,9],[null]]}}`),
		[]byte(`{"allocation":{"players":["a","b"],"players":[],"players":[null]}}`),
		[]byte(`{"id":null,"cores":null,"epochs":null,"created_at":null,"allocation":{"players":null,"allocations":[null],"mur":null,"converged":null},"sim":null}`),
		[]byte(`{"allocation":null,"sim":{"epochs":null,"health":null}}`),
		[]byte(`{"allocation":{"efficiency":1e400}}`),
		[]byte(`{"cores":1.0}`), []byte(`{"epochs":1e3}`), []byte(`{"cores":-0}`),
		[]byte(`{"epochs":-9223372036854775808}`), []byte(`{"epochs":9223372036854775808}`),
		[]byte(`{"created_at":"2026-10-17T12:00:00Z","last_used":"2026-10-17T12:00:00.5+02:00"}`),
		[]byte(`{"created_at":"not a time"}`), []byte(`{"created_at":5}`),
		[]byte(`{"allocation":{"converged":true,"iterations":7,"equilibrium_runs":2}}`),
		[]byte(`{"allocation":{"converged":"true"}}`), []byte(`{"id":1}`), []byte(`{"allocation":[]}`),
		// type errors: each names the field's path, and the first one wins
		[]byte(`{"tenant":true,"cores":"1","epochs":{}}`), []byte(`{"allocation":"x"}`),
		[]byte(`{"allocation":{"allocations":[["x"]],"mur":"x","players":[1],"budgets":{}}}`),
		[]byte(`{"sim":[]}`), []byte(`{"sim":{"health":{"state":1}}}`), []byte(`{"cores":"x","created_at":5}`),
		[]byte(`{"a":01}`), []byte(`{"a":-}`), []byte(`{"a":1.}`), []byte(`{"a":.5}`), []byte(`{"a":1e}`),
		[]byte(`{"a":tru}`), []byte(`{"a":"\x"}`), []byte(`{"a":"` + "\x01" + `"}`), []byte(`{,}`), []byte(`{"a":1,}`),
		// encoding/json's depth limit, 10 000 containers with the view's own.
		[]byte(`{"extra":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`),
		[]byte(`{"extra":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`),
		[]byte(`{"allocation":{"extra":` + strings.Repeat(`{"a":`, 9998) + `1` + strings.Repeat("}", 9998) + `}}`),
		[]byte(`{"allocation":{"extra":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat("}", 9999) + `}}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want plainView
		wantErr := json.Unmarshal(data, &want)
		var direct, viaJSON SessionView
		for name, got := range map[string]struct {
			v   *SessionView
			err error
		}{
			"UnmarshalJSON":  {&direct, direct.UnmarshalJSON(data)},
			"json.Unmarshal": {&viaJSON, json.Unmarshal(data, &viaJSON)},
		} {
			switch {
			case (got.err == nil) != (wantErr == nil):
				t.Fatalf("%s: error %v, reflective decode %v, on %q", name, got.err, wantErr, data)
			case got.err == nil && !reflect.DeepEqual(*got.v, SessionView(want)):
				g, _ := json.Marshal(got.v)
				w, _ := json.Marshal(want)
				t.Fatalf("%s: decoded %s, reflective decode %s, from %q", name, g, w, data)
			case got.err != nil && !sameError(got.err, wantErr):
				t.Fatalf("%s: error %v, reflective decode %v, on %q", name, got.err, wantErr, data)
			}
		}
	})
}

// sameError reports whether the hand decoder's error got matches the
// reflective decode's error want as FuzzSessionViewDecode requires: the
// same syntax error, or for a type error in want the same message, with
// the reference type's name read as SessionView.
func sameError(got, want error) bool {
	var gs, ws *json.SyntaxError
	if errors.As(got, &gs) != errors.As(want, &ws) {
		return false
	}
	if ws != nil {
		return *gs == *ws && got.Error() == want.Error()
	}
	var wt *json.UnmarshalTypeError
	if errors.As(want, &wt) {
		var gt *json.UnmarshalTypeError
		return errors.As(got, &gt) && got.Error() == strings.ReplaceAll(want.Error(), "plainView", "SessionView")
	}
	return true
}

// The decode of a served view is exact: a 64-core view survives a
// marshal/decode round trip bit for bit, every float included.
func TestSessionViewRoundTrip(t *testing.T) {
	body := servedView(t, SessionSpec{ID: "rt", Workload: WorkloadSpec{Category: "CPBB", Cores: 64, Seed: 5},
		Mechanism: "rebudget-40"})
	var v SessionView
	if err := v.UnmarshalJSON(body); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(body), again) {
		t.Fatalf("round trip changed the view:\n%s\n%s", body, again)
	}
	// The matrix rows share one backing array and none can grow into the
	// next.
	rows := v.Alloc.Allocations
	for i := 1; i < len(rows); i++ {
		prev, next := unsafe.Pointer(&rows[i-1][0]), unsafe.Pointer(&rows[i][0])
		if cap(rows[i-1]) != len(rows[i-1]) || uintptr(next)-uintptr(prev) != uintptr(len(rows[i-1]))*8 {
			t.Fatalf("row %d is not cut from the shared backing array", i)
		}
	}
}

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
