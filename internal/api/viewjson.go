package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"
)

// UnmarshalJSON decodes a view in one pass, without reflection: the typed
// client decodes two 64-player views per served epoch, and reflect-driven
// decoding of their numbers was a quarter of that epoch's CPU.
//
// It accepts exactly the documents encoding/json accepts for SessionView and
// produces the same value: strict RFC 8259 syntax, unknown keys skipped,
// keys matched exactly and then case-insensitively, null a no-op (nil for
// pointers and slices), the last of duplicate keys winning, and a repeated
// "allocation" merging into the struct already there. Decoding into an
// existing slice reuses its backing array as encoding/json does, so even a
// repeated key with null elements decodes alike. Escaped or non-ASCII
// strings, times and the small "sim" sub-document are handed to the
// standard decoders. Nothing decoded aliases data.
//
// Its errors are encoding/json's types too: a malformed document is a
// *json.SyntaxError, and a well-formed value of the wrong type a
// *json.UnmarshalTypeError naming the field's path.
func (v *SessionView) UnmarshalJSON(data []byte) error {
	d := viewDecoder{data: data}
	err := d.document(v)
	if err != nil {
		// encoding/json validates a whole document before it decodes any of
		// it, so a syntax error anywhere outranks a type error met first;
		// and its validator, run only on this failure path, words the
		// error exactly as a reflective decode would.
		if serr := json.Unmarshal(data, new(json.RawMessage)); serr != nil {
			return serr
		}
	}
	return err
}

// document decodes the top-level value into v.
func (d *viewDecoder) document(v *SessionView) error {
	d.ws()
	if d.literal("null") {
		return d.end()
	}
	if err := d.sessionView(v); err != nil {
		return err
	}
	return d.end()
}

// maxDepth is encoding/json's nesting limit: a document nested deeper is a
// syntax error there, so it is one here.
const maxDepth = 10000

var (
	viewFields = []string{"id", "tenant", "mode", "mechanism", "category", "cores", "epochs",
		"health", "created_at", "last_used", "last_error", "allocation", "sim"}
	allocFields = []string{"players", "allocations", "budgets", "utilities", "lambdas", "mur",
		"mbr", "poa_bound", "ef_bound", "efficiency", "envy_freeness", "iterations",
		"equilibrium_runs", "converged"}
)

// viewDecoder is a cursor over one JSON document.
type viewDecoder struct {
	data []byte
	pos  int
	// field is the key whose value is being decoded and parent "allocation"
	// inside that object: the struct and path a type error names.
	field, parent string
}

// errorf reports malformed input; UnmarshalJSON replaces it with the
// validator's *json.SyntaxError.
func (d *viewDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("api: decode view at offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// typeError reports that value, a well-formed JSON value, cannot decode
// into the Go type t, as encoding/json does.
func (d *viewDecoder) typeError(value string, t reflect.Type) error {
	e := &json.UnmarshalTypeError{Value: value, Type: t, Offset: int64(d.pos)}
	switch {
	case d.parent != "":
		e.Struct, e.Field = "AllocationView", d.parent+"."+d.field
	case d.field != "":
		e.Struct, e.Field = "SessionView", d.field
	}
	return e
}

// kind names the value at the cursor as encoding/json's type errors do.
func (d *viewDecoder) kind() string {
	switch d.peek() {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	}
	return "number"
}

// ws skips JSON whitespace.
func (d *viewDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the next byte after whitespace, 0 at the end of input.
func (d *viewDecoder) peek() byte {
	d.ws()
	if d.pos == len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

// end accepts only whitespace after the top-level value.
func (d *viewDecoder) end() error {
	if d.ws(); d.pos < len(d.data) { // a NUL byte is not the end
		return d.errorf("invalid character %q after top-level value", d.data[d.pos])
	}
	return nil
}

// literal consumes lit (true, false or null) if it is next.
func (d *viewDecoder) literal(lit string) bool {
	if bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		d.pos += len(lit)
		return true
	}
	return false
}

// str scans the string token at d.pos, quotes included. plain reports that
// it holds neither escapes nor non-ASCII bytes, so its contents are its
// value; a token with escapes is validated by encoding/json.
func (d *viewDecoder) str() (tok []byte, plain bool, err error) {
	start := d.pos
	plain = true
	for i := start + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			tok = d.data[start:d.pos]
			if !plain && !json.Valid(tok) {
				return nil, false, d.errorf("invalid string %s", tok)
			}
			return tok, plain, nil
		case c == '\\':
			plain = false
			i++ // no escaped byte ends the string
		case c < 0x20:
			d.pos = i
			return nil, false, d.errorf("control character in string")
		case c >= 0x80:
			plain = false
		}
	}
	d.pos = len(d.data)
	return nil, false, d.errorf("unterminated string")
}

// unquote returns a string token's value. Only a plain token is decoded
// here; the rest go to encoding/json, which owns escapes, surrogate pairs
// and the replacement of invalid UTF-8.
func unquote(tok []byte, plain bool) (string, error) {
	if plain {
		return string(tok[1 : len(tok)-1]), nil
	}
	var s string
	err := json.Unmarshal(tok, &s)
	return s, err
}

// number scans the number token at d.pos.
func (d *viewDecoder) number() ([]byte, error) {
	start, i, n := d.pos, d.pos, len(d.data)
	digits := func() bool {
		j := i
		for i < n && '0' <= d.data[i] && d.data[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < n && d.data[i] == '-' {
		i++
	}
	switch {
	case i < n && d.data[i] == '0':
		i++
	case !digits():
		d.pos = i
		return nil, d.errorf("invalid number")
	}
	if i < n && d.data[i] == '.' {
		i++
		if !digits() {
			d.pos = i
			return nil, d.errorf("invalid number")
		}
	}
	if i < n && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < n && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			return nil, d.errorf("invalid number")
		}
	}
	d.pos = i
	return d.data[start:i], nil
}

// member advances to the next key of the object whose '{' has been
// consumed, leaving the cursor on its value; ok is false once the closing
// '}' has been consumed instead.
func (d *viewDecoder) member(first bool) (key []byte, plain, ok bool, err error) {
	c := d.peek()
	if c == '}' {
		d.pos++
		return nil, false, false, nil
	}
	if !first {
		if c != ',' {
			return nil, false, false, d.errorf("expected ',' or '}' after object value")
		}
		d.pos++
		c = d.peek()
	}
	if c != '"' {
		return nil, false, false, d.errorf("expected object key")
	}
	if key, plain, err = d.str(); err != nil {
		return nil, false, false, err
	}
	if d.peek() != ':' {
		return nil, false, false, d.errorf("expected ':' after object key")
	}
	d.pos++
	d.ws()
	return key, plain, true, nil
}

// field resolves a key token to the name of the field it sets, "" for none:
// an exact match first, then a case-insensitive one, as encoding/json does.
func field(tok []byte, plain bool, names []string) (string, error) {
	key := tok[1 : len(tok)-1]
	if !plain {
		s, err := unquote(tok, plain)
		if err != nil {
			return "", err
		}
		key = []byte(s)
	}
	for _, n := range names {
		if string(key) == n {
			return n, nil
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n, nil
		}
	}
	return "", nil
}

// skip validates and consumes one value nested depth containers deep.
func (d *viewDecoder) skip(depth int) error {
	switch d.peek() {
	case '[':
		if depth++; depth > maxDepth {
			return d.errorf("exceeded max depth")
		}
		d.pos++
		if d.peek() == ']' {
			d.pos++
			return nil
		}
		for {
			if err := d.skip(depth); err != nil {
				return err
			}
			if more, err := d.more(); !more {
				return err
			}
		}
	case '{':
		if depth++; depth > maxDepth {
			return d.errorf("exceeded max depth")
		}
		d.pos++
		for first := true; ; first = false {
			_, _, ok, err := d.member(first)
			if err != nil || !ok {
				return err
			}
			if err := d.skip(depth); err != nil {
				return err
			}
		}
	case '"':
		_, _, err := d.str()
		return err
	case 't', 'f', 'n':
		if d.literal("true") || d.literal("false") || d.literal("null") {
			return nil
		}
		return d.errorf("invalid literal")
	default:
		_, err := d.number()
		return err
	}
}

// more consumes what follows an array element: a ',' before another
// element, or the closing ']'.
func (d *viewDecoder) more() (bool, error) {
	switch d.peek() {
	case ',':
		d.pos++
		return true, nil
	case ']':
		d.pos++
		return false, nil
	}
	return false, d.errorf("expected ',' or ']' after array element")
}

// sessionView decodes the object at the cursor into v.
func (d *viewDecoder) sessionView(v *SessionView) error {
	if d.peek() != '{' {
		return d.typeError(d.kind(), reflect.TypeFor[SessionView]())
	}
	d.pos++
	for first := true; ; first = false {
		tok, plain, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		name, err := field(tok, plain, viewFields)
		if err != nil {
			return err
		}
		d.field = name
		switch name {
		case "id":
			err = d.string(&v.ID)
		case "tenant":
			err = d.string(&v.Tenant)
		case "mode":
			err = d.string(&v.Mode)
		case "mechanism":
			err = d.string(&v.Mechanism)
		case "category":
			err = d.string(&v.Category)
		case "cores":
			v.Cores, err = d.int(v.Cores)
		case "epochs":
			v.Epochs, err = d.integer(reflect.TypeFor[int64](), v.Epochs)
		case "health":
			err = d.string(&v.Health)
		case "created_at":
			err = d.time(&v.CreatedAt)
		case "last_used":
			err = d.time(&v.LastUsed)
		case "last_error":
			err = d.string(&v.LastError)
		case "allocation":
			if d.literal("null") {
				v.Alloc = nil
				continue
			}
			if v.Alloc == nil {
				v.Alloc = new(AllocationView)
			}
			err = d.allocation(v.Alloc)
		case "sim":
			start := d.pos
			if err = d.skip(1); err == nil {
				err = json.Unmarshal(d.data[start:d.pos], &v.Sim)
			}
			// The sub-document's type errors name their path from the view.
			var te *json.UnmarshalTypeError
			if errors.As(err, &te) {
				if te.Field == "" {
					te.Struct = "SessionView"
				}
				te.Field = strings.TrimSuffix("sim."+te.Field, ".")
			}
		default:
			err = d.skip(1)
		}
		if err != nil {
			return err
		}
	}
}

// allocation decodes the object at the cursor into a.
func (d *viewDecoder) allocation(a *AllocationView) error {
	if d.peek() != '{' {
		return d.typeError(d.kind(), reflect.TypeFor[AllocationView]())
	}
	d.pos++
	d.parent = "allocation"
	for first := true; ; first = false {
		tok, plain, ok, err := d.member(first)
		if err != nil || !ok {
			d.parent = ""
			return err
		}
		name, err := field(tok, plain, allocFields)
		if err != nil {
			return err
		}
		d.field = name
		switch name {
		case "players":
			a.Players, err = d.strings(a.Players)
		case "allocations":
			a.Allocations, err = d.rows(a.Allocations)
		case "budgets":
			a.Budgets, err = d.floats(a.Budgets)
		case "utilities":
			a.Utilities, err = d.floats(a.Utilities)
		case "lambdas":
			a.Lambdas, err = d.floats(a.Lambdas)
		case "mur":
			err = d.floatPtr(&a.MUR)
		case "mbr":
			err = d.floatPtr(&a.MBR)
		case "poa_bound":
			err = d.floatPtr(&a.PoABound)
		case "ef_bound":
			err = d.floatPtr(&a.EFBound)
		case "efficiency":
			err = d.float(&a.Efficiency)
		case "envy_freeness":
			err = d.floatPtr(&a.EnvyFreeness)
		case "iterations":
			a.Iterations, err = d.int(a.Iterations)
		case "equilibrium_runs":
			a.EquilibriumRuns, err = d.int(a.EquilibriumRuns)
		case "converged":
			switch {
			case d.literal("true"):
				a.Converged = true
			case d.literal("false"):
				a.Converged = false
			case !d.literal("null"):
				err = d.typeError(d.kind(), reflect.TypeFor[bool]())
			}
		default:
			err = d.skip(2)
		}
		if err != nil {
			return err
		}
	}
}

// string decodes a string value into *s; null leaves it unchanged.
func (d *viewDecoder) string(s *string) error {
	if d.literal("null") {
		return nil
	}
	if d.peek() != '"' {
		return d.typeError(d.kind(), reflect.TypeFor[string]())
	}
	tok, plain, err := d.str()
	if err != nil {
		return err
	}
	*s, err = unquote(tok, plain)
	return err
}

// numberOf scans the number at the cursor for a field of type t; any
// other value is a type error.
func (d *viewDecoder) numberOf(t reflect.Type) ([]byte, error) {
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return nil, d.typeError(d.kind(), t)
	}
	return d.number()
}

// integer decodes an integer of type t (int or int64); null returns old.
// Like encoding/json it parses with strconv.ParseInt, so 1.0 and 1e3 are
// errors.
func (d *viewDecoder) integer(t reflect.Type, old int64) (int64, error) {
	if d.literal("null") {
		return old, nil
	}
	tok, err := d.numberOf(t)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(tok), 10, t.Bits())
	if err != nil {
		return 0, d.typeError("number "+string(tok), t)
	}
	return n, nil
}

func (d *viewDecoder) int(old int) (int, error) {
	n, err := d.integer(reflect.TypeFor[int](), int64(old))
	return int(n), err
}

// parseFloat decodes the number at the cursor.
func (d *viewDecoder) parseFloat() (float64, error) {
	t := reflect.TypeFor[float64]()
	tok, err := d.numberOf(t)
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, d.typeError("number "+string(tok), t)
	}
	return f, nil
}

// float decodes a number into *f; null leaves it unchanged.
func (d *viewDecoder) float(f *float64) error {
	if d.literal("null") {
		return nil
	}
	x, err := d.parseFloat()
	if err == nil {
		*f = x
	}
	return err
}

// floatPtr decodes a number into **p, allocating only when *p is nil;
// null sets *p to nil.
func (d *viewDecoder) floatPtr(p **float64) error {
	if d.literal("null") {
		*p = nil
		return nil
	}
	x, err := d.parseFloat()
	if err != nil {
		return err
	}
	if *p == nil {
		*p = new(float64)
	}
	**p = x
	return nil
}

// time hands a time value to time.Time's own decoder, as encoding/json
// does: it takes a string or null and refuses anything else.
func (d *viewDecoder) time(t *time.Time) error {
	start := d.pos
	if err := d.skip(1); err != nil {
		return err
	}
	return t.UnmarshalJSON(d.data[start:d.pos])
}

// arrayLen sizes the flat array at the cursor from the input: one more
// element than its commas, up to the first ']'. A string holding ',' or
// ']' skews the count, which only costs a regrowth.
func (d *viewDecoder) arrayLen() int {
	rest := d.data[d.pos:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte{','}) + 1
}

// slot extends s by one element as encoding/json does: within its
// capacity the element keeps whatever the backing array holds (which is
// what a null element leaves there), beyond it the array regrows by
// copying; an s with no capacity is first given hint() of it.
func slot[T any](s []T, hint func() int) []T {
	switch {
	case len(s) < cap(s):
		return s[:len(s)+1]
	case cap(s) == 0:
		return make([]T, 1, max(hint(), 1))
	default:
		var zero T
		return append(s, zero)
	}
}

// elements decodes the array at the cursor into dst element by element,
// with elem decoding into the slot at the end of the slice so far. An
// empty array yields a fresh empty slice, null a nil one.
func elements[T any](d *viewDecoder, dst []T, hint func() int, elem func(*T) error) ([]T, error) {
	if d.literal("null") {
		return nil, nil
	}
	if d.peek() != '[' {
		return nil, d.typeError(d.kind(), reflect.TypeFor[[]T]())
	}
	d.pos++
	if d.peek() == ']' {
		d.pos++
		return []T{}, nil
	}
	out := dst[:0]
	for {
		out = slot(out, hint)
		d.ws()
		if err := elem(&out[len(out)-1]); err != nil {
			return nil, err
		}
		if more, err := d.more(); !more {
			return out, err
		}
	}
}

func (d *viewDecoder) strings(dst []string) ([]string, error) {
	return elements(d, dst, d.arrayLen, d.string)
}

func (d *viewDecoder) floats(dst []float64) ([]float64, error) {
	return elements(d, dst, d.arrayLen, d.float)
}

// rows decodes the allocation matrix. The rows it creates share one
// backing array, sized from the input's commas and cut with full slice
// expressions so no row can grow into its neighbour; a row that already
// has capacity (a repeated key) is decoded into in place.
func (d *viewDecoder) rows(dst [][]float64) ([][]float64, error) {
	var flat []float64
	rows, cells := d.matrixShape()
	return elements(d, dst, func() int { return rows }, func(row *[]float64) error {
		if cap(*row) > 0 || d.peek() != '[' {
			r, err := d.floats(*row)
			*row = r
			return err
		}
		if flat == nil {
			flat = make([]float64, 0, cells)
		}
		free := cap(flat) - len(flat)
		r, err := d.floats(flat[len(flat):len(flat):cap(flat)])
		if err != nil {
			return err
		}
		if len(r) <= free {
			flat = flat[:len(flat)+len(r)]
			r = r[:len(r):len(r)]
		} else {
			flat = flat[:cap(flat)] // r outgrew the estimate after writing the rest
		}
		*row = r
		return nil
	})
}

// matrixShape sizes the array of arrays at the cursor from the input. A
// matrix of numbers ends at the last ']' before the next key's quote or its
// object's '}'; one more value than its commas is an upper bound on its
// cells, and one fewer than its '[' is its rows.
func (d *viewDecoder) matrixShape() (rows, cells int) {
	rest := d.data[d.pos:]
	for _, c := range []byte{'"', '}'} {
		if end := bytes.IndexByte(rest, c); end >= 0 {
			rest = rest[:end]
		}
	}
	rest = rest[:bytes.LastIndexByte(rest, ']')+1]
	return max(bytes.Count(rest, []byte{'['})-1, 1), bytes.Count(rest, []byte{','}) + 1
}
