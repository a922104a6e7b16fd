// Package flagdoc keeps the serving daemons' command lines and DESIGN.md's
// "Serving knobs" table from drifting apart, and holds every tuning flag to
// a caller: the tests under cmd/ hand it their registered flag set.
package flagdoc

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Check fails on any flag of fs the table does not name, any row naming a
// flag that does not exist, any default that differs, any kind other than
// deployment or tuning, and any tuning flag nobody sets. It reads the rows
// of designMD's "## Serving knobs" section whose first column names daemon:
// `| daemon | -flag | default | kind | what it bounds | why configurable |`,
// the first four cells in backticks, an empty default written `""`.
//
// A tuning flag needs a caller: a non-test Go file of the module rooted at
// designMD's directory, outside the daemon's own cmd/<daemon> package, that
// writes the string literal "-flag" in a composite literal or an argument
// list, followed by anything but the flag's default (a literal that parses
// to it). A non-literal value counts. A deployment flag needs none.
func Check(t testing.TB, designMD, daemon string, fs *flag.FlagSet) {
	t.Helper()
	doc, err := os.ReadFile(designMD)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "## Serving knobs\n")
	if !ok {
		t.Fatalf("%s has no Serving knobs section", designMD)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	cell := func(s string) string { return strings.Trim(strings.TrimSpace(s), "`") }
	type row struct{ def, kind string }
	rows := map[string]row{} // documented flag → its row
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) >= 6 && cell(cells[1]) == daemon {
			rows[strings.TrimPrefix(cell(cells[2]), "-")] = row{strings.ReplaceAll(cell(cells[3]), `""`, ""), cell(cells[4])}
		}
	}
	root := filepath.Dir(designMD)
	values, err := flagValues(root, filepath.Join(root, "cmd", daemon))
	if err != nil {
		t.Fatal(err)
	}
	fs.VisitAll(func(f *flag.Flag) {
		r, ok := rows[f.Name]
		delete(rows, f.Name)
		switch {
		case !ok:
			t.Errorf("%s -%s is not in the Serving knobs table", daemon, f.Name)
		case r.def != f.DefValue:
			t.Errorf("%s -%s: table says default %q, flag has %q", daemon, f.Name, r.def, f.DefValue)
		case r.kind == "deployment":
		case r.kind != "tuning":
			t.Errorf("%s -%s: kind %q, want deployment or tuning", daemon, f.Name, r.kind)
		case !setOffDefault(f, values["-"+f.Name]):
			t.Errorf("%s -%s is a tuning flag no caller sets off its default %q: make it a constant", daemon, f.Name, f.DefValue)
		}
	})
	for name := range rows {
		t.Errorf("table names %s -%s, which is not a flag", daemon, name)
	}
}

// setOffDefault reports whether any of the values a caller passes f (a
// literal, or nil for an expression) sets it to something other than its
// default. f is left at its default.
func setOffDefault(f *flag.Flag, values []*string) bool {
	defer f.Value.Set(f.DefValue) // the flag's own default always parses
	for _, v := range values {
		if v == nil || f.Value.Set(*v) != nil || f.Value.String() != f.DefValue {
			return true
		}
	}
	return false
}

// flagValues maps each "-name" string literal that a non-test Go file under
// root, outside skip, writes in a composite literal or an argument list to
// the values written after it: the literal's text, or nil for anything else
// (or for nothing, the form of a boolean flag). As for the go command, test
// data, directories starting with . or _, and nested modules are not part of
// the module.
func flagValues(root, skip string) (map[string][]*string, error) {
	values := map[string][]*string{}
	fset := token.NewFileSet()
	note := func(list []ast.Expr) {
		for i, e := range list {
			name, ok := literal(e)
			if !ok || !strings.HasPrefix(name, "-") {
				continue
			}
			var v *string
			if i+1 < len(list) {
				if s, ok := literal(list[i+1]); ok {
					v = &s
				}
			}
			values[name] = append(values[name], v)
		}
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (path == skip || name == "testdata" || strings.HasPrefix(name, ".") ||
				strings.HasPrefix(name, "_") || exists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil || !bytes.Contains(src, []byte(`"-`)) {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				note(n.Elts)
			case *ast.CallExpr:
				note(n.Args)
			}
			return true
		})
		return nil
	})
	return values, err
}

// literal is the value a basic literal writes: a string unquoted, anything
// else as written.
func literal(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok {
		return "", false
	}
	if lit.Kind != token.STRING {
		return lit.Value, true
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
