package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// frozen is the module-relative directory whose code counts as a user but
// is not itself checked: the benchmark under it is changed only on purpose,
// together with its baseline.
const frozen = "bench"

// allowed names what the rules do not check, each entry with its reason. A
// key is a finding's name: a module-relative package path, a dot, and a
// function, Type.Method or Type.Field; a key naming a type covers its
// methods and fields. The module's root package, the public facade, is not
// checked either, and neither is a field with a json: tag, which the wire
// format reads and writes by reflection.
var allowed = map[string]string{
	"internal/flagdoc.Check": "test support that the three daemons' cmd/ tests share; a _test.go file cannot be imported",
	"internal/chaos.Config": "fault-injection seams: each rate is off unless a scenario turns it on, " +
		"and the soak keeps the disk rates at zero on purpose",
	"internal/chaos.ScheduleConfig": "fault-injection seams, as chaos.Config",
	"internal/app.Spec.Phases": "models §4.3's phase changes; cmpsim's switch tests drive it and " +
		"ROADMAP items 1b and 8a build on it",
	"internal/trace.PhasedGenerator": "the trace side of app.Spec.Phases",
}

// pkg is one type-checked package: a non-test package, or the test files
// of a directory that declares Example functions.
type pkg struct {
	path  string // module-relative; "" is the module's root package
	files []*ast.File
	info  *types.Info
	types *types.Package
}

type program struct {
	fset     *token.FileSet
	pkgs     []*pkg          // non-test packages, in directory order
	byPath   map[string]*pkg // the same, by import path
	examples []*pkg
	std      types.Importer
}

// load parses every package under root, whose module path is mod, and
// type-checks its non-test files and any test files declaring an Example.
// Standard-library imports are read from the export data go list names.
func load(root, mod string) (*program, error) {
	p := &program{fset: token.NewFileSet(), byPath: map[string]*pkg{}}
	importPath := func(rel string) string { return strings.TrimSuffix(mod+"/"+rel, "/") }
	type variant struct {
		path string
		pkg  *pkg
	}
	var variants []variant
	std := map[string]bool{}
	parse := func(dir string, names []string) ([]*ast.File, bool, error) {
		var files []*ast.File
		example := false
		for _, name := range names {
			f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, false, err
			}
			files = append(files, f)
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); path != mod && !strings.HasPrefix(path, mod+"/") {
					std[path] = true
				}
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
					example = true
				}
			}
		}
		return files, example, nil
	}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) || err == nil && len(bp.GoFiles) == 0 {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		rel = strings.TrimPrefix(filepath.ToSlash(rel), ".")
		q := &pkg{path: rel}
		if q.files, _, err = parse(dir, bp.GoFiles); err != nil {
			return err
		}
		p.pkgs = append(p.pkgs, q)
		p.byPath[importPath(rel)] = q
		in, example, err := parse(dir, bp.TestGoFiles)
		if err != nil {
			return err
		}
		if example {
			variants = append(variants, variant{importPath(rel), &pkg{path: rel, files: append(in, q.files...)}})
		}
		ex, example, err := parse(dir, bp.XTestGoFiles)
		if err != nil {
			return err
		}
		if example {
			variants = append(variants, variant{importPath(rel) + "_test", &pkg{path: rel, files: ex}})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	args := []string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		exports[path] = file
	}
	p.std = importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })

	for _, q := range p.pkgs {
		if _, err := p.Import(importPath(q.path)); err != nil {
			return nil, err
		}
	}
	for _, v := range variants {
		if err := p.check(v.path, v.pkg); err != nil {
			return nil, err
		}
		p.examples = append(p.examples, v.pkg)
	}
	return p, nil
}

func (p *program) check(path string, q *pkg) error {
	q.info = &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	var err error
	q.types, err = (&types.Config{Importer: p}).Check(path, p.fset, q.files, q.info)
	return err
}

// Import resolves the module's own packages to their checked source and
// the rest to export data.
func (p *program) Import(path string) (*types.Package, error) {
	q := p.byPath[path]
	if q == nil {
		return p.std.Import(path)
	}
	if q.types == nil {
		if err := p.check(path, q); err != nil {
			return nil, err
		}
	}
	return q.types, nil
}

type funcDecl struct {
	decl *ast.FuncDecl
	pkg  *pkg
}

// analysis walks the call graph from its roots: every main and init, every
// package-level variable's initialiser, every function of bench/ and of the
// root facade, every Example, and every method that satisfies an interface
// of the program or of a package it imports.
type analysis struct {
	funcs   map[token.Pos]funcDecl // every function of every checked file, by name position
	live    map[token.Pos]bool     // reached functions and read fields
	written map[token.Pos]bool     // fields written outside their own defaults
	stores  map[*ast.Ident]bool    // field names that are store targets, not reads
	stored  map[token.Pos]bool     // fields named as a store target somewhere
	queue   []token.Pos
}

type finding struct {
	pos  token.Position
	name string
	why  string
}

func (f finding) String() string { return fmt.Sprintf("%s: %s %s", f.pos, f.name, f.why) }

// walk marks everything reachable from the roots.
func (p *program) walk() *analysis {
	a := &analysis{funcs: map[token.Pos]funcDecl{}, live: map[token.Pos]bool{}, written: map[token.Pos]bool{}, stores: map[*ast.Ident]bool{}, stored: map[token.Pos]bool{}}
	all := append(p.pkgs[:len(p.pkgs):len(p.pkgs)], p.examples...)
	for _, q := range all {
		for _, f := range q.files {
			for _, d := range f.Decls {
				// An internal Example set re-checks its package's own files;
				// their functions stay the non-test package's.
				if fd, ok := d.(*ast.FuncDecl); ok && a.funcs[fd.Name.Pos()].decl == nil {
					a.funcs[fd.Name.Pos()] = funcDecl{fd, q}
				}
			}
		}
	}
	for _, q := range p.pkgs {
		for _, f := range q.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if unchecked(q.path) || d.Recv == nil && (name == "init" || name == "main" && q.types.Name() == "main") ||
						allowedName(q.path+"."+funcName(d)) {
						a.mark(d.Name.Pos())
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						a.inspect(q, d, nil)
					}
				}
			}
		}
	}
	for _, q := range p.examples {
		for _, f := range q.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
					a.mark(fd.Name.Pos())
				}
			}
		}
	}
	a.markInterfaceMethods(all)
	for len(a.queue) > 0 {
		fd := a.funcs[a.queue[len(a.queue)-1]]
		a.queue = a.queue[:len(a.queue)-1]
		if fd.decl.Body != nil {
			a.inspect(fd.pkg, fd.decl.Body, fd.decl)
		}
	}
	return a
}

// findings reports, by the two rules, what the walk did not reach.
func (p *program) findings() []finding {
	a := p.walk()
	var out []finding
	for _, q := range p.pkgs {
		if unchecked(q.path) {
			continue
		}
		for _, f := range q.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := q.path + "." + funcName(d)
					if d.Name.Name != "init" && d.Name.Name != "main" && d.Name.Name != "_" && !a.live[d.Name.Pos()] && !allowedName(name) {
						out = append(out, finding{p.fset.Position(d.Pos()), name, "has no non-test use"})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						config := ts.Name.IsExported() && (strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Spec"))
						for _, field := range st.Fields.List {
							if field.Tag != nil && strings.Contains(field.Tag.Value, `json:"`) {
								continue
							}
							for _, id := range field.Names {
								name := q.path + "." + ts.Name.Name + "." + id.Name
								switch {
								case id.Name == "_" || allowedName(name):
								case !a.live[id.Pos()] && a.stored[id.Pos()]:
									out = append(out, finding{p.fset.Position(id.Pos()), name, "is written but never read"})
								case !a.live[id.Pos()]:
									out = append(out, finding{p.fset.Position(id.Pos()), name, "has no non-test use"})
								case config && !a.written[id.Pos()]:
									out = append(out, finding{p.fset.Position(id.Pos()), name, "is set only by its defaults: make it a constant"})
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// unchecked reports whether the package at module-relative path is a user
// only: the root facade, which is the public API, or frozen code.
func unchecked(path string) bool {
	return path == "" || path == frozen || strings.HasPrefix(path, frozen+"/")
}

func allowedName(name string) bool {
	for {
		if _, ok := allowed[name]; ok {
			return true
		}
		i := strings.LastIndexByte(name, '.')
		if i < 0 || !strings.Contains(name[:i], ".") {
			return false
		}
		name = name[:i]
	}
}

// funcName is Name for a function and Type.Name for a method.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return t.(*ast.Ident).Name + "." + d.Name.Name
}

func (a *analysis) mark(pos token.Pos) {
	if a.live[pos] {
		return
	}
	a.live[pos] = true
	if _, ok := a.funcs[pos]; ok {
		a.queue = append(a.queue, pos)
	}
}

// inspect marks what n uses and records the fields it writes; fn is the
// function n belongs to, nil for a package-level declaration. A field named
// only as a store target is written, not used: see storeTargets.
func (a *analysis) inspect(q *pkg, n ast.Node, fn *ast.FuncDecl) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			switch obj := q.info.Uses[n].(type) {
			case *types.Func:
				a.mark(obj.Origin().Pos())
			case *types.Var:
				switch {
				case !obj.IsField():
				case a.stores[n]:
					a.stored[obj.Origin().Pos()] = true
				default:
					a.mark(obj.Origin().Pos())
				}
			}
		case *ast.CompositeLit:
			t := q.info.TypeOf(n)
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					a.write(q, fn, q.info.Uses[kv.Key.(*ast.Ident)], kv.Value)
				} else {
					a.mark(st.Field(i).Pos())
					a.write(q, fn, st.Field(i), e)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				a.writeTo(q, fn, lhs, rhs)
				a.storeTargets(lhs)
			}
		case *ast.IncDecStmt:
			a.writeTo(q, fn, n.X, nil)
			a.storeTargets(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				a.writeTo(q, fn, n.X, nil)
			}
		}
		return true
	})
}

// storeTargets records the field names along the selector chain a store
// goes to: in x.f.g = v and x.f.g++, both f and g are stored into and
// neither is read for its value. ast.Inspect visits a statement before its
// operands, so the names are recorded before inspect meets them.
func (a *analysis) storeTargets(lhs ast.Expr) {
	for {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			return
		}
		a.stores[sel.Sel] = true
		lhs = sel.X
	}
}

func (a *analysis) writeTo(q *pkg, fn *ast.FuncDecl, lhs, rhs ast.Expr) {
	if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
		a.write(q, fn, q.info.Uses[sel.Sel], rhs)
	}
}

// write records a write of value to obj when obj is a field. A package's
// Default… functions and withDefaults do not count, unless the value
// copies one of their parameters.
func (a *analysis) write(q *pkg, fn *ast.FuncDecl, obj types.Object, value ast.Expr) {
	field, ok := obj.(*types.Var)
	if !ok || !field.IsField() {
		return
	}
	if fn != nil && field.Pkg() == q.types && (strings.HasPrefix(fn.Name.Name, "Default") || fn.Name.Name == "withDefaults") {
		params := map[types.Object]bool{}
		for _, f := range fn.Type.Params.List {
			for _, id := range f.Names {
				params[q.info.Defs[id]] = true
			}
		}
		copied := false
		if value != nil {
			ast.Inspect(value, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && params[q.info.Uses[id]] {
					copied = true
				}
				return !copied
			})
		}
		if !copied {
			return
		}
	}
	a.written[field.Origin().Pos()] = true
}

// markInterfaceMethods marks, for every named type of the program, each
// method through which the type (or its pointer) implements an interface
// declared in the program, in a package it imports, or as a literal type.
// Methods promoted from an embedded type are marked where they are declared.
func (a *analysis) markInterfaceMethods(all []*pkg) {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var scan func(*types.Package)
	scan = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			scan(imp)
		}
	}
	for _, q := range all {
		scan(q.types)
		for _, tv := range q.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	// A type argument satisfies its type parameter's constraint: the
	// compiler checked that at the instantiation.
	for _, q := range all {
		for id, inst := range q.info.Instances {
			var tparams *types.TypeParamList
			switch obj := q.info.Uses[id].(type) {
			case *types.Func:
				tparams = obj.Type().(*types.Signature).TypeParams()
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok {
					tparams = named.TypeParams()
				}
			}
			for i := 0; i < tparams.Len(); i++ {
				it := tparams.At(i).Constraint().Underlying().(*types.Interface)
				ms := types.NewMethodSet(inst.TypeArgs.At(i))
				for j := 0; j < it.NumMethods(); j++ {
					if sel := ms.Lookup(it.Method(j).Pkg(), it.Method(j).Name()); sel != nil {
						a.mark(sel.Obj().(*types.Func).Origin().Pos())
					}
				}
			}
		}
		scope := q.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			ms := types.NewMethodSet(ptr)
			for _, it := range ifaces {
				if ms.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					a.mark(ms.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func).Origin().Pos())
				}
			}
		}
	}
}

// TestTreeIsSmall is the check itself: every declaration of the module's
// non-test code is used, every field is read, and every Config or Spec field
// has a writer.
func TestTreeIsSmall(t *testing.T) {
	p, err := load("../..", "rebudget")
	if err != nil {
		t.Fatal(err)
	}
	// A loader that skips a package would pass by checking nothing: count
	// the directories holding non-test Go files without go/build.
	dirs := map[string]bool{}
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "../.." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.pkgs) < len(dirs) || len(p.examples) == 0 {
		t.Fatalf("loaded %d packages and %d Example sets; the tree has %d package directories", len(p.pkgs), len(p.examples), len(dirs))
	}
	for _, f := range p.findings() {
		t.Error(f)
	}
}

// TestFixtureFindings holds the analyser to one case of each kind in
// testdata/fixture: what it must report and what it must not.
func TestFixtureFindings(t *testing.T) {
	p, err := load("testdata/fixture", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range p.findings() {
		got = append(got, f.name+" "+f.why)
	}
	want := []string{
		"p.Config.Fixed is set only by its defaults: make it a constant",
		"p.Spec.Depth is set only by its defaults: make it a constant",
		"p.dead has no non-test use",
		"p.onlyFromDead has no non-test use",
		"p.onlyTested has no non-test use",
		"p.unusedField.n has no non-test use",
		"p.tally.counts is written but never read",
		"p.tally.hits is written but never read",
		"p.counts.calls is written but never read",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
