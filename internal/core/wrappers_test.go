package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestRoundHookersAreMarketConfigurers scans the module's non-test sources:
// every allocator wrapper that forwards WithRoundHook must forward
// WithMarketConfig too. A wrapper with only the first passes the simulator's
// fault hook through but silently drops its market configuration —
// including the "fault-injected runs force serial rounds" rule.
func TestRoundHookersAreMarketConfigurers(t *testing.T) {
	methods := map[string]map[string]bool{"WithRoundHook": {}, "WithMarketConfig": {}}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/ is a separate module; dot-directories hold build output.
			if path != root && (d.Name() == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || methods[fn.Name.Name] == nil {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				methods[fn.Name.Name][filepath.Dir(path)+"."+id.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(methods["WithRoundHook"]) == 0 {
		t.Fatal("scan found no RoundHooker at all; the walk is broken")
	}
	for typ := range methods["WithRoundHook"] {
		if !methods["WithMarketConfig"][typ] {
			t.Errorf("%s implements WithRoundHook but not WithMarketConfig", typ)
		}
	}
}
