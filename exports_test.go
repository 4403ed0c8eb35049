package cryowire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported internal functions and methods that
// no production code calls but that stay, keyed "pkg.Func" or
// "pkg.Type.Method", each with the reason it stays. The reason repeats
// the keep comment on the declaration.
var testOnlyAllowed = map[string]string{
	"cache.Cache.MissRate":          cacheReason,
	"cache.Cache.Accesses":          cacheReason,
	"cache.CalibrateStream":         cacheReason,
	"circuit.SimulateWireDelay":     `it pins EXPERIMENTS.md's fig10 "link model vs transient-sim error" row`,
	"dse.OpenJournalWriter":         "bench/definition_test.go records journal entries through it",
	"phys.MOSFET.TransistorSpeedup": `it pins EXPERIMENTS.md's "transistor speed-up @77 K, nominal voltage" row`,
	"phys.ResistanceRatio":          `it pins EXPERIMENTS.md's fig5 "long local/semi-global wire speed-up @77 K (no repeaters)" rows`,
	"sim.LaneError.Unwrap":          "errors.Is and errors.As call it",
}

const cacheReason = "internal/cache is DESIGN.md substitution #4's realizability check; no production code imports it"

// TestNoTestOnlyExports fails for an exported func or method declared
// under internal/ whose name no non-test Go file in the module or in
// bench/ references outside its own declaration. Such a function is
// production code that only tests reach: delete it, move it into a
// _test.go file, or add it to testOnlyAllowed with its reason. The
// check is by name, so a used name shadows an unused one of the same
// name in another package.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key string
		pos token.Position
	}
	var decls []decl
	used := map[string]bool{}
	parse := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		declared := map[*ast.Ident]bool{}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !internal || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				key = f.Name.Name + "." + recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fset.Position(fn.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	goFile := func(name string) bool {
		return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
	}
	// The root package is "." without its subdirectories.
	for _, root := range []string{".", "internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != root && (root == "." || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if !d.IsDir() && goFile(d.Name()) {
				parse(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported internal functions found; is the test running from the module root?")
	}

	seen := map[string]bool{}
	var unused []string
	for _, d := range decls {
		seen[d.key] = true
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if used[name] {
			continue
		}
		if _, ok := testOnlyAllowed[d.key]; ok {
			continue
		}
		unused = append(unused, d.pos.String()+": "+d.key)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests reach it", u)
	}
	for key, reason := range testOnlyAllowed {
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
		if !seen[key] {
			t.Errorf("allowlist entry %s names no exported internal function", key)
		}
	}
}

// recvTypeName returns the base type name of a method receiver.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
