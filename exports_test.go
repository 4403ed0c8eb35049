package cryowire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// testOnlyAllowed lists the exported internal functions and methods that
// no production code calls but that stay, keyed "pkg.Func" or
// "pkg.Type.Method", each with the reason it stays. The reason repeats
// the keep comment on the declaration.
var testOnlyAllowed = map[string]string{
	"circuit.SimulateWireDelay":     `it pins EXPERIMENTS.md's fig10 "link model vs transient-sim error" row`,
	"dse.OpenJournalWriter":         "bench/definition_test.go records journal entries through it",
	"dse.JournalWriter.Record":      "bench/definition_test.go records journal entries through it",
	"phys.MOSFET.TransistorSpeedup": `it pins EXPERIMENTS.md's "transistor speed-up @77 K, nominal voltage" row`,
	"phys.ResistanceRatio":          `it pins EXPERIMENTS.md's fig5 "long local/semi-global wire speed-up @77 K (no repeaters)" rows`,
	"sim.LaneError.Unwrap":          "errors.Is and errors.As call it",
}

// TestNoTestOnlyExports fails for an exported func or method declared
// under internal/ that no non-test Go file in the module or in bench/
// reaches. Such a function is production code that only tests reach:
// delete it, move it into a _test.go file, or add it to
// testOnlyAllowed with its reason.
func TestNoTestOnlyExports(t *testing.T) {
	start := time.Now()
	r, err := loadProduction([]string{".", "bench"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.decls) == 0 {
		t.Fatal("no exported internal functions found; is the test running from the module root?")
	}
	for _, d := range r.unreached() {
		if _, ok := testOnlyAllowed[d.key]; !ok {
			t.Errorf("%s is exported but only tests reach it", d)
		}
	}
	seen := map[string]bool{}
	for _, d := range r.decls {
		seen[d.key] = true
	}
	for key, reason := range testOnlyAllowed {
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
		if !seen[key] {
			t.Errorf("allowlist entry %s names no exported internal function", key)
		}
	}
	t.Logf("checked %d exported internal functions in %v", len(r.decls), time.Since(start).Round(time.Millisecond))
}

// TestExportCheckQualifiesNames plants test-only methods whose names
// production uses elsewhere: a field of the same name (how
// surrogate.Model.Len hid), a method of the same name on another type
// called from the planted method's own body (how
// coherence.Snoop.CheckInvariants hid), and a recursive call. A check
// by bare name lets all of them through; the check by package and
// receiver must flag exactly these, and count a method called through
// an interface it implements as reached.
func TestExportCheckQualifiesNames(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module planted\n\ngo 1.22\n",
		"internal/a/a.go": `package a

type Box struct{ Len int }

type Model struct{ xs []int }

func (m *Model) Fit(x int)    { m.xs = append(m.xs, x) }
func (m *Model) Len() int     { return len(m.xs) }
func (m *Model) Name() string { return "model" }
func (m *Model) Label() string { return "" }
func (m *Model) String() string { return "model" }

type Directory struct{}

func (Directory) CheckInvariants() error { return nil }

type Snoop struct{ d Directory }

func (s Snoop) CheckInvariants() error { return s.d.CheckInvariants() }

type Named interface{ Name() string }

type Labeled interface{ Label() string }

func Walk(n int) int {
	if n == 0 {
		return 0
	}
	return Walk(n - 1)
}
`,
		"main.go": `package main

import (
	"fmt"

	"planted/internal/a"
)

func main() {
	m := &a.Model{}
	m.Fit(a.Box{Len: 2}.Len)
	var n a.Named = m
	fmt.Println(n.Name(), a.Directory{}.CheckInvariants())
}
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestPlanted(t *testing.T) {
	m := &Model{}
	_, _, _ = m.Len(), m.Label(), Walk(3)
	_ = Snoop{}.CheckInvariants()
}
`,
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := loadProduction([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range r.unreached() {
		got = append(got, d.key)
	}
	want := "a.Model.Label a.Model.Len a.Snoop.CheckInvariants a.Walk"
	if strings.Join(got, " ") != want {
		t.Errorf("unreached = %v, want [%s]", got, want)
	}
}

// exportDecl is one exported func or method declared under internal/.
type exportDecl struct {
	key string // "pkg.Func" or "pkg.Type.Method"
	fn  *types.Func
	pos token.Position
}

func (d exportDecl) String() string { return d.pos.String() + ": " + d.key }

// production is the type-checked non-test Go of one or more modules in
// one type universe: every module package is checked from source once,
// and the standard library is read from the compiler's export data.
type production struct {
	decls []exportDecl
	// used holds every function and method that production code
	// references outside the function's own declaration, generic
	// methods by their origin.
	used map[*types.Func]bool
	// std holds the standard-library packages production imports.
	std map[*types.Package]bool
}

// listedPkg is the part of `go list -json` this check reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
}

// loadProduction lists each module directory's packages and their
// dependencies with `go list -export -deps`, then type-checks every
// non-standard package from source in dependency order. All modules
// share one importer, so a package that several of them import is one
// *types.Package and its objects compare by identity.
func loadProduction(moduleDirs []string) (*production, error) {
	exports := map[string]string{}
	var pkgs []listedPkg
	listed := map[string]bool{}
	for _, dir := range moduleDirs {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p listedPkg
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if p.Standard {
				exports[p.ImportPath] = p.Export
				continue
			}
			if !listed[p.ImportPath] {
				listed[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	r := &production{used: map[*types.Func]bool{}, std: map[*types.Package]bool{}}
	for _, p := range pkgs {
		if len(p.GoFiles) == 0 {
			continue // a package of test files only
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for _, dep := range pkg.Imports() {
			if checked[dep.Path()] == nil {
				r.std[dep] = true
			}
		}
		r.add(fset, p.ImportPath, files, info)
	}
	return r, nil
}

// add records one package's exported internal declarations and every
// function it references.
func (r *production) add(fset *token.FileSet, path string, files []*ast.File, info *types.Info) {
	internal := strings.Contains(path+"/", "/internal/")
	type span struct{ pos, end token.Pos }
	body := map[*types.Func]span{}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn := info.Defs[fd.Name].(*types.Func)
			body[fn] = span{fd.Pos(), fd.End()}
			if !internal || !fd.Name.IsExported() {
				continue
			}
			key := fn.Pkg().Name() + "." + fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				key = fn.Pkg().Name() + "." + recvName(recv.Type()) + "." + fn.Name()
			}
			r.decls = append(r.decls, exportDecl{key, fn, fset.Position(fd.Pos())})
		}
	}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if s, ok := body[fn]; ok && s.pos <= id.Pos() && id.Pos() < s.end {
			continue // a recursive call reaches nothing new
		}
		r.used[fn] = true
	}
}

// unreached returns the exported internal declarations production does
// not reach, sorted by key. A method is reached when production calls
// it directly, or calls an interface method of the same name that its
// receiver type implements. The methods of every interface that an
// imported standard-library package declares count as called, since
// that library calls them: fmt calls String through fmt.Stringer.
func (r *production) unreached() []exportDecl {
	var ifaceMethods []*types.Func
	for fn := range r.used {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceMethods = append(ifaceMethods, fn)
		}
	}
	for pkg := range r.std {
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok && obj.Exported() {
				for i := 0; i < iface.NumMethods(); i++ {
					ifaceMethods = append(ifaceMethods, iface.Method(i))
				}
			}
		}
	}
	var out []exportDecl
	for _, d := range r.decls {
		if !r.used[d.fn] && !reachedThroughInterface(d.fn, ifaceMethods) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// reachedThroughInterface reports whether the concrete method fn
// implements one of the called interface methods.
func reachedThroughInterface(fn *types.Func, ifaceMethods []*types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || types.IsInterface(recv.Type()) {
		return false
	}
	T := recv.Type()
	if p, ok := T.(*types.Pointer); ok {
		T = p.Elem()
	}
	for _, im := range ifaceMethods {
		if im.Name() != fn.Name() {
			continue
		}
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(T, iface) || types.Implements(types.NewPointer(T), iface) {
			return true
		}
	}
	return false
}

// recvName returns the base type name of a method receiver.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "?"
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
