// Command mutate is a minimal mutation tester for the NoC and simulator
// cycle loops. It writes one-operator mutants of a fixed set of files
// (a comparison negated, an integer constant moved by one, a statement
// dropped) and runs each through `go test -overlay`, so the tree on disk
// is never written. Each mutant runs its package's tests and, if they
// pass, the root golden tests, which include the full-length walk pins.
// A mutant is killed when a test fails or the run times out, survives
// when every test passes, and is invalid when it does not compile.
//
// Run it from the module root on a tree whose tests pass:
//
//	go run ./scripts/mutate
//
// The mutant count is a constant, spread evenly over the target files,
// so scores from different trees count the same number of mutants.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// targets are the mutated files and the package whose tests run first.
var targets = []struct{ file, pkg string }{
	{"internal/noc/router.go", "./internal/noc"},
	{"internal/noc/bus.go", "./internal/noc"},
	{"internal/noc/hybrid.go", "./internal/noc"},
	{"internal/noc/loadlat.go", "./internal/noc"},
	{"internal/sim/engine.go", "./internal/sim"},
}

const (
	// mutants is how many mutants a run tests.
	mutants = 30
	// timeout bounds one go test run; a run that times out kills its
	// mutant.
	timeout = 2 * time.Minute
)

// goldenRun selects the root golden tests, run when a mutant survives
// its package's tests.
const goldenRun = "^TestGolden"

// flips negates each comparison operator.
var flips = map[token.Token]token.Token{
	token.LSS: token.GEQ, token.GEQ: token.LSS,
	token.GTR: token.LEQ, token.LEQ: token.GTR,
	token.EQL: token.NEQ, token.NEQ: token.EQL,
}

// site is one mutation: replace src[off:end] with repl.
type site struct {
	off, end int
	repl     string
	what     string
}

func main() {
	tmp, err := os.MkdirTemp("", "mutate")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	var killed, survived, invalid int
	id := 0
	for ti, tg := range targets {
		src, err := os.ReadFile(tg.file)
		if err != nil {
			fatal(err)
		}
		sites, err := enumerate(tg.file, src)
		if err != nil {
			fatal(err)
		}
		per := mutants / len(targets)
		if ti < mutants%len(targets) {
			per++
		}
		for _, s := range pick(sites, per) {
			id++
			mutant := string(src[:s.off]) + s.repl + string(src[s.end:])
			line := 1 + bytes.Count(src[:s.off], []byte("\n"))
			where := fmt.Sprintf("%s:%d %s", tg.file, line, s.what)
			verdict, by, err := run(tmp, id, tg.file, tg.pkg, mutant)
			if err != nil {
				fatal(err)
			}
			switch verdict {
			case "killed":
				killed++
				fmt.Printf("killed    %s  by %s\n", where, by)
			case "survived":
				survived++
				fmt.Printf("SURVIVED  %s\n", where)
			default:
				invalid++
				fmt.Printf("invalid   %s  (does not compile)\n", where)
			}
		}
	}
	score := 0.0
	if killed+survived > 0 {
		score = float64(killed) / float64(killed+survived)
	}
	fmt.Printf("\n%d killed, %d survived, %d invalid: score %.2f (%d/%d)\n", killed, survived, invalid, score, killed, killed+survived)
}

// enumerate lists file's mutation sites in source order.
func enumerate(file string, src []byte) ([]site, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, 0)
	if err != nil {
		return nil, err
	}
	off := func(p token.Pos) int { return fset.Position(p).Offset }
	var sites []site
	lits := 0
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			if to, ok := flips[x.Op]; ok {
				o := off(x.OpPos)
				sites = append(sites, site{o, o + len(x.Op.String()), to.String(), fmt.Sprintf("%s -> %s", x.Op, to)})
			}
		case *ast.BasicLit:
			if x.Kind != token.INT {
				break
			}
			v, err := strconv.ParseInt(x.Value, 0, 64)
			if err != nil {
				break
			}
			// Alternate +1 and -1 over the literals.
			d := int64(1 - 2*(lits%2))
			lits++
			sites = append(sites, site{off(x.Pos()), off(x.End()), strconv.FormatInt(v+d, 10), fmt.Sprintf("%s -> %d", x.Value, v+d)})
		case *ast.BlockStmt:
			for _, st := range x.List {
				if drop, ok := droppable(st); ok {
					sites = append(sites, site{off(st.Pos()), off(st.End()), "", "drop " + drop})
				}
			}
		}
		return true
	})
	// A block's statements are listed before the expressions in them,
	// so sort into source order.
	sort.SliceStable(sites, func(i, j int) bool { return sites[i].off < sites[j].off })
	return sites, nil
}

// droppable reports whether st can be deleted and still compile, most
// of the time, and names it: an expression, ++/-- or plain assignment.
func droppable(st ast.Stmt) (string, bool) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		return "call", true
	case *ast.IncDecStmt:
		return s.Tok.String(), true
	case *ast.AssignStmt:
		if s.Tok != token.DEFINE {
			return "assignment " + s.Tok.String(), true
		}
	}
	return "", false
}

// pick returns k sites spread evenly over sites.
func pick(sites []site, k int) []site {
	if k >= len(sites) {
		return sites
	}
	out := make([]site, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, sites[(2*i+1)*len(sites)/(2*k)])
	}
	return out
}

var failRE = regexp.MustCompile(`--- FAIL: (\S+)`)

// run tests one mutant: its package's tests, then the root golden
// tests. It returns the verdict and, for a killed mutant, what killed
// it.
func run(tmp string, id int, file, pkg, mutant string) (verdict, by string, err error) {
	abs, err := filepath.Abs(file)
	if err != nil {
		return "", "", err
	}
	mfile := filepath.Join(tmp, fmt.Sprintf("m%d.go", id))
	if err := os.WriteFile(mfile, []byte(mutant), 0o644); err != nil {
		return "", "", err
	}
	ov, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mfile}})
	if err != nil {
		return "", "", err
	}
	overlay := filepath.Join(tmp, fmt.Sprintf("m%d.json", id))
	if err := os.WriteFile(overlay, ov, 0o644); err != nil {
		return "", "", err
	}
	for _, args := range [][]string{{pkg}, {"-run", goldenRun, "."}} {
		cmd := exec.Command("go", append([]string{"test", "-overlay", overlay, "-count=1", "-failfast", "-timeout", timeout.String()}, args...)...)
		b, runErr := cmd.CombinedOutput()
		out := string(b)
		if runErr == nil {
			continue
		}
		switch {
		case strings.Contains(out, "[build failed]") || strings.Contains(out, "[setup failed]"):
			return "invalid", "", nil
		case strings.Contains(out, "panic: test timed out"):
			return "killed", "timeout", nil
		}
		if m := failRE.FindStringSubmatch(out); m != nil {
			return "killed", m[1], nil
		}
		return "killed", "a failing run (" + strings.Join(args, " ") + ")", nil
	}
	return "survived", "", nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mutate:", err)
	os.Exit(1)
}
