package slade

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// keptUncalled names each declaration that no program of either module
// reaches but that stays anyway, with why. ARCHITECTURE's rule is that a
// library capability stays only while a paper figure or table, a scenario
// cell, an example or ROADMAP item 6's oracle uses it; besides those, a
// test helper stays when other packages' tests import it. A key is the
// package path without "repro/internal/" (the root package is "slade")
// and the name, a method's as Type.Method. An entry is a root: what it
// uses is reached through it. An entry that names a reached declaration,
// or none, fails TestReach, so the list cannot outlive what it excuses.
var keptUncalled = map[string]string{
	// Godoc examples.
	"slade.BuildOPQ":           "ExampleBuildOPQ",
	"slade.Theta":              "ExampleTheta",
	"slade.ThresholdFromTheta": "ExampleTheta",

	// Paper tables, timed by bench_test.go.
	"core.Plan.Reliability": "Table 1: BenchmarkTable1Reliability",
	"hetero.BuildSet":       "Tables 4–5: BenchmarkTables4And5BuildOPQSet",

	// A scenario cell's traffic, replayed outside the lab.
	"scenario.Cell.Instances": "scenario cells: service's TestShortMatrixConcurrentParity replays the short matrix",

	// Item 6's oracle, and the references named tests compare against.
	"dp.SolveExactCost":        "item 6's exact oracle: TestApproximationsNeverBeatExact, TestCorollary1AgainstExact",
	"dp.RodCutting":            "item 6: the relaxed variant's exact solve, TestRodCuttingOptimal",
	"dp.RodCuttingCost":        "item 6: TestRodCuttingMatchesBruteForce",
	"dp.SolveUKP":              "item 6: Theorem 1's knapsack, TestSolveUKPKnown",
	"dp.UKPDecision":           "item 6: Theorem 1's reduction, TestTheorem1Reduction",
	"dp.ReduceUKPToSLADE":      "item 6: Theorem 1's reduction, TestTheorem1Reduction",
	"greedy.SolveNaive":        "Algorithm 1 as written: TestSolveMatchesNaive",
	"baseline.SolveFullCIP":    "the exact CIP: TestFullCIPLowerBoundVsOptimal",
	"baseline.LPLowerBound":    "the CIP's LP bound: TestLPLowerBoundSandwich",
	"opq.ApproxRatioBound":     "Theorem 2: TestTheorem2Bound",
	"hetero.ApproxRatioBound":  "Theorem 3: TestTheorem3Bound",
	"opq.Queue.Validate":       "Definition 4: TestQueueInvariantsRandom",
	"scenario.GenMenu":         "FuzzScenarioCostParity",
	"scenario.GenArrivalSizes": "FuzzScenarioCostParity",
	"scenario.GenThreshold":    "FuzzScenarioCostParity",

	// Test helpers other packages' tests import.
	"core.MustHomogeneous":                   "test helper",
	"core.MustHeterogeneous":                 "test helper",
	"core.Plan.MustCost":                     "test helper",
	"core.SolverFunc":                        "test helper: service's cancel and SSE tests register slow solvers",
	"store.NewMem":                           "test helper: service's replay and metrics tests",
	"faultinject.New":                        "test helper: platform's chaos tests",
	"faultinject.Injector.Set":               "test helper: platform's chaos tests",
	"platform/testplatform.Server.Kill":      "test helper: TestPlatformDownMidRunDegrades",
	"platform/testplatform.Server.KillAfter": "test helper: TestRemoteRunDegradesWhenPlatformDies",
	"platform/testplatform.Server.Revive":    "test helper: TestPlatformDownFromStartDegradesEmpty",
	"platform/testplatform.Server.Commits":   "test helper: TestPlatformChaosSpendParity",
}

// TestReach type-checks every non-test file of both modules (repro and
// repro/benchmark) and fails on any package-level func, method, type, var
// or const that the programs — the main packages under cmd/, examples/,
// scripts/ and benchmark/ — do not reach and keptUncalled does not keep.
// Reach is iterated to a fixpoint from main and the init funcs, so a name
// that only other unreached names use is unreached too. A method is also
// reached when its receiver type is reached and implements an interface
// that is reached (every standard-library interface is) and the method
// belongs to that interface: core.Solver's Name and Solve, json.Marshaler,
// heap.Interface and the like. staticcheck's U1000 already reports
// unexported names; this covers the exported ones and the facade.
func TestReach(t *testing.T) {
	var listed []listedPackage
	for _, dir := range []string{".", "benchmark"} {
		listed = append(listed, goList(t, dir)...)
	}
	prog := loadProgram(t, listed)
	byKey := map[string]*decl{}
	for _, d := range prog.decls {
		byKey[d.key] = d
	}
	bare := prog.reach(nil)
	kept := prog.reach(keptUncalled)
	for _, d := range prog.decls {
		if !kept[d] {
			t.Errorf("%s: %s is reached by no program", prog.fset.Position(d.pos), d.key)
		}
	}
	for key := range keptUncalled {
		if d := byKey[key]; d == nil || bare[d] {
			t.Errorf("keptUncalled[%q]: no unreached declaration has this name; delete the entry", key)
		}
	}
	t.Logf("%d declarations: %d reached from the programs, %d more through keptUncalled's %d entries",
		len(prog.decls), len(bare), len(kept)-len(bare), len(keptUncalled))
}

// TestImportLayering pins the import layering between internal packages
// that holds today; a new edge fails it. Some edges need no rule: an
// opq → service import (the example ROADMAP item 20 gives) is a cycle,
// since service imports opq, and the compiler already rejects it.
func TestImportLayering(t *testing.T) {
	const in = "repro/internal/"
	leaves := map[string]bool{"core": true, "lp": true, "crowdsim": true, "distgen": true, "store": true, "obs": true}
	algorithms := map[string]bool{"opq": true, "hetero": true, "greedy": true, "dp": true, "baseline": true, "stream": true}
	serving := map[string]bool{"service": true, "platform": true, "store": true, "obs": true}
	serviceImporters := map[string]bool{"scenario": true, "cluster/testcluster": true}

	for _, p := range goList(t, ".") {
		name, ok := strings.CutPrefix(p.ImportPath, in)
		if !ok {
			continue
		}
		for _, dep := range p.Deps {
			d, ok := strings.CutPrefix(dep, in)
			switch {
			case !ok:
			case leaves[name]:
				t.Errorf("%s imports %s: it must import no other internal package", p.ImportPath, dep)
			case algorithms[name] && serving[d]:
				t.Errorf("%s imports %s: a paper algorithm imports no serving package", p.ImportPath, dep)
			}
		}
		for _, imp := range p.Imports {
			if imp == in+"service" && !serviceImporters[name] {
				t.Errorf("%s imports %s: only scenario and cluster/testcluster may", p.ImportPath, imp)
			}
		}
	}
}

// TestManagerFilesImportNoHTTP pins internal/service's split between its
// subsystems and the HTTP edge: the files of the job and stream managers,
// their persistence, events and run jobs hold no handler or wire type, so
// they import no net/http. The handlers live in api.go.
func TestManagerFilesImportNoHTTP(t *testing.T) {
	for _, name := range []string{"jobs.go", "persist.go", "streams.go", "events.go", "run.go"} {
		path := filepath.Join("internal", "service", name)
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.HasPrefix(imp.Path.Value, `"net/http`) {
				t.Errorf("%s imports %s: the HTTP edge belongs in api.go", path, imp.Path.Value)
			}
		}
	}
}

// listedPackage is the part of `go list -json` these tests read.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles, Imports, Deps  []string
	Standard                bool
}

// goList lists the packages of the module in dir with their dependencies,
// building export data for the standard library's.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// decl is one package-level declaration (a func, a method, or one spec of
// a type, var or const block): its name, and the objects its source
// refers to.
type decl struct {
	key  string
	pos  token.Pos
	refs []types.Object
	root bool // main or init
}

type program struct {
	fset   *token.FileSet
	decls  []*decl
	byObj  map[types.Object]*decl
	named  []*types.TypeName                    // repro's non-interface named types
	ifaces map[*types.Interface]*types.TypeName // nil TypeName: always reached
}

// loadProgram type-checks the repro packages from source, in dependency
// order, and imports the standard library from export data.
func loadProgram(t *testing.T, listed []listedPackage) *program {
	t.Helper()
	prog := &program{
		fset:   token.NewFileSet(),
		byObj:  map[types.Object]*decl{},
		ifaces: map[*types.Interface]*types.TypeName{},
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	gc := importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	source := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := source[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})}
	for _, p := range listed {
		if p.Standard || source[p.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(prog.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := conf.Check(p.ImportPath, prog.fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		source[p.ImportPath] = pkg
		for _, f := range files {
			prog.addFile(pkg, f, info)
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				if _, named := prog.ifaces[it]; !named {
					prog.ifaces[it] = nil // an interface literal
				}
			}
		}
	}
	prog.addStdInterfaces(source)
	return prog
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addFile records the file's package-level declarations.
func (prog *program) addFile(pkg *types.Package, f *ast.File, info *types.Info) {
	add := func(node ast.Node, root bool, idents ...*ast.Ident) {
		d := &decl{pos: idents[0].Pos(), root: root}
		for _, id := range idents {
			obj := info.Defs[id]
			if id.Name == "_" || root {
				continue
			}
			if d.key == "" {
				d.key = declKey(obj)
			}
			prog.byObj[obj] = d
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					prog.ifaces[it] = tn
				} else {
					prog.named = append(prog.named, tn)
				}
			}
		}
		if d.key == "" && !root {
			return
		}
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := origin(info.Uses[id]); obj != nil && obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path(), "repro") {
					d.refs = append(d.refs, obj)
				}
			}
			return true
		})
		prog.decls = append(prog.decls, d)
	}
	for _, fd := range f.Decls {
		switch fd := fd.(type) {
		case *ast.FuncDecl:
			root := fd.Recv == nil && (fd.Name.Name == "init" || pkg.Name() == "main" && fd.Name.Name == "main")
			add(fd, root, fd.Name)
		case *ast.GenDecl:
			for _, spec := range fd.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s, false, s.Name)
				case *ast.ValueSpec:
					add(s, false, s.Names...)
				}
			}
		}
	}
}

// addStdInterfaces counts every interface the standard library's imported
// packages declare, and error, as reached: the library calls through them
// (json.Marshaler, fmt.Stringer, heap.Interface, io.Writer, ...) without
// the program naming them.
func (prog *program) addStdInterfaces(source map[string]*types.Package) {
	prog.ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = nil
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if source[p.Path()] == nil {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						prog.ifaces[it] = nil
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range source {
		walk(p)
	}
}

// reach returns the declarations reached from main, the init funcs and
// the declarations named in extra.
func (prog *program) reach(extra map[string]string) map[*decl]bool {
	live := map[*decl]bool{}
	var work []*decl
	mark := func(d *decl) {
		if d != nil && !live[d] {
			live[d] = true
			work = append(work, d)
		}
	}
	for _, d := range prog.decls {
		if _, ok := extra[d.key]; ok || d.root {
			mark(d)
		}
	}
	for len(work) > 0 {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, obj := range d.refs {
				mark(prog.byObj[obj])
			}
		}
		// A reached interface reaches the methods that implement it on
		// every reached type.
		for it, tn := range prog.ifaces {
			if tn != nil && !live[prog.byObj[tn]] {
				continue
			}
			for _, named := range prog.named {
				if !live[prog.byObj[named]] || !types.Implements(types.NewPointer(named.Type()), it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(named.Type(), true, m.Pkg(), m.Name()); obj != nil {
						mark(prog.byObj[origin(obj)])
					}
				}
			}
		}
	}
	return live
}

// origin maps an instantiated generic func or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// declKey names obj as keptUncalled's keys do.
func declKey(obj types.Object) string {
	path := obj.Pkg().Path()
	switch {
	case path == "repro":
		path = "slade"
	case strings.HasPrefix(path, "repro/internal/"):
		path = strings.TrimPrefix(path, "repro/internal/")
	default:
		path = strings.TrimPrefix(path, "repro/")
	}
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			name = rt.(*types.Named).Obj().Name() + "." + name
		}
	}
	return path + "." + name
}
