package obs

// Four gates on one analysis of the module's shipped code: every
// exported identifier has a caller outside the tests
// (TestNoTestOnlyExports), every run counter has a reader outside them
// (TestNoWriteOnlyCounters), every configuration knob has a writer
// outside them (TestNoTestOnlyKnobs), and every Go identifier the docs
// name in backticks exists (TestDocsNameLiveIdentifiers). The analysis is
// standard library only: `go list` finds the packages, go/parser reads
// their non-test files, and go/types checks them in import order with
// the standard library type-checked from source.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// modPkg is one package of the module: its non-test files type-checked,
// and the top-level names its test files declare (tests, fuzz targets,
// helpers), which only the doc gate reads.
type modPkg struct {
	path, dir, name string
	goFiles         []string
	testFiles       []string
	files           []*ast.File // the parsed goFiles
	types           *types.Package
	info            *types.Info
	testNames       map[string]bool
}

// moduleAnalysis is the module type-checked once per test binary.
type moduleAnalysis struct {
	fset *token.FileSet
	pkgs map[string]*modPkg        // by import path
	std  map[string]*types.Package // every standard-library package imported, transitively
}

var analysis struct {
	once sync.Once
	a    *moduleAnalysis
	err  error
}

// analyzeModule loads and type-checks every non-test file of the
// module: the library packages, and as users also cmd/, examples/,
// scripts/ and bench/.
func analyzeModule(t *testing.T) *moduleAnalysis {
	t.Helper()
	analysis.once.Do(func() { analysis.a, analysis.err = loadModule() })
	if analysis.err != nil {
		t.Fatal(analysis.err)
	}
	return analysis.a
}

func loadModule() (*moduleAnalysis, error) {
	root, err := filepath.Abs("../..")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	a := &moduleAnalysis{fset: token.NewFileSet(), pkgs: map[string]*modPkg{}, std: map[string]*types.Package{}}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp struct {
			ImportPath, Dir, Name              string
			GoFiles, TestGoFiles, XTestGoFiles []string
		}
		if err := dec.Decode(&lp); err != nil {
			return nil, err
		}
		a.pkgs[lp.ImportPath] = &modPkg{path: lp.ImportPath, dir: lp.Dir, name: lp.Name,
			goFiles: lp.GoFiles, testFiles: append(lp.TestGoFiles, lp.XTestGoFiles...)}
	}
	// The module has no cgo; checking the standard library without it
	// keeps the source importer from running the cgo tool.
	build.Default.CgoEnabled = false
	imp := &moduleImporter{a: a, std: importer.ForCompiler(a.fset, "source", nil).(types.ImporterFrom)}
	for _, path := range slices.Sorted(maps.Keys(a.pkgs)) {
		if err := imp.check(a.pkgs[path]); err != nil {
			return nil, err
		}
	}
	for _, p := range a.pkgs {
		p.testNames = map[string]bool{}
		for _, name := range p.testFiles {
			f, err := parser.ParseFile(a.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						p.testNames[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							p.testNames[s.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								p.testNames[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return a, nil
}

// moduleImporter hands go/types the module's own checked packages, so
// that a reference from one package resolves to the very object the
// other declared, and the standard library from source.
type moduleImporter struct {
	a   *moduleAnalysis
	std types.ImporterFrom
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := m.a.pkgs[path]; p != nil {
		if err := m.check(p); err != nil {
			return nil, err
		}
		return p.types, nil
	}
	pkg, err := m.std.ImportFrom(path, dir, mode)
	if err != nil {
		return nil, err
	}
	m.addStd(pkg)
	return pkg, nil
}

// addStd records pkg and everything it imports.
func (m *moduleImporter) addStd(pkg *types.Package) {
	if m.a.std[pkg.Path()] != nil {
		return
	}
	m.a.std[pkg.Path()] = pkg
	for _, dep := range pkg.Imports() {
		m.addStd(dep)
	}
}

// check type-checks p once, after the module packages it imports.
func (m *moduleImporter) check(p *modPkg) error {
	if p.types != nil {
		return nil
	}
	var files []*ast.File
	for _, name := range p.goFiles {
		f, err := parser.ParseFile(m.a.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(p.path, m.a.fset, files, p.info)
	if err != nil {
		return fmt.Errorf("type-checking %s: %v", p.path, err)
	}
	p.types, p.files = pkg, files
	return nil
}

// testOnlyAllowed are the exported identifiers that no shipped code
// references but that stay exported, each with its reason. A package
// path stands for every identifier the package declares.
var testOnlyAllowed = map[string]string{
	"hbat/internal/fleet/fleettest":               "test-helper package: the fault battery's rig, shared by the fleet and transport tests",
	"hbat/internal/progen":                        "test-helper package: every workload, their images, and random programs for the differential and fuzz tests",
	"hbat/internal/promtext":                      "test-helper package: the Prometheus text parser the obs and transport tests read /metrics with",
	"hbat/api.Client.Job":                         "a v1 route (GET /v1/jobs/{id}) the client covers for callers outside the module",
	"hbat/api.Client.Workers":                     "a v1 route (GET /v1/workers) the client covers for callers outside the module",
	"hbat/api.Client.RegisterWorker":              "a v1 route (POST /v1/workers) the client covers for callers outside the module",
	"hbat.ErrEngineStarted":                       "a sentinel callers match with errors.Is; returning it is not a reference by name",
	"hbat/internal/report.FigureView.ChartWidth":  "called by name from pageTemplate, which go/types does not see",
	"hbat/internal/tlb.Multilevel.CheckInclusion": "the inclusion oracle the harness tests check every multi-level design with",
}

// TestNoTestOnlyExports: every exported package-level identifier, and
// every exported method, that a non-main package declares outside its
// _test.go files is referenced by some non-test file of the module
// (bench/, cmd/, examples/ and scripts/ count). Methods that satisfy an
// interface of the module or the standard library are callers' through
// that interface and exempt, and so are the methods of an embedded type
// that an embedding type satisfies an interface with. testOnlyAllowed
// names the rest, and an entry nothing needs any more is an error too.
// Code only tests need belongs in the tests, in export_test.go, or in a
// test-helper package.
func TestNoTestOnlyExports(t *testing.T) {
	a := analyzeModule(t)
	used := map[types.Object]bool{}
	for _, p := range a.pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
	}
	ifaces := a.interfaces(t)
	var named []*types.Named
	for _, p := range a.pkgs {
		named = append(named, namedTypes(p.types)...)
	}
	allowed := map[string]bool{}
	var found []string
	report := func(key string, obj types.Object) {
		for _, k := range []string{key, obj.Pkg().Path()} {
			if testOnlyAllowed[k] != "" {
				allowed[k] = true
				return
			}
		}
		found = append(found, fmt.Sprintf("%s: %s", a.fset.Position(obj.Pos()), key))
	}
	for _, p := range a.pkgs {
		if p.name == "main" {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				report(p.path+"."+name, obj)
			}
		}
		for _, n := range namedTypes(p.types) {
			for _, m := range unusedMethods(n, used, named, ifaces) {
				report(p.path+"."+n.Obj().Name()+"."+m.Name(), m)
			}
		}
	}
	slices.Sort(found)
	for _, f := range found {
		t.Errorf("%s is exported but only tests use it: delete it, move it into the tests, or allowlist it with a reason", f)
	}
	for key := range testOnlyAllowed {
		if !allowed[key] {
			t.Errorf("testOnlyAllowed names %s, which is not an exported identifier only tests use: drop the entry", key)
		}
	}
}

// counterStructs are the structs that hold a run's counts.
var counterStructs = []string{"hbat/internal/cpu.Stats", "hbat/internal/tlb.Stats", "hbat/internal/cache.Stats"}

// writeOnlyAllowed are the fields of counterStructs that no shipped
// code reads but that stay, each with the reader that needs them.
var writeOnlyAllowed = map[string]string{}

// TestNoWriteOnlyCounters: every field of counterStructs is read by
// some non-test file of the module. Being assigned, incremented (++,
// +=), keyed in a composite literal or measured (len, cap) is not a
// read, and neither is being the array an element of which is
// written. A counter nothing reads costs the tick an increment and
// answers no question: delete it, or allowlist it in writeOnlyAllowed
// naming its reader; an entry nothing needs any more is an error too.
func TestNoWriteOnlyCounters(t *testing.T) {
	a := analyzeModule(t)
	read := map[types.Object]bool{}
	for _, p := range a.pkgs {
		unread := map[*ast.Ident]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						unread[fieldOf(lhs)] = true
					}
				case *ast.IncDecStmt:
					unread[fieldOf(n.X)] = true
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						unread[id] = true
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) == 1 {
						if _, ok := p.info.Uses[id].(*types.Builtin); ok && (id.Name == "len" || id.Name == "cap") {
							unread[fieldOf(n.Args[0])] = true
						}
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !unread[id] {
				read[v] = true
			}
		}
	}
	allowed := map[string]bool{}
	for _, name := range counterStructs {
		i := strings.LastIndex(name, ".")
		st := a.pkgs[name[:i]].types.Scope().Lookup(name[i+1:]).Type().Underlying().(*types.Struct)
		for f := range st.Fields() {
			key := name + "." + f.Name()
			switch {
			case read[f]:
			case writeOnlyAllowed[key] != "":
				allowed[key] = true
			default:
				t.Errorf("%s: %s is counted but no shipped code reads it: delete it, or allowlist it naming its reader",
					a.fset.Position(f.Pos()), key)
			}
		}
	}
	for key := range writeOnlyAllowed {
		if !allowed[key] {
			t.Errorf("writeOnlyAllowed names %s, which is not a counter only tests read: drop the entry", key)
		}
	}
}

// knobAllowed are the exported fields of configuration structs that no
// shipped code sets but that stay, each with its reason.
var knobAllowed = map[string]string{
	"hbat/internal/fleet.Config.Client": "test seam: the fault battery's api.Client over a fault-injecting transport",
	"hbat/api.CommonOptions.FFwdEngine": "a wire field under api's append-only rule: older clients still send it, and it is ignored",
	"hbat.Options.VirtualCache":         "facade option for callers outside the module; hbatd reaches the same run through api.SimOptions",
	"hbat.Options.ContextSwitchEvery":   "facade option for callers outside the module; hbatd reaches the same run through api.SimOptions",
	"hbat.ExperimentOptions.Workloads":  "facade option for callers outside the module; hbatd grids restrict workloads through api.Grid",
	"hbat.ExperimentOptions.Designs":    "facade option for callers outside the module; hbatd grids restrict designs through api.Grid",
}

// isKnobStruct reports whether a struct type called name holds knobs:
// its name ends in Config or Options.
func isKnobStruct(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
}

// TestNoTestOnlyKnobs: every exported field of every struct type whose
// name ends in Config or Options, in a non-main package, is set by
// some non-test file of the module outside the test-helper packages
// (bench/, cmd/, examples/ and scripts/ count). Being assigned,
// incremented (++, +=), keyed or placed in a composite literal, or
// having its address taken is a write; a write to x.f.g writes f too.
// A knob only tests turn keeps a second path in shipped code that no
// user can reach: delete it, or allowlist it in knobAllowed with its
// reason; an entry nothing needs any more is an error too.
func TestNoTestOnlyKnobs(t *testing.T) {
	a := analyzeModule(t)
	written := map[types.Object]bool{}
	for _, p := range a.pkgs {
		if testOnlyAllowed[p.path] != "" {
			continue // a test-helper package
		}
		writeChain := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					written[p.info.Uses[x.Sel]] = true
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						writeChain(lhs)
					}
				case *ast.IncDecStmt:
					writeChain(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						writeChain(n.X)
					}
				case *ast.CompositeLit:
					st, _ := p.info.Types[n].Type.Underlying().(*types.Struct)
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								written[p.info.Uses[id]] = true
							}
						} else if st != nil {
							written[st.Field(i)] = true
						}
					}
				}
				return true
			})
		}
	}
	allowed := map[string]bool{}
	var found []string
	for _, p := range a.pkgs {
		if p.name == "main" {
			continue
		}
		for _, n := range namedTypes(p.types) {
			st, ok := n.Underlying().(*types.Struct)
			if !ok || !isKnobStruct(n.Obj().Name()) {
				continue
			}
			for f := range st.Fields() {
				key := p.path + "." + n.Obj().Name() + "." + f.Name()
				switch {
				case !f.Exported() || written[f]:
				case knobAllowed[key] != "":
					allowed[key] = true
				default:
					found = append(found, fmt.Sprintf("%s: %s", a.fset.Position(f.Pos()), key))
				}
			}
		}
	}
	slices.Sort(found)
	for _, f := range found {
		t.Errorf("%s is a knob no shipped code sets: delete it and the path it selects, or allowlist it with a reason", f)
	}
	for key := range knobAllowed {
		if !allowed[key] {
			t.Errorf("knobAllowed names %s, which is not a knob only tests set: drop the entry", key)
		}
	}
}

// fieldOf returns the field identifier e names (x.f, x.f[i]), or nil
// when e is no field.
func fieldOf(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		default:
			return nil
		}
	}
}

// origin maps an instantiated generic object to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// errorsInterfaces are the interfaces errors.Is, errors.As and
// errors.Unwrap look for; the standard library writes them inline in
// function bodies, which the source importer does not check.
const errorsInterfaces = `package errorsifaces

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// interfaces returns every interface with methods that the module or
// the standard library it imports declares, named or written inline,
// and errorsInterfaces.
func (a *moduleAnalysis) interfaces(t *testing.T) []*types.Interface {
	f, err := parser.ParseFile(a.fset, "errorsifaces.go", errorsInterfaces, 0)
	if err != nil {
		t.Fatal(err)
	}
	errs, err := new(types.Config).Check("errorsifaces", a.fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []*types.Interface
	add := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	scopes := []*types.Scope{errs.Scope()}
	for _, p := range a.std {
		scopes = append(scopes, p.Scope())
	}
	for _, p := range a.pkgs {
		scopes = append(scopes, p.types.Scope())
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	for _, s := range scopes {
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	return out
}

// namedTypes returns the defined types pkg declares at package level.
func namedTypes(pkg *types.Package) []*types.Named {
	var out []*types.Named
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok {
				out = append(out, n)
			}
		}
	}
	return out
}

// unusedMethods returns t's exported methods that nothing reaches: no
// use names them, t does not satisfy an interface with them, and no
// type of named they are promoted to satisfies one with them.
func unusedMethods(t *types.Named, used map[types.Object]bool, named []*types.Named, ifaces []*types.Interface) []*types.Func {
	var out []*types.Func
	for m := range t.Methods() {
		if !m.Exported() || used[m] || satisfiesInterface(t, m.Name(), ifaces) {
			continue
		}
		promoted := slices.ContainsFunc(named, func(e *types.Named) bool {
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(e), false, m.Pkg(), m.Name())
			return obj == m && satisfiesInterface(e, m.Name(), ifaces)
		})
		if !promoted {
			out = append(out, m)
		}
	}
	return out
}

// embedFixture is a package whose embedded type has one method that
// satisfies an interface for its embedder and one that nothing uses.
const embedFixture = `package fixture

type Device interface {
	Name() string
	Lookup() int
}

type skeleton struct{}

func (*skeleton) Name() string { return "" }
func (*skeleton) Probe() int   { return 0 }

type Dev struct{ skeleton }

func (*Dev) Lookup() int { return 0 }
`

// TestPromotedMethodsGate: a method of an embedded type counts as used
// when an embedding type satisfies an interface with it, and only then.
func TestPromotedMethodsGate(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", embedFixture, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := new(types.Config).Check("fixture", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	named := namedTypes(pkg)
	ifaces := []*types.Interface{pkg.Scope().Lookup("Device").Type().Underlying().(*types.Interface)}
	var got []string
	for _, n := range named {
		for _, m := range unusedMethods(n, map[types.Object]bool{}, named, ifaces) {
			got = append(got, n.Obj().Name()+"."+m.Name())
		}
	}
	if want := []string{"skeleton.Probe"}; !slices.Equal(got, want) {
		t.Fatalf("flagged %v, want %v", got, want)
	}
}

// satisfiesInterface reports whether T or *T implements an interface
// that has a method called method.
func satisfiesInterface(t *types.Named, method string, ifaces []*types.Interface) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for m := range it.Methods() {
			if m.Name() == method && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// docIdentRE matches a code span that starts with pkg.Ident or
// pkg.Ident.Member, optionally ending in * (a prefix); a call's
// arguments or a literal's braces may follow.
var docIdentRE = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?(\\*)?(?:[({][^`]*)?`")

// TestDocsNameLiveIdentifiers: every backticked pkg.Ident[.Member] in
// the user-facing docs names something that exists. pkg is a package
// of the module (a test name in its _test.go files counts) or of the
// standard library the module imports; a span whose pkg is neither (a
// variable such as `ctx.Err()`) is not an identifier and is skipped. A
// trailing * matches any identifier with that prefix.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	a := analyzeModule(t)
	mod, std := map[string][]*types.Package{}, map[string][]*types.Package{}
	testNames := map[*types.Package]map[string]bool{}
	for _, p := range a.pkgs {
		if p.name != "main" {
			mod[p.name] = append(mod[p.name], p.types)
			testNames[p.types] = p.testNames
		}
	}
	for _, p := range a.std {
		std[p.Name()] = append(std[p.Name()], p)
	}
	checked := 0
	for _, doc := range docs {
		for i, line := range strings.Split(readDoc(t, doc), "\n") {
			for _, m := range docIdentRE.FindAllStringSubmatch(line, -1) {
				pkgs := mod[m[1]] // a module package shadows a standard one
				if pkgs == nil {
					pkgs = std[m[1]]
				}
				if pkgs == nil {
					continue
				}
				checked++
				if !slices.ContainsFunc(pkgs, func(p *types.Package) bool {
					return resolves(p, testNames[p], m[2], m[3], m[4] == "*")
				}) {
					t.Errorf("%s:%d: %s names nothing the module or the standard library declares", doc, i+1, m[0])
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("checked %d backticked identifiers; the docs name well over 100", checked)
	}
}

// resolves reports whether ident[.member] is declared in pkg (a bare
// ident may also be a name its test files declare); with prefix, the
// last part need only be a prefix of a name.
func resolves(pkg *types.Package, testNames map[string]bool, ident, member string, prefix bool) bool {
	if member == "" {
		if !prefix {
			return pkg.Scope().Lookup(ident) != nil || testNames[ident]
		}
		isPrefixed := func(name string) bool { return strings.HasPrefix(name, ident) }
		return slices.ContainsFunc(pkg.Scope().Names(), isPrefixed) ||
			slices.ContainsFunc(slices.Collect(maps.Keys(testNames)), isPrefixed)
	}
	obj := pkg.Scope().Lookup(ident)
	if obj == nil {
		return false
	}
	if !prefix {
		f, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, member)
		return f != nil
	}
	for sel := range types.NewMethodSet(types.NewPointer(obj.Type())).Methods() {
		if strings.HasPrefix(sel.Obj().Name(), member) {
			return true
		}
	}
	return false
}
