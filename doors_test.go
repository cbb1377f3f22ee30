package repro_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/race"
)

// doorsAllowed are the functions and methods that no program reaches and
// that stay anyway, each with its reason. A key names one object, as
// "pkg.Func", "pkg.Type.Method" or "pkg.Interface.Method", or a whole
// package as "pkg" (pkg is the last element of its import path). An
// allowlisted object is kept with everything it reaches. An entry that
// names nothing, or whose objects a program reaches anyway, fails the
// test too.
var doorsAllowed = map[string]string{
	"fleettest": "the fleet harness that the cmd and dispatch tests share",

	"eval.WithRetry":                "the fault tests' fleet seam: a remote backend's retry schedule",
	"eval.WithIdleTimeout":          "the fault tests' fleet seam: a remote backend's idle timeout",
	"dispatch.WithTransport":        "the fault tests' fleet seam: where fleettest's transport plugs in",
	"dispatch.WithShardBackoff":     "the fault tests' fleet seam: a dispatcher's shard backoff",
	"dispatch.WithMaxShardFailures": "the fault tests' fleet seam: a dispatcher's failure limit",

	"exp.CompareCurve":           "the reference that the migration tests compare against",
	"exp.ComparisonPoint.RelErr": "the reference's error measure, beside sweep.Row.RelErr that programs call",

	"traffic.NewRNG":              "a test constructor shared across packages",
	"analytic.MustTorusModel":     "a test constructor shared across packages",
	"analytic.MustHypercubeModel": "a test constructor shared across packages",
	"topology.MustHypercube":      "a test constructor shared across packages",
	"topology.MustFatTree":        "a test constructor shared across packages",
}

// TestNoTestOnlyDoors fails when a function or method of the module is
// reached by no program: a door kept open only for its own tests. Delete
// it, or move its test onto the code that programs call; the allowlist
// above is for what stays with a reason. The analysis (findDoors) is
// checked first on the planted module under testdata/doors.
//
// Under -race the type check of the module and the standard library
// takes several times longer; make lint runs the guard without it.
func TestNoTestOnlyDoors(t *testing.T) {
	if race.Enabled {
		t.Skip("the door guard runs without -race (make lint)")
	}
	// The type check allocates short-lived syntax trees by the hundred
	// megabytes: a laxer collector saves a tenth of the run for about
	// 50 MB more heap.
	defer debug.SetGCPercent(debug.SetGCPercent(300))
	c := newDoorChecker()

	t.Run("fixture", func(t *testing.T) {
		rep, err := c.findDoors("testdata/doors", nil)
		if err != nil {
			t.Fatal(err)
		}
		// Two planted doors: a test-only method that shares its name with
		// a method programs call, and an interface method no program calls
		// (with its two implementations). The registry's generic get, the
		// shape reached only through an interface call, the MarshalJSON
		// that only encoding/json calls and the build-tagged pair pass.
		want := []string{
			"stats.BatchMeans.N",
			"traffic.Source.Rate",
			"traffic.burst.Rate",
			"traffic.uniform.Rate",
		}
		if got := rep.keys(); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("unreached doors in the fixture:\n got %q\nwant %q", got, want)
		}
		if len(rep.benchOnly) != 0 || len(rep.stale) != 0 {
			t.Errorf("fixture: bench-only %q, stale entries %q; want none", rep.benchOnly, rep.stale)
		}
	})

	rep, err := c.findDoors(".", doorsAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.unreached {
		t.Errorf("%s: %s is reached by no program: delete it, or allowlist it with a reason", d.pos, d.key)
	}
	for _, k := range rep.stale {
		t.Errorf("allowlist entry %s lets no door through: remove it", k)
	}
	// The doors that only bench/ reaches are ROADMAP item 1a's worklist:
	// they go when the bench moves off them.
	for _, k := range rep.benchOnly {
		t.Logf("reached only from bench/: %s", k)
	}
}

// doorChecker type-checks modules against one copy of the standard
// library, which go/importer type-checks from source (without function
// bodies) on first import. go/importer looks a path up again on every
// import, so the packages the modules import are kept by path.
type doorChecker struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	stdPkgs map[string]*types.Package
}

func newDoorChecker() *doorChecker {
	// Pure-Go files only: with cgo on, importing net would run the C
	// toolchain. The module has no cgo files.
	build.Default.CgoEnabled = false
	// go/build reads the header of every file it lists, and go/importer
	// looks a directory up again for each package that imports it:
	// listing no _test.go files saves most of that reading.
	build.Default.ReadDir = func(dir string) ([]fs.FileInfo, error) {
		entries, err := os.ReadDir(dir)
		var infos []fs.FileInfo
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), "_test.go") {
				infos = append(infos, dirEntryInfo{e})
			}
		}
		return infos, err
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return &doorChecker{fset, std, map[string]*types.Package{}}
}

// dirEntryInfo is a directory entry as the fs.FileInfo go/build's ReadDir
// hook returns, without a stat call: go/build reads only its name and
// type.
type dirEntryInfo struct{ fs.DirEntry }

func (e dirEntryInfo) Size() int64        { return 0 }
func (e dirEntryInfo) Mode() fs.FileMode  { return e.Type() }
func (e dirEntryInfo) ModTime() time.Time { return time.Time{} }
func (e dirEntryInfo) Sys() any           { return nil }

// A door is a function or an interface method of the module.
type door struct {
	key, pos string
	obj      *types.Func
}

type doorReport struct {
	unreached []door   // reached by no program and no allowlist entry
	benchOnly []string // keys reached from bench/'s main only
	stale     []string // allowlist keys that let no door through
}

func (r *doorReport) keys() []string {
	var ks []string
	for _, d := range r.unreached {
		ks = append(ks, d.key)
	}
	return ks
}

// A doorPkg is one package of the module: its non-test files as go/build
// selects them for the default build tags, and their type information.
type doorPkg struct {
	rel   string // slash-separated directory, relative to the module root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type doorModule struct {
	*doorChecker
	root   string
	pkgs   map[string]*doorPkg // by import path
	pkgOf  map[*types.Package]*doorPkg
	decls  map[*types.Func]*ast.FuncDecl
	ifaces map[string][]*types.Interface // standard library interfaces, by method name
}

// findDoors loads the module at root and reports every door that no
// program reaches. The program roots are the main functions of the
// packages under cmd/ and examples/; bench/'s main is a second root set.
// Each root set also reaches every init function and package-level
// initialiser of the module packages it imports. allowed is keyed as
// doorsAllowed is.
func (c *doorChecker) findDoors(root string, allowed map[string]string) (*doorReport, error) {
	m, err := c.load(root)
	if err != nil {
		return nil, err
	}
	var doors []door
	byKey := map[string][]*types.Func{} // doors by key and by package, for the allowlist
	var programs, bench []*types.Func
	for _, p := range m.pkgs {
		top, _, _ := strings.Cut(p.rel, "/")
		if p.types.Name() == "main" {
			mainFn, _ := p.types.Scope().Lookup("main").(*types.Func)
			switch top {
			case "cmd", "examples":
				programs = append(programs, mainFn)
			case "bench":
				bench = append(bench, mainFn)
			}
		}
		if top == "bench" {
			continue
		}
		add := func(f *types.Func) {
			d := door{doorKey(f), m.pos(f.Pos()), f}
			doors = append(doors, d)
			pkg := path.Base(p.types.Path())
			byKey[d.key], byKey[pkg] = append(byKey[d.key], f), append(byKey[pkg], f)
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "init" && fd.Name.Name != "_" {
					add(p.info.Defs[fd.Name].(*types.Func))
				}
			}
		}
		for _, name := range p.types.Scope().Names() {
			obj, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := obj.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					add(it.ExplicitMethod(i))
				}
			}
		}
	}
	prog, benchReach := m.reach(programs), m.reach(bench)

	rep := &doorReport{}
	var keep []*types.Func
	for k := range allowed {
		let := false
		for _, f := range byKey[k] {
			let = let || !prog[f] && !benchReach[f]
		}
		if !let {
			rep.stale = append(rep.stale, k)
		}
		keep = append(keep, byKey[k]...)
	}
	kept := m.reach(keep)
	for _, d := range doors {
		switch {
		case prog[d.obj]:
		case benchReach[d.obj]:
			rep.benchOnly = append(rep.benchOnly, d.key)
		case !kept[d.obj]:
			rep.unreached = append(rep.unreached, d)
		}
	}
	sort.Slice(rep.unreached, func(i, j int) bool { return rep.unreached[i].key < rep.unreached[j].key })
	sort.Strings(rep.benchOnly)
	sort.Strings(rep.stale)
	return rep, nil
}

// doorKey names f as the allowlist does: "pkg.Func" or "pkg.Type.Method".
func doorKey(f *types.Func) string {
	key := path.Base(f.Pkg().Path()) + "."
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			key += n.Obj().Name() + "."
		}
	}
	return key + f.Name()
}

func (m *doorModule) pos(p token.Pos) string {
	pos := m.fset.Position(p)
	if rel, err := filepath.Rel(m.root, pos.Filename); err == nil {
		pos.Filename = filepath.ToSlash(rel)
	}
	return pos.String()
}

// stdAnonymous are the interfaces that package errors asserts without
// naming them.
const stdAnonymous = `package p

type (
	unwrap      interface{ Unwrap() error }
	unwrapMulti interface{ Unwrap() []error }
	is          interface{ Is(error) bool }
	as          interface{ As(any) bool }
)
`

// load parses every package of the module at root (testdata and hidden
// directories aside), type-checks it, and indexes its function
// declarations and the interfaces of the standard library it imports.
func (c *doorChecker) load(root string) (*doorModule, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := ""
	for _, line := range strings.Split(string(gomod), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			mod = strings.TrimSpace(p)
		}
	}
	m := &doorModule{
		doorChecker: c, root: root, pkgs: map[string]*doorPkg{}, pkgOf: map[*types.Package]*doorPkg{},
		decls: map[*types.Func]*ast.FuncDecl{}, ifaces: map[string][]*types.Interface{},
	}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		p := &doorPkg{rel: filepath.ToSlash(rel)}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		m.pkgs[path.Join(mod, p.rel)] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	addStd := func(s *types.Scope) {
		for _, name := range s.Names() {
			if obj, ok := s.Lookup(name).(*types.TypeName); ok {
				if it, ok := obj.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						m.ifaces[it.Method(i).Name()] = append(m.ifaces[it.Method(i).Name()], it)
					}
				}
			}
		}
	}
	addStd(types.Universe)
	f, _ := parser.ParseFile(c.fset, "anonymous.go", stdAnonymous, 0)
	anon, _ := (&types.Config{}).Check("p", c.fset, []*ast.File{f}, nil)
	addStd(anon.Scope())
	stdSeen := map[*types.Package]bool{}
	var walkStd func(*types.Package)
	walkStd = func(p *types.Package) {
		if !stdSeen[p] {
			stdSeen[p] = true
			if m.pkgs[p.Path()] == nil {
				addStd(p.Scope())
			}
			for _, imp := range p.Imports() {
				walkStd(imp)
			}
		}
	}
	for ip, p := range m.pkgs {
		if _, err := m.Import(ip); err != nil {
			return nil, err
		}
		m.pkgOf[p.types] = p
		walkStd(p.types)
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					m.decls[p.info.Defs[fd.Name].(*types.Func)] = fd
				}
			}
		}
	}
	return m, nil
}

func (m *doorModule) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.root, 0)
}

// ImportFrom type-checks a module package on first import, and hands
// every other path to the standard library's importer.
func (m *doorModule) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	p := m.pkgs[path]
	if p == nil {
		if m.stdPkgs[path] == nil {
			pkg, err := m.std.ImportFrom(path, dir, mode)
			if err != nil {
				return nil, err
			}
			m.stdPkgs[path] = pkg
		}
		return m.stdPkgs[path], nil
	}
	if p.types == nil {
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: m}
		pkg, err := conf.Check(path, m.fset, p.files, p.info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", path, err)
		}
		p.types = pkg
	}
	return p.types, nil
}

// doorReach finds the functions that a set of roots reaches, by a rapid
// type analysis: a static call reaches its one function (a generic one by
// its origin); a call through an interface method reaches the same-named
// method of every reached type that implements the interface; and a
// method the standard library calls through its own interfaces is reached
// when its type is. A type is reached when a reached function or
// initialiser names it or has a value of it, and with it the types of its
// fields and elements.
type doorReach struct {
	*doorModule
	funcs  map[*types.Func]bool     // reached functions, and interface methods called
	named  map[*types.TypeName]bool // reached module types, by origin
	seen   map[types.Type]bool
	types  []*types.Named // the reached module types
	called []*types.Func  // the interface methods called
	work   []*types.Func
}

// reach returns the functions and interface methods that roots reach.
func (m *doorModule) reach(roots []*types.Func) map[*types.Func]bool {
	r := &doorReach{
		doorModule: m, funcs: map[*types.Func]bool{},
		named: map[*types.TypeName]bool{}, seen: map[types.Type]bool{},
	}
	// The module packages the roots import, with their initialisers.
	inits := map[*types.Package]bool{}
	var imports func(*types.Package)
	imports = func(tp *types.Package) {
		p := m.pkgOf[tp]
		if p == nil || inits[tp] {
			return
		}
		inits[tp] = true
		for _, imp := range tp.Imports() {
			imports(imp)
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name == "init" && d.Recv == nil {
						r.walk(p, d.Body)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						r.walk(p, d)
					}
				}
			}
		}
	}
	for _, f := range roots {
		imports(f.Pkg())
		r.use(f)
	}
	for len(r.work) > 0 {
		f := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		if fd := m.decls[f]; fd != nil {
			r.walk(m.pkgOf[f.Pkg()], fd)
		}
	}
	return r.funcs
}

// walk reaches what a function body or an initialiser names.
func (r *doorReach) walk(p *doorPkg, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := p.info.Uses[n]
			if obj == nil {
				obj = p.info.Defs[n]
			}
			switch o := obj.(type) {
			case *types.Func:
				r.use(o)
			case *types.Var, *types.TypeName:
				r.mark(o.Type())
			}
		case ast.Expr:
			r.mark(p.info.Types[n].Type)
		}
		return true
	})
}

// use reaches f: a function or concrete method directly, an interface
// method through every reached type that implements its interface.
func (r *doorReach) use(f *types.Func) {
	f = f.Origin()
	if r.funcs[f] {
		return
	}
	r.funcs[f] = true
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil || !types.IsInterface(recv.Type()) {
		r.work = append(r.work, f)
		return
	}
	r.called = append(r.called, f)
	for _, t := range r.types {
		r.dispatch(t, f)
	}
}

// dispatch reaches t's method for a call of the interface method f, when
// t implements f's interface. A generic type is matched by name alone.
func (r *doorReach) dispatch(t *types.Named, f *types.Func) {
	it := f.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if t.TypeParams().Len() > 0 || types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
		obj, _, _ := types.LookupFieldOrMethod(t, true, f.Pkg(), f.Name())
		if m, ok := obj.(*types.Func); ok {
			r.use(m)
		}
	}
}

// mark reaches a type, the types it is built from and, for a module type,
// the methods that calls made so far dispatch to it.
func (r *doorReach) mark(t types.Type) {
	if t == nil || r.seen[t] {
		return
	}
	r.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			r.mark(t.TypeArgs().At(i))
		}
		o := t.Origin()
		if r.pkgOf[o.Obj().Pkg()] == nil || r.named[o.Obj()] {
			return
		}
		r.named[o.Obj()] = true
		r.types = append(r.types, o)
		if !types.IsInterface(o) {
			for _, f := range r.called {
				r.dispatch(o, f)
			}
			r.stdCalls(o)
		}
		r.mark(o.Underlying())
	case *types.Pointer:
		r.mark(t.Elem())
	case *types.Slice:
		r.mark(t.Elem())
	case *types.Array:
		r.mark(t.Elem())
	case *types.Chan:
		r.mark(t.Elem())
	case *types.Map:
		r.mark(t.Key())
		r.mark(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			r.mark(t.Field(i).Type())
		}
	}
}

// stdCalls reaches t's methods that implement a standard library
// interface, which the standard library may call.
func (r *doorReach) stdCalls(t *types.Named) {
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj().(*types.Func)
		for _, it := range r.ifaces[m.Name()] {
			if t.TypeParams().Len() > 0 || types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				r.use(m)
				break
			}
		}
	}
}
