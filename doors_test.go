package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// doorsAllowed are the exported functions and methods under internal/
// that no non-test file names and that stay anyway, each with its
// reason. A key is "pkg.Name" (a method's receiver type is not part of
// it), "pkg.*" for a whole package or "*.Name" for a method name in
// every package. An entry that lets no door through fails the test too.
var doorsAllowed = map[string]string{
	"*.MarshalJSON":   "encoding/json calls it",
	"*.UnmarshalJSON": "encoding/json calls it",
	"*.Unwrap":        "errors.Is and errors.As call it",

	"fleettest.*": "the fleet harness that the cmd and dispatch tests share",

	"eval.WithRetry":                "the fault tests' fleet seam: a remote backend's retry schedule",
	"eval.WithIdleTimeout":          "the fault tests' fleet seam: a remote backend's idle timeout",
	"dispatch.WithTransport":        "the fault tests' fleet seam: where fleettest's transport plugs in",
	"dispatch.WithShardBackoff":     "the fault tests' fleet seam: a dispatcher's shard backoff",
	"dispatch.WithMaxShardFailures": "the fault tests' fleet seam: a dispatcher's failure limit",

	"exp.CompareCurve": "the reference that the migration tests compare against",

	"traffic.NewRNG":              "a test constructor shared across packages",
	"analytic.MustTorusModel":     "a test constructor shared across packages",
	"analytic.MustHypercubeModel": "a test constructor shared across packages",
	"topology.MustHypercube":      "a test constructor shared across packages",
	"topology.MustFatTree":        "a test constructor shared across packages",
}

// TestNoTestOnlyDoors fails when an exported function or method under
// internal/ is named by no non-test file in the module (bench/, cmd/ and
// examples/ included): such a door is kept open only for its own tests.
// Delete it, or move its test onto the code that programs call; the
// allowlist above is for what a program reaches without naming it.
//
// The check reads names only, with go/parser. A function counts as used
// when a file of its package names it or a file importing its package
// selects it. A method counts as used, whatever its receiver, when a file
// calls x.Name(…), an interface declares Name, or a file selects x.Name
// and no struct in the module has a field Name. So a method is checked by
// its name only: a test-only method that shares its name with a method
// programs call on another type (stats.BatchMeans.N beside Stream.N)
// passes unseen. Widening the allowlist is no answer to such a miss.
func TestNoTestOnlyDoors(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		dir string // slash-separated, relative to the module root
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(p)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type door struct {
		dir, key, pos string
		method        bool
	}
	var doors []door
	funcs := map[string]bool{} // "dir.Name": a file of dir names Name, or an importer of dir selects it
	// Method names: called or declared in an interface; selected; fields.
	called, selected, fields := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, fl := range files {
		imports := map[string]string{} // local name → package dir
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(p, "repro/")
			if !ok {
				continue
			}
			name := path.Base(dir)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = dir
		}
		decls := map[*ast.Ident]bool{}
		for _, d := range fl.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls[fd.Name] = true
			if fd.Name.IsExported() && strings.HasPrefix(fl.dir, "internal/") {
				key := fl.f.Name.Name + "." + fd.Name.Name
				doors = append(doors, door{fl.dir, key, fset.Position(fd.Pos()).String(), fd.Recv != nil})
			}
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					called[sel.Sel.Name] = true
				}
			case *ast.StructType:
				for _, f := range n.Fields.List {
					for _, name := range f.Names {
						fields[name.Name] = true
					}
				}
			case *ast.SelectorExpr:
				// x.Name names a method or field, or pkg.Name a function
				// of pkg; either way not a function of this package.
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					funcs[imports[x.Name]+"."+n.Sel.Name] = true
				} else {
					ast.Inspect(n.X, visit)
				}
				return false
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						called[name.Name] = true
					}
				}
			case *ast.Ident:
				if !decls[n] {
					funcs[fl.dir+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(fl.f, visit)
	}

	var open []string
	allowed := map[string]bool{}
	for _, d := range doors {
		pkg, name, _ := strings.Cut(d.key, ".")
		if d.method && (called[name] || selected[name] && !fields[name]) || !d.method && funcs[d.dir+"."+name] {
			continue
		}
		keys := []string{d.key, pkg + ".*"}
		if d.method {
			keys = append(keys, "*."+name)
		}
		kept := false
		for _, k := range keys {
			if doorsAllowed[k] != "" {
				allowed[k], kept = true, true
			}
		}
		if !kept {
			open = append(open, d.pos+": "+d.key)
		}
	}
	sort.Strings(open)
	for _, o := range open {
		t.Errorf("%s is named by no non-test file: delete it, or allowlist it with a reason", o)
	}
	for k := range doorsAllowed {
		if !allowed[k] {
			t.Errorf("allowlist entry %s lets no door through: remove it", k)
		}
	}
}
