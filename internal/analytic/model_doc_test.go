package analytic

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEquationMapCoversCitedEquations keeps docs/model.md an index of the
// code: every "Eq. N" a comment under internal/{queueing,core,analytic}
// cites ("Eq. 21/23" and "Eq. 12–25" cite each number written) has a
// table row there, every row is still cited by some comment, every test a
// row names exists in one of the three packages, and every Go identifier
// the page names — `analytic.(*Model).Latency`, `core.blocking`,
// `core.Options.SingleServerGroups`, `(*TorusModel).ClosedForm` — is declared in their
// non-test files (a method on exactly that receiver type, a field of that
// struct). Local names such as `lamDown` are not checked.
func TestEquationMapCoversCitedEquations(t *testing.T) {
	doc, err := os.ReadFile("../../docs/model.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\| Eq\. (\d+) \|`).FindAllStringSubmatch(string(doc), -1) {
		if rows[m[1]] {
			t.Errorf("docs/model.md has two rows for Eq. %s", m[1])
		}
		rows[m[1]] = true
	}

	decls := map[string]bool{} // "pkg.Name", "pkg.Type.MethodOrField"
	cite := regexp.MustCompile(`Eqs?\. ?(\d+(?:[/–-]\d+)*)`)
	testFunc := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	number := regexp.MustCompile(`\d+`)
	cited := map[string]string{} // equation → first place that cites it
	tests := map[string]bool{}
	for _, dir := range []string{"../queueing", "../core", "."} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files under %s: %v", dir, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasSuffix(file, "_test.go") {
				declare(t, decls, file, src)
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				tests[m[1]] = true
			}
			for i, line := range strings.Split(string(src), "\n") {
				_, comment, ok := strings.Cut(line, "//")
				if !ok {
					continue
				}
				for _, m := range cite.FindAllStringSubmatch(comment, -1) {
					for _, n := range number.FindAllString(m[1], -1) {
						if _, seen := cited[n]; !seen {
							cited[n] = file + ":" + strconv.Itoa(i+1)
						}
					}
				}
			}
		}
	}

	var missing, stale []string
	for n, where := range cited {
		if !rows[n] {
			missing = append(missing, "Eq. "+n+" (cited at "+where+")")
		}
	}
	for n := range rows {
		if _, ok := cited[n]; !ok {
			stale = append(stale, "Eq. "+n)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("cited in code, no row in docs/model.md: %s", strings.Join(missing, ", "))
	}
	if len(stale) > 0 {
		t.Errorf("row in docs/model.md, cited nowhere in code: %s", strings.Join(stale, ", "))
	}
	if len(rows) < 20 {
		t.Errorf("docs/model.md has %d equation rows; the table did not parse", len(rows))
	}
	for _, m := range regexp.MustCompile("`(Test\\w+)`").FindAllStringSubmatch(string(doc), -1) {
		if !tests[m[1]] {
			t.Errorf("docs/model.md names %s, which is no test under internal/{queueing,core,analytic}", m[1])
		}
	}
	ident := regexp.MustCompile("`((?:queueing|core|analytic)\\.)?(?:\\(\\*(\\w+)\\)\\.(\\w+)|(\\w+)(?:\\.(\\w+))?)[^`]*`")
	for _, m := range ident.FindAllStringSubmatch(string(doc), -1) {
		pkg, recv, name := strings.TrimSuffix(m[1], "."), m[2], m[3]
		if recv == "" {
			if pkg == "" {
				continue // an unqualified local name, or not Go at all
			}
			recv, name = m[4], m[5]
			if name == "" {
				recv, name = "", m[4]
			}
		}
		key := name
		if recv != "" {
			key = recv + "." + name
		}
		found := false
		for _, p := range []string{"queueing", "core", "analytic"} {
			if pkg == "" || pkg == p {
				found = found || decls[p+"."+key]
			}
		}
		if !found {
			t.Errorf("docs/model.md names %s, which is declared nowhere under internal/{queueing,core,analytic}", strings.Trim(m[0], "`"))
		}
	}
}

// declare records the package-level names of a Go file in decls, plus
// every method as "pkg.Recv.Method" and every struct field as
// "pkg.Type.Field".
func declare(t *testing.T, decls map[string]bool, file string, src []byte) {
	f, err := parser.ParseFile(token.NewFileSet(), file, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := f.Name.Name
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				decls[pkg+"."+d.Name.Name] = true
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				decls[pkg+"."+id.Name+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						decls[pkg+"."+id.Name] = true
					}
				case *ast.TypeSpec:
					decls[pkg+"."+spec.Name.Name] = true
					if st, ok := spec.Type.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, id := range field.Names {
								decls[pkg+"."+spec.Name.Name+"."+id.Name] = true
							}
						}
					}
				}
			}
		}
	}
}
