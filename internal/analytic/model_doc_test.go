package analytic

import (
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
// table row there, every row is still cited by some comment, and every
// test a row names exists in one of the three packages.
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
}
