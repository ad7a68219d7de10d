package klint

import (
	"sort"
	"strings"
	"testing"
)

// TestLayeringTableIsImportGraph: every edge the layering table
// allows is one a non-test file of its package imports, so the table
// is the import graph and not a superset of it. An edge left behind
// by a deleted import fails here until it is deleted too.
func TestLayeringTableIsImportGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	m, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	from := make([]string, 0, len(layeringAllowed))
	for p := range layeringAllowed {
		from = append(from, p)
	}
	sort.Strings(from)
	for _, p := range from {
		pkg := m.ByPath[p]
		if pkg == nil {
			t.Errorf("the layering table lists %s, which the module does not have", p)
			continue
		}
		imported := map[string]bool{}
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				imported[strings.Trim(imp.Path.Value, `"`)] = true
			}
		}
		for _, to := range layeringAllowed[p] {
			if !imported[to] {
				t.Errorf("allowed edge %s -> %s: no non-test file of %s imports it", p, to, p)
			}
		}
	}
}
