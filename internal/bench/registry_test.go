package bench

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestRegistryOnlyEntryPoint: an experiment runs on the model its registry
// row declares, whoever asks for it. Lookup and RunSuite print the same table
// for every windowed experiment, and the package source offers no way around
// the registry: each row's run function is named in its declaration and its
// row and nowhere else — tests included, which once asserted Table 1 and
// Figure 4 on the lookahead-0 model by calling runTable1 and fig3Data
// directly — and windowed() is applied in one place.
func TestRegistryOnlyEntryPoint(t *testing.T) {
	o := tinyOptions()
	for _, row := range registry {
		if !row.windowed {
			continue
		}
		e, ok := Lookup(row.id)
		if !ok {
			t.Fatalf("Lookup does not find registry row %q", row.id)
		}
		direct := renderTable(e.Run(o))
		if suite := renderTable(RunSuite([]Experiment{e}, o, 1)[0].Table); !bytes.Equal(direct, suite) {
			t.Errorf("%s: Lookup(id).Run differs from RunSuite:\n--- Lookup ---\n%s--- RunSuite ---\n%s", row.id, direct, suite)
		}
	}

	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	uses := map[string]int{} // identifier -> occurrences in the package, declarations included
	var runs []string        // the identifier each registry row's run column starts with
	windowedCalls := 0
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".go") {
			continue
		}
		file, err := parser.ParseFile(fset, f.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				uses[n.Name]++
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "windowed" && !strings.HasSuffix(f.Name(), "_test.go") {
					windowedCalls++
				}
			case *ast.ValueSpec:
				if len(n.Names) == 1 && n.Names[0].Name == "registry" {
					for _, row := range n.Values[0].(*ast.CompositeLit).Elts {
						run := row.(*ast.CompositeLit).Elts[3]
						if sel, ok := run.(*ast.SelectorExpr); ok {
							run = sel.X
						}
						runs = append(runs, run.(*ast.Ident).Name)
					}
				}
			}
			return true
		})
	}
	if len(runs) != len(registry) {
		t.Fatalf("found %d run functions in the registry's source, want %d", len(runs), len(registry))
	}
	for _, name := range runs {
		if uses[name] != 2 {
			t.Errorf("%s is named %d times in the package, want 2 (its declaration and its registry row)", name, uses[name])
		}
	}
	if windowedCalls != 1 {
		t.Errorf("windowed() is called %d times outside tests, want once: where the registry applies its column", windowedCalls)
	}
}
