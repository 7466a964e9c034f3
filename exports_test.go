package goodenough

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

// testOnlyExports lists the exported top-level names that no non-test file
// references yet, each with the ROADMAP item due to give it a caller. An
// exported name that only tests use is code kept alive for tests: move it
// into the test that needs it, delete it, or list it here with its item.
var testOnlyExports = map[string]string{
	"goodenough/internal/verify.Wrap":              "item 10: gesim -verify and gefleet -verify wrap the run's policy",
	"goodenough/internal/analytic.FluidLowerBound": "item 4: the per-run energy bound uses or replaces it",
}

// TestNoTestOnlyExports fails when an exported top-level func, type, var or
// const of a non-main package is referenced by no non-test file of the
// module, examples/ or perfbench/, and the allowlist does not name it; and
// when an allowlist entry is referenced or no longer declared.
func TestNoTestOnlyExports(t *testing.T) {
	decls, refs := scanExports(t, ".")
	var unused []string
	for name := range decls {
		_, listed := testOnlyExports[name]
		if !refs[name] && !listed {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s (%s) is exported but only tests use it", name, decls[name])
	}
	for name, item := range testOnlyExports {
		if _, ok := decls[name]; !ok {
			t.Errorf("allowlist entry %s (%s) is no longer declared", name, item)
		} else if refs[name] {
			t.Errorf("allowlist entry %s (%s) now has a non-test caller; remove the entry", name, item)
		}
	}
}

// scanExports parses every non-test Go file under root and returns the
// exported top-level names of its non-main packages, keyed by
// "importpath.Name" with their position, and the set of such keys that some
// file references: pkg.Name through the file's imports, a bare Name only
// inside the declaring package.
func scanExports(t *testing.T, root string) (decls map[string]string, refs map[string]bool) {
	t.Helper()
	decls, refs = map[string]string{}, map[string]bool{}
	parseSources(t, root, func(fset *token.FileSet, pkg string, f *ast.File) {
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		declNames := map[*ast.Ident]bool{}
		declare := func(id *ast.Ident) {
			declNames[id] = true
			if f.Name.Name != "main" && id.IsExported() {
				decls[pkg+"."+id.Name] = fset.Position(id.Pos()).String()
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name)
					continue
				}
				// A method's name and receiver use no top-level name.
				declNames[d.Name] = true
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						declNames[id] = true
					}
					return true
				})
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						refs[ip+"."+n.Sel.Name] = true
						return false
					}
				}
			case *ast.Ident:
				if !declNames[n] {
					refs[pkg+"."+n.Name] = true
				}
			}
			return true
		})
	})
	return decls, refs
}

// parseSources parses every non-test Go file under root, skipping testdata
// and dot directories, and calls fn with each file and its package's import
// path.
func parseSources(t *testing.T, root string, fn func(fset *token.FileSet, pkg string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
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
		fn(fset, path.Join("goodenough", filepath.ToSlash(filepath.Dir(p))), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mirrorStructs lists the struct pairs allowed to share most of their field
// names, each with the reason.
var mirrorStructs = map[string]string{
	"goodenough/internal/obs.DecisionLog ~ goodenough/internal/obs.JSONL": "item 6: the {w, buf, err} state of two buffered JSONL writers, which one record stream makes one",
}

// TestNoMirrorStructs fails when two struct types of the module share at
// least 90% of the larger one's field names and the allowlist does not name
// the pair, and when an allowlist entry no longer matches. A struct that
// repeats another field for field needs a copy at every crossing and drifts
// from it; use the type itself, or an alias.
func TestNoMirrorStructs(t *testing.T) {
	type structType struct {
		name   string
		fields []string
	}
	var structs []structType
	parseSources(t, ".", func(_ *token.FileSet, pkg string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				s := structType{name: pkg + "." + ts.Name.Name}
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						s.fields = append(s.fields, id.Name)
					}
				}
				if len(s.fields) >= 2 {
					structs = append(structs, s)
				}
			}
			return true
		})
	})
	sort.Slice(structs, func(i, j int) bool { return structs[i].name < structs[j].name })
	mirrors := map[string]bool{}
	for i, a := range structs {
		names := map[string]bool{}
		for _, n := range a.fields {
			names[n] = true
		}
		for _, b := range structs[i+1:] {
			shared := 0
			for _, n := range b.fields {
				if names[n] {
					shared++
				}
			}
			if 10*shared >= 9*max(len(a.fields), len(b.fields)) {
				pair := a.name + " ~ " + b.name
				mirrors[pair] = true
				if _, ok := mirrorStructs[pair]; !ok {
					t.Errorf("%s share %d of %d and %d field names", pair, shared, len(a.fields), len(b.fields))
				}
			}
		}
	}
	for pair, reason := range mirrorStructs {
		if !mirrors[pair] {
			t.Errorf("allowlist entry %s (%s) no longer matches; remove it", pair, reason)
		}
	}
}
