package goodenough

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports lists the exported top-level names and methods that no
// non-test file references yet, each with the reason: the ROADMAP item due
// to give it a caller, or the interface through which the standard library
// calls it. An exported name that only tests use is code kept alive for
// tests: move it into the test that needs it, delete it, or list it here.
var testOnlyExports = map[string]string{
	"goodenough/internal/verify.Wrap":               "item 10: gesim -verify and gefleet -verify wrap the run's policy",
	"goodenough/internal/verify.Checker.Ok":         "item 10: -verify reports the checker's verdict",
	"goodenough/internal/verify.Checker.Violations": "item 10: -verify prints the violations",
	"goodenough/internal/analytic.FluidLowerBound":  "item 4: the per-run energy bound uses or replaces it",
	"goodenough/internal/gateway.pickOrder.Less":    "sort.Interface: sort.Stable calls it",
	"goodenough/internal/chaos.Kind.UnmarshalText":  "encoding.TextUnmarshaler: encoding/json calls it on gechaos -spec kinds",
}

// TestNoTestOnlyExports fails when an exported top-level func, type, var or
// const, or an exported method, of a non-main package is referenced by no
// non-test file of the module, examples/ or perfbench/, and the allowlist
// does not name it; and when an allowlist entry is referenced or no longer
// declared. A method counts as referenced when some non-test file selects
// its name, on any operand.
func TestNoTestOnlyExports(t *testing.T) {
	decls, refs := scanExports(t, ".")
	checkAllowlist(t, decls, refs, testOnlyExports, "is exported but only tests use it", "now has a non-test caller")
}

// checkAllowlist reports every declared name that is not used and not
// listed, and every listed name that is used or no longer declared.
func checkAllowlist(t *testing.T, decls map[string]string, used map[string]bool, allow map[string]string, unusedMsg, usedMsg string) {
	t.Helper()
	var unused []string
	for name := range decls {
		_, listed := allow[name]
		if !used[name] && !listed {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s (%s) %s", name, decls[name], unusedMsg)
	}
	for name, reason := range allow {
		if _, ok := decls[name]; !ok {
			t.Errorf("allowlist entry %s (%s) is no longer declared", name, reason)
		} else if used[name] {
			t.Errorf("allowlist entry %s (%s) %s; remove the entry", name, reason, usedMsg)
		}
	}
}

// scanExports parses every non-test Go file under root and returns the
// exported top-level names and methods of its non-main packages, keyed by
// "importpath.Name" or "importpath.Type.Method" with their position, and
// the set of such keys that some file references: pkg.Name through the
// file's imports, a bare Name only inside the declaring package, a method
// by any selector of its name.
func scanExports(t *testing.T, root string) (decls map[string]string, refs map[string]bool) {
	t.Helper()
	decls, refs = map[string]string{}, map[string]bool{}
	methods := map[string]string{} // key → method name
	selected := map[string]bool{}
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
				if f.Name.Name != "main" && d.Name.IsExported() {
					key := pkg + "." + recvTypeName(d.Recv) + "." + d.Name.Name
					decls[key] = fset.Position(d.Name.Pos()).String()
					methods[key] = d.Name.Name
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
				selected[n.Sel.Name] = true
			case *ast.Ident:
				if !declNames[n] {
					refs[pkg+"."+n.Name] = true
				}
			}
			return true
		})
	})
	for key, name := range methods {
		refs[key] = selected[name]
	}
	return decls, refs
}

// recvTypeName returns the name of a method receiver's base type.
func recvTypeName(recv *ast.FieldList) string {
	x := recv.List[0].Type
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch g := x.(type) {
	case *ast.IndexExpr:
		x = g.X
	case *ast.IndexListExpr:
		x = g.X
	}
	return x.(*ast.Ident).Name
}

// testOnlyOptions lists the exported Config and Options fields under
// internal/ that no non-test file sets yet, each with the ROADMAP item due
// to set it.
var testOnlyOptions = map[string]string{
	"goodenough/internal/governor.Config.Now": "item 7: the sim/live conformance check drives the governor on this clock",
}

// TestNoTestOnlyOptions fails when an exported field of a struct type under
// internal/ whose name ends in Config or Options is set by no non-test file
// of the module, examples/ or perfbench/, and the allowlist does not name
// it; and when an allowlist entry is set or no longer declared. An option
// that only tests set is a branch kept alive for tests: make it a constant
// with today's value. Sets inside the type's own methods (its defaulting)
// do not count.
func TestNoTestOnlyOptions(t *testing.T) {
	fields, set := scanOptions(t, ".")
	checkAllowlist(t, fields, set, testOnlyOptions, "is set by no non-test file", "is now set by a non-test file")
}

// scanOptions type-checks every non-test Go file under root and returns the
// exported fields of the Config and Options struct types under internal/,
// keyed by "importpath.Type.Field" with their position, and the set of such
// keys that some file sets: as a composite-literal key or element, as the
// target of an assignment or increment, or by taking its address. Keys and
// selectors resolve to the field by type, so a same-named field of another
// package's Config does not count.
func scanOptions(t *testing.T, root string) (fields map[string]string, set map[string]bool) {
	t.Helper()
	var fset *token.FileSet
	files := map[string][]*ast.File{}
	parseSources(t, root, func(fs *token.FileSet, pkg string, f *ast.File) {
		fset = fs
		files[pkg] = append(files[pkg], f)
	})
	// Packages outside the module (the standard library) import as empty
	// stand-ins, and the type errors they cause are ignored: every field
	// and selector the scan resolves is the module's own, so no stdlib
	// source needs type-checking.
	pkgs := map[string]*types.Package{}
	infos := map[string]*types.Info{}
	var imp importerFunc
	imp = func(ip string) (*types.Package, error) {
		if p, ok := pkgs[ip]; ok {
			return p, nil
		}
		if files[ip] == nil {
			p := types.NewPackage(ip, path.Base(ip))
			p.MarkComplete()
			pkgs[ip] = p
			return p, nil
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp, Error: func(error) {}}
		p, _ := conf.Check(ip, fset, files[ip], info)
		pkgs[ip], infos[ip] = p, info
		return p, nil
	}
	owner := map[*types.Var]string{} // field → "importpath.Type"
	fields, set = map[string]string{}, map[string]bool{}
	for ip := range files {
		p, _ := imp(ip)
		if !strings.HasPrefix(ip, "goodenough/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				if v := st.Field(i); v.Exported() {
					owner[v] = ip + "." + name
					fields[owner[v]+"."+v.Name()] = fset.Position(v.Pos()).String()
				}
			}
		}
	}
	for ip, pkgFiles := range files {
		info := infos[ip]
		for _, f := range pkgFiles {
			for _, d := range f.Decls {
				self := "" // the receiver type of a method: its own sets are defaulting
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					self = ip + "." + recvTypeName(fd.Recv)
				}
				mark := func(v *types.Var) {
					if o, ok := owner[v.Origin()]; ok && o != self {
						set[o+"."+v.Name()] = true
					}
				}
				markSelector := func(e ast.Expr) {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
							mark(s.Obj().(*types.Var))
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						var st *types.Struct
						if tv := info.Types[n]; tv.Type != nil {
							st, _ = tv.Type.Underlying().(*types.Struct)
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if v, ok := info.Uses[identOf(kv.Key)].(*types.Var); ok && v.IsField() {
									mark(v)
								}
							} else if st != nil {
								mark(st.Field(i))
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							markSelector(lhs)
						}
					case *ast.IncDecStmt:
						markSelector(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							markSelector(n.X)
						}
					}
					return true
				})
			}
		}
	}
	return fields, set
}

// identOf returns e as an identifier, or nil.
func identOf(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

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
var mirrorStructs = map[string]string{}

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
