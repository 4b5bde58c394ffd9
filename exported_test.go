package axmemo_test

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

// Methods that callers reach through a standard-library interface
// (error, fmt.Stringer, http.RoundTripper, http.Handler, json.Marshaler,
// json.Unmarshaler), so no selector in this module names them.
var interfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true, "RoundTrip": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// exportAllowlist names exported declarations under internal/ that no
// non-test file calls and that stay anyway, keyed "<pkg dir>.<Name>" or
// "<pkg dir>.<Type>.<Name>", each with its reason.
var exportAllowlist = map[string]string{
	"internal/harness.DecodeBenchReport": "the BENCH_harness.json reader for axbench's planned -baseline compare mode; its round-trip test pins the schema",
	"internal/quality.NewCDF":            "reference model: harness's TestErrorCDFMatchesSortedCDF checks every Result's ErrorCDF against it from another package",
	"internal/quality.CDF.Points":        "reference model, with NewCDF, for harness's TestErrorCDFMatchesSortedCDF",
	"internal/store.Store.SetWriteFault": "test seam: the degrade and durability tests inject disk-write failures through it into the production write path",
}

// exportedDecl is one exported function or method under internal/.
type exportedDecl struct {
	key, pkg, recv, name string
	pos                  token.Position
}

// useIndex records, for every name a non-test file uses, the
// declarations whose bodies use it ("" outside any function).
type useIndex struct {
	methods map[string][]string // selector name -> enclosing decls
	funcs   map[string][]string // "<pkg dir>.<Name>" -> enclosing decls
}

// walk records the uses in n, which lies in package dir pkg inside the
// declaration enclosing; imports maps a file's local package names to
// the module-relative directories they import.
func (u *useIndex) walk(n ast.Node, pkg, enclosing string, imports map[string]string) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if dir, ok := imports[x.Name]; ok {
					key := dir + "." + n.Sel.Name
					u.funcs[key] = append(u.funcs[key], enclosing)
					return false
				}
			}
			u.methods[n.Sel.Name] = append(u.methods[n.Sel.Name], enclosing)
			u.walk(n.X, pkg, enclosing, imports)
			return false
		case *ast.Ident:
			key := pkg + "." + n.Name
			u.funcs[key] = append(u.funcs[key], enclosing)
		}
		return true
	})
}

// TestExportedNamesHaveProductionCallers keeps the shipped packages free
// of API that only tests call: every exported function and method
// declared in a non-test file under internal/ must be named by some
// non-test file in this repository (perfbench and examples included)
// outside its own declaration.  Methods are matched by name alone,
// functions by package and name.  Test-only machinery belongs in
// _test.go files, where it is a reference model or a fixture.
func TestExportedNamesHaveProductionCallers(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportedDecl
	aliased := map[string]bool{} // "<pkg dir>.<Type>" re-exported by axmemo.go
	uses := useIndex{methods: map[string][]string{}, funcs: map[string][]string{}}

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		pkg := filepath.ToSlash(filepath.Dir(p))
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			if rel, ok := strings.CutPrefix(ip, "axmemo/"); ok {
				imports[local] = rel
			}
		}
		for _, gd := range f.Decls {
			fd, ok := gd.(*ast.FuncDecl)
			if !ok {
				if p == "axmemo.go" {
					collectAliases(gd, imports, aliased)
				}
				uses.walk(gd, pkg, "", imports)
				continue
			}
			dc := exportedDecl{pkg: pkg, recv: recvName(fd), name: fd.Name.Name, pos: fset.Position(fd.Pos())}
			dc.key = pkg + "." + dc.name
			if dc.recv != "" {
				dc.key = pkg + "." + dc.recv + "." + dc.name
			}
			if strings.HasPrefix(pkg, "internal/") && fd.Name.IsExported() {
				decls = append(decls, dc)
			}
			// The declared name itself is not a use.
			if fd.Recv != nil {
				uses.walk(fd.Recv, pkg, dc.key, imports)
			}
			uses.walk(fd.Type, pkg, dc.key, imports)
			if fd.Body != nil {
				uses.walk(fd.Body, pkg, dc.key, imports)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	usedOutside := func(enclosing []string, self string) bool {
		for _, e := range enclosing {
			if e != self {
				return true
			}
		}
		return false
	}
	allowed := map[string]bool{}
	var unused []string
	for _, d := range decls {
		if _, ok := exportAllowlist[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		used := usedOutside(uses.funcs[d.key], d.key)
		if d.recv != "" {
			used = interfaceMethods[d.name] || aliased[d.pkg+"."+d.recv] ||
				usedOutside(uses.methods[d.name], d.key)
		}
		if !used {
			unused = append(unused, d.key+" ("+d.pos.String()+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s has no caller outside tests: delete it, move it into a _test.go file, or allowlist it with a reason", u)
	}
	for k := range exportAllowlist {
		if !allowed[k] {
			t.Errorf("allowlist entry %s names no exported declaration under internal/; remove it", k)
		}
	}
}

// collectAliases adds every "type X = pkg.Y" in gd to aliased as
// "<pkg dir>.Y".
func collectAliases(gd ast.Decl, imports map[string]string, aliased map[string]bool) {
	g, ok := gd.(*ast.GenDecl)
	if !ok || g.Tok != token.TYPE {
		return
	}
	for _, s := range g.Specs {
		ts := s.(*ast.TypeSpec)
		sel, ok := ts.Type.(*ast.SelectorExpr)
		if !ok || ts.Assign == 0 {
			continue
		}
		if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
			aliased[imports[x.Name]+"."+sel.Sel.Name] = true
		}
	}
}

// recvName returns the receiver's base type name, "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
