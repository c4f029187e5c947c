// Command deadexports is doccheck's third check: no dead surface in
// internal/. It type-checks every package of the given modules with
// go/types and reports each package-level func, const, var and type, and
// each method, declared in a non-test file of an internal/ package (exported
// or not) that no non-test file of those modules uses, and each unexported
// field of a package-level struct type there that no non-test file reads: a
// field that is only assigned, incremented, set in a composite literal or
// has an element stored is state nothing observes, while a struct compared
// with == or != or used as a map key reads every field. Every use resolves to
// one object, so a name that another type also declares does not count as a
// use. A method is not reported when its type or the pointer to it
// implements, by types.Implements, an interface of the modules or of an
// imported standard-library package that has that method (fmt.Stringer,
// json.Unmarshaler, error). The exceptions are listed in an allowlist file,
// one symbol per line as package.Name, package.Type.Method or
// package.Type.field followed by a reason; a line without a reason, or one
// naming a symbol that is not reported, fails too.
//
// Usage, from the repository root:
//
//	go run ./scripts/deadexports scripts/api_allowlist.txt . vriobench
//
// The first argument is the allowlist, the rest are module directories. It
// prints one line per problem and exits 1 if there is any.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: deadexports ALLOWLIST MODULEDIR...")
		os.Exit(2)
	}
	unused, err := unusedSymbols(os.Args[2:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(2)
	}
	problems, err := check(os.Args[1], unused)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// check returns the problems the allowlist leaves among the unused symbols
// (symbol to declaration position): unused symbols it does not list, its
// lines without a reason, and its lines naming a symbol that is not unused.
// They are sorted.
func check(allowlist string, unused map[string]string) ([]string, error) {
	f, err := os.Open(allowlist)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var problems []string
	listed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "#"):
		case len(fields) < 2:
			problems = append(problems, fmt.Sprintf("%s:%d: %s has no reason", allowlist, n, fields[0]))
		case unused[fields[0]] == "":
			problems = append(problems, fmt.Sprintf("%s:%d: %s is not an unused symbol; drop the line", allowlist, n, fields[0]))
		default:
			listed[fields[0]] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for sym, pos := range unused {
		if !listed[sym] {
			problems = append(problems, fmt.Sprintf("%s: %s is used by no non-test code (delete it, move it to export_test.go, or allowlist it)", pos, sym))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// listedPackage is the part of `go list -json` output the check reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// unusedSymbols type-checks the non-test files of every package of the
// modules and returns each unused internal/ symbol, as package.Name,
// package.Type.Method or package.Type.field, with the position of its
// declaration.
func unusedSymbols(modules []string) (map[string]string, error) {
	fset := token.NewFileSet()
	imp := &moduleImporter{checked: map[string]*types.Package{}, std: importer.ForCompiler(fset, "source", nil)}
	used := map[types.Object]bool{}
	var declared []symbol
	for _, dir := range modules {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Standard || imp.checked[p.ImportPath] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
			pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
			if err != nil {
				return nil, err
			}
			imp.checked[p.ImportPath] = pkg
			writes := fieldWrites(files)
			for id, obj := range info.Uses {
				if v, ok := obj.(*types.Var); ok && v.IsField() && writes[id] {
					continue
				}
				used[origin(obj)] = true
			}
			for e, tv := range info.Types {
				if m, ok := tv.Type.Underlying().(*types.Map); ok {
					readFields(m.Key(), used)
				} else if b, ok := e.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
					readFields(info.TypeOf(b.X), used)
				}
			}
			if isInternal(p.ImportPath) {
				declared = append(declared, packageSymbols(pkg)...)
			}
		}
	}
	ifaces := interfaces(imp.checked)
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	unused := map[string]string{}
	for _, s := range declared {
		if used[s.obj] {
			continue
		}
		if _, method := s.obj.(*types.Func); method && s.recv != nil && implementsInterface(s.recv, s.obj.Name(), ifaces) {
			continue
		}
		name := s.obj.Pkg().Name() + "." + s.obj.Name()
		if s.recv != nil {
			name = s.obj.Pkg().Name() + "." + s.recv.Obj().Name() + "." + s.obj.Name()
		}
		pos := fset.Position(s.obj.Pos())
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
		unused[name] = fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
	}
	return unused, nil
}

// goList lists, in dependency order, every package the module in dir builds
// and every package they import.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// moduleImporter hands out the module packages already checked, which go
// list's dependency order puts before their importers, and type-checks the
// standard library from source.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.checked[path]; p != nil {
		return p, nil
	}
	return m.std.Import(path)
}

// isInternal reports whether a package path has an internal element.
func isInternal(importPath string) bool {
	return strings.Contains("/"+importPath+"/", "/internal/")
}

// origin maps a use of an instantiated generic function, method or field to
// the object its declaration made.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// fieldWrites returns the identifiers in files that name what a statement
// stores to rather than reads: the selector of an assignment's or an
// increment's target, of the slice, array or map whose element is the
// target, and a composite literal's keys.
func fieldWrites(files []*ast.File) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	var target func(ast.Expr)
	target = func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			writes[x.Sel] = true
		case *ast.IndexExpr:
			target(x.X)
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(x.X)
			case *ast.KeyValueExpr:
				if key, ok := x.Key.(*ast.Ident); ok {
					writes[key] = true
				}
			}
			return true
		})
	}
	return writes
}

// readFields marks every field of a struct type t, or of the structs it
// holds by value, as read: comparing a t or hashing it as a map key reads
// them all.
func readFields(t types.Type, used map[types.Object]bool) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			used[u.Field(i).Origin()] = true
			readFields(u.Field(i).Type(), used)
		}
	case *types.Array:
		readFields(u.Elem(), used)
	}
}

// symbol is a declared object and, for a method or a field, the type it is
// declared on.
type symbol struct {
	obj  types.Object
	recv *types.Named
}

// packageSymbols returns the package-level funcs, consts, vars and types of
// pkg, the methods declared on its types, and the unexported fields, other
// than embedded ones, of its struct types.
func packageSymbols(pkg *types.Package) []symbol {
	var syms []symbol
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		syms = append(syms, symbol{obj: obj})
		if tn, ok := obj.(*types.TypeName); !ok || tn.IsAlias() {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			syms = append(syms, symbol{named.Method(i), named})
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); !f.Exported() && !f.Embedded() {
					syms = append(syms, symbol{f, named})
				}
			}
		}
	}
	return syms
}

// interfaces returns the non-generic named interfaces with methods declared
// at package level in the checked packages and in every standard-library
// package they import, directly or not, and error.
func interfaces(checked map[string]*types.Package) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				ifaces = append(ifaces, iface)
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range checked {
		walk(pkg)
	}
	return ifaces
}

// implementsInterface reports whether the pointer to recv (whose method set
// holds recv's own) implements one of ifaces that has a method named
// method: a call through that interface uses it.
func implementsInterface(recv *types.Named, method string, ifaces []*types.Interface) bool {
	if recv.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(recv)
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == method && types.Implements(ptr, iface) {
				return true
			}
		}
	}
	return false
}
