package bench

import (
	"bytes"
	"encoding/json"
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
	"testing"
)

// surfaceHarness names the test-infrastructure code that only tests
// reach by design. Everything it declares counts as reached, and so does
// whatever it calls.
var surfaceHarness = map[string]string{
	"internal/testfix":        "shared integration-test fixture (trained analyzer, fixture flights)",
	"internal/leakcheck":      "goroutine-leak assertion imported by the concurrent suites",
	"internal/chaos/fleet.go": "fleet fault harness (replica kill, partition, wipe) driven by the fleet soaks",
}

// surfaceKeep lists declarations that only tests reach but stay, each
// with the reason. Keys are "<package dir>.<Name>" or
// "<package dir>.<Recv>.<Name>" for methods.
var surfaceKeep = map[string]string{
	"internal/mavbus.Bus.Replay": "reads the replay ring that mavbus.NewBus(replayN) sizes; the benchmark module calls NewBus with that argument",
}

// surfaceInterfaces are the standard-library interfaces a method may
// satisfy to be called without a static reference (by fmt, encoding/json,
// net/http, io and the errors machinery). Interfaces declared in the
// module are added to these.
var surfaceInterfaces = []struct{ pkg, name string }{
	{"builtin", "error"},
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"net/http", "Handler"},
	{"net/http", "RoundTripper"},
	{"io", "Reader"},
	{"io", "Closer"},
}

// TestExportedSurface type-checks the module and the servebench module
// and fails when a function, method or type declared in a non-test file
// of a library package is reached by no non-test code: not by a command,
// an example, the benchmark, or any library code those reach. Such a
// declaration exists only for its tests; delete it (and the tests that
// only check it), or put it on surfaceKeep with the reason it stays.
func TestExportedSurface(t *testing.T) {
	offenders, stale, err := scanSurface(".", "servebench")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range stale {
		t.Errorf("surfaceKeep entry %q names nothing only tests reach; drop it", k)
	}
	if len(offenders) > 0 {
		t.Errorf("%d declarations are reached only by tests:\n%s", len(offenders), strings.Join(offenders, "\n"))
	}
}

// listedPackage is the subset of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Path, Dir string }
}

// goList runs `go list -deps -export -json ./...` in dir and returns the
// packages in dependency order.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// surfaceDecl is one package-level declaration of the module.
type surfaceDecl struct {
	key      string // surfaceKeep key
	pos      string // file:line, relative to the module root
	report   bool   // a function, method or type of a library package
	root     bool   // reached by definition (commands, harness, vars, init)
	recv     *types.TypeName
	uses     []types.Object
	ifaceSat bool // a method that satisfies an interface
}

// scanSurface loads the module at root plus the extra consumer modules,
// and returns the "file:line key" of every library declaration no
// non-test code reaches, and the keep-list entries that no longer name
// such a declaration.
func scanSurface(root string, consumers ...string) (offenders, stale []string, err error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	var listed []listedPackage
	for _, dir := range append([]string{root}, consumers...) {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, nil, err
		}
		listed = append(listed, pkgs...)
	}
	mainModule := ""
	for _, p := range listed {
		if p.Module != nil && filepath.Clean(p.Module.Dir) == absRoot {
			mainModule = p.Module.Path
			break
		}
	}
	if mainModule == "" {
		return nil, nil, fmt.Errorf("no package of the module at %s listed", absRoot)
	}

	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})

	info := &types.Info{
		Uses: map[*ast.Ident]types.Object{},
		Defs: map[*ast.Ident]types.Object{},
	}
	decls := map[types.Object]*surfaceDecl{}
	var order []types.Object
	var ifaces []*types.Interface
	// errors.Is, errors.As and errors.Unwrap call Unwrap through an
	// unnamed interface.
	unwrap := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false)
	ifaces = append(ifaces, types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete())
	for _, name := range surfaceInterfaces {
		if name.pkg == "builtin" {
			ifaces = append(ifaces, types.Universe.Lookup(name.name).Type().Underlying().(*types.Interface))
			continue
		}
		p, err := imp.Import(name.pkg)
		if err != nil {
			return nil, nil, err
		}
		ifaces = append(ifaces, p.Scope().Lookup(name.name).Type().Underlying().(*types.Interface))
	}

	for _, lp := range listed {
		if lp.Module == nil || lp.Module.Path != mainModule && !strings.HasPrefix(lp.ImportPath, mainModule+"/") {
			continue
		}
		if _, done := checked[lp.ImportPath]; done {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		rel, _ := filepath.Rel(absRoot, lp.Dir)
		rel = filepath.ToSlash(rel)
		library := lp.Name != "main"
		_, harnessPkg := surfaceHarness[rel]
		for _, f := range files {
			file, _ := filepath.Rel(absRoot, fset.File(f.Pos()).Name())
			file = filepath.ToSlash(file)
			_, harnessFile := surfaceHarness[file]
			harness := harnessPkg || harnessFile
			add := func(obj types.Object, node ast.Node, report, root bool) {
				d := &surfaceDecl{
					key:    rel + "." + obj.Name(),
					pos:    fmt.Sprintf("%s:%d", file, fset.Position(obj.Pos()).Line),
					report: library && report,
					root:   !library || harness || root,
				}
				ast.Inspect(node, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if u := info.Uses[id]; u != nil {
							d.uses = append(d.uses, origin(u))
						}
					}
					return true
				})
				if fn, ok := obj.(*types.Func); ok {
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						d.recv = namedOf(recv.Type()).Obj()
						d.key = rel + "." + d.recv.Name() + "." + obj.Name()
						d.uses = append(d.uses, d.recv)
					}
				}
				decls[obj] = d
				order = append(order, obj)
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[decl.Name]
					root := decl.Recv == nil && decl.Name.Name == "init"
					add(obj, decl, true, root)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(info.Defs[spec.Name], spec, true, false)
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								obj := info.Defs[name]
								if obj == nil {
									continue // blank: a compile-time assertion
								}
								// A variable's initializer runs whether or
								// not anything reads it; constants are
								// reached only through their readers.
								_, isVar := obj.(*types.Var)
								add(obj, spec, false, isVar)
							}
						}
					}
				}
			}
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && tn.Type().(*types.Named).TypeParams() == nil {
					ifaces = append(ifaces, it)
				}
			}
		}
	}

	// A method satisfying an interface may be called through it.
	for obj, d := range decls {
		fn, ok := obj.(*types.Func)
		if !ok || d.recv == nil {
			continue
		}
		ptr := types.NewPointer(d.recv.Type())
		for _, it := range ifaces {
			if m, _ := types.MissingMethod(ptr, it, false); m == nil && hasMethod(it, fn.Name()) {
				d.ifaceSat = true
				break
			}
		}
	}

	// Reach once without the keep-list, to tell which of its entries
	// still name test-only declarations, and once with it, since a kept
	// declaration keeps what it calls.
	bare := reach(order, decls, func(*surfaceDecl) bool { return false })
	for k := range surfaceKeep {
		found := false
		for _, o := range order {
			if d := decls[o]; d.key == k && !bare[o] && d.report && !d.ifaceSat {
				found = true
			}
		}
		if !found {
			stale = append(stale, k)
		}
	}
	reached := reach(order, decls, func(d *surfaceDecl) bool { return surfaceKeep[d.key] != "" })
	for _, o := range order {
		if d := decls[o]; !reached[o] && d.report && !d.ifaceSat {
			offenders = append(offenders, d.pos+" "+d.key)
		}
	}
	sort.Strings(stale)
	return offenders, stale, nil
}

// reach returns the declarations reached from the roots, the
// declarations keep accepts, and the interface methods of reached types.
func reach(order []types.Object, decls map[types.Object]*surfaceDecl, keep func(*surfaceDecl) bool) map[types.Object]bool {
	reached := map[types.Object]bool{}
	var queue []types.Object
	mark := func(o types.Object) {
		if _, ok := decls[o]; ok && !reached[o] {
			reached[o] = true
			queue = append(queue, o)
		}
	}
	for _, o := range order {
		if d := decls[o]; d.root || keep(d) {
			mark(o)
		}
	}
	for len(queue) > 0 {
		for len(queue) > 0 {
			o := queue[0]
			queue = queue[1:]
			for _, u := range decls[o].uses {
				mark(u)
			}
		}
		for _, o := range order {
			if d := decls[o]; d.ifaceSat && reached[d.recv] {
				mark(o)
			}
		}
	}
	return reached
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic function or method to its
// declaration.
func origin(o types.Object) types.Object {
	if fn, ok := o.(*types.Func); ok {
		return fn.Origin()
	}
	return o
}

// namedOf returns the named type behind a receiver (T or *T).
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}
