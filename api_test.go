package igq

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the exported functions, methods, types and vars of the
// root package and internal/ that no non-test code reads but that stay,
// each with its reason. TestEveryExportedNameHasAReader fails on an entry
// whose name is gone or has gained a reader.
var apiAllowlist = map[string]string{
	"repro.Engine.LoadIndex": "only reader of the index-only lineage written by SaveIndexFile/AppendIndexDelta (igqserve -delta); ROADMAP items 2/14 decide it",

	// Test instruments: exported because tests of other packages use them.
	"repro/internal/graph.Graph.Validate":                "structural invariants the codec, generator and mutation tests assert",
	"repro/internal/graph.Graph.InducedSubgraph":         "builds query graphs with a known answer",
	"repro/internal/graph.Graph.BFSOrder":                "connected vertex orders for planted queries",
	"repro/internal/iso.Isomorphic":                      "the codec round-trip tests compare graphs up to isomorphism",
	"repro/internal/index.NewBruteForce":                 "the filter-free reference method answers are compared against",
	"repro/internal/features.Dict.TableLen":              "path-table size pins of the features, ggsx width and lazy-load tests",
	"repro/internal/trie.Trie.Walk":                      "key-ordered content dumps of the trie, ggsx and Grapes tests",
	"repro/internal/partition.Group.Dataset":             "restore order of a mutated group for the partition and serving-matrix restore tests; no program restores a group after mutations",
	"repro/internal/persistio.NewMemFile":                "in-memory file of the crash sweeps",
	"repro/internal/persistio.MemFile.Bytes":             "the bytes that reached the simulated disk",
	"repro/internal/persistio.NewFaultFile":              "fault-injecting file of the crash sweeps",
	"repro/internal/persistio.NewMemMapped":              "in-memory mapped snapshot for the lazy-load tests",
	"repro/internal/persistio.NewFaultMapped":            "read-fault injection for the lazy-load tests",
	"repro/internal/persistio.FaultMapped.FailReads":     "read-fault injection for the lazy-load tests",
	"repro/internal/persistio.FaultFile.CrashAfterBytes": "crash point of the byte-granularity crash sweeps",
	"repro/internal/persistio.FaultFile.FailNextSync":    "sync-failure injection of the crash sweeps",
	"repro/internal/persistio.FaultFile.Written":         "bytes that reached the simulated disk in the crash sweeps",
	"repro/internal/persistio.MemFile.Clone":             "forks the simulated disk at a crash point",
}

// TestEveryExportedNameHasAReader type-checks the module, its commands and
// examples and the benchmark harness (bench/, a module of its own), and
// fails on every exported function, method, type or var of the root
// package and internal/ that no non-test file reads and that apiAllowlist
// does not name, and on every allowlist entry that is stale.
func TestEveryExportedNameHasAReader(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	res, err := scanAPI(".", []string{"bench"}, apiAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range res.unread {
		t.Errorf("%s has no non-test reader: delete it, or add it to apiAllowlist with the reason it stays", name)
	}
	for _, msg := range res.stale {
		t.Errorf("stale apiAllowlist entry %s", msg)
	}
	if len(apiAllowlist) > 25 {
		t.Errorf("apiAllowlist has %d entries, want at most 25", len(apiAllowlist))
	}
	for name, why := range apiAllowlist {
		if strings.TrimSpace(why) == "" {
			t.Errorf("apiAllowlist entry %s gives no reason", name)
		}
	}
}

// TestAPIScanFlagsWhatItShould runs the scan over a small module written
// for the purpose.
func TestAPIScanFlagsWhatItShould(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module tiny\n\ngo 1.24\n",
		"internal/a/a.go": `package a

type Shape interface{ Area() int }

type Square struct{}

// Area is read only through Shape.
func (Square) Area() int { return 1 }

func Used()     {}
func Dead()     { Dead() }
func TestOnly() {}
func Listed()   {}
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestTestOnly(t *testing.T) { TestOnly() }
`,
		"cmd/run/main.go": `package main

import "tiny/internal/a"

func main() {
	var s a.Shape = a.Square{}
	_ = s.Area()
	a.Used()
}
`,
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := map[string]string{
		"tiny/internal/a.Listed": "kept",
		"tiny/internal/a.Gone":   "deleted since",
		"tiny/internal/a.Used":   "read since",
	}
	res, err := scanAPI(root, nil, allow)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"tiny/internal/a.Dead", "tiny/internal/a.TestOnly"}; fmt.Sprint(res.unread) != fmt.Sprint(want) {
		t.Errorf("unread = %v, want %v", res.unread, want)
	}
	if len(res.stale) != 2 || !strings.HasPrefix(res.stale[0], "tiny/internal/a.Gone") || !strings.HasPrefix(res.stale[1], "tiny/internal/a.Used") {
		t.Errorf("stale = %q, want entries for a.Gone and a.Used", res.stale)
	}
}

// apiScanResult is what scanAPI found: the unread exported names that no
// allowlist entry covers, and a message per stale allowlist entry.
type apiScanResult struct {
	unread, stale []string
}

// scanAPI type-checks, from source and without test files, every package
// of the module rooted at root and of the reader modules below it (paths
// relative to root), and reports each exported function, method, type and
// var of the module's root package and internal/ that no file reads
// outside its own declaration. A name is "path.Name" or
// "path.Type.Method", path being the import path. A method also counts as
// read when it implements an interface method some file calls, or has the
// name of a method standard-library interfaces call. Constants are enum
// members and exempt.
func scanAPI(root string, readers []string, allow map[string]string) (apiScanResult, error) {
	var res apiScanResult
	s := &apiScanner{
		fset:    token.NewFileSet(),
		dirs:    map[string]string{},
		pkgs:    map[string]*types.Package{},
		info:    &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		filePkg: map[*ast.File]string{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	module, err := s.addModule(root)
	if err != nil {
		return res, err
	}
	for _, r := range readers {
		if _, err := s.addModule(filepath.Join(root, r)); err != nil {
			return res, err
		}
	}
	var paths []string
	for p := range s.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := s.Import(p); err != nil {
			return res, err
		}
	}

	// Candidates of the scope packages, with the source ranges that do not
	// count as reads: a declaration itself, and a type's method receivers.
	type candidate struct {
		own  [][2]token.Pos
		read bool
	}
	cands := map[types.Object]*candidate{}
	byName := map[string]*candidate{}
	add := func(obj types.Object, name string, from, to token.Pos) {
		c := &candidate{own: [][2]token.Pos{{from, to}}}
		cands[obj], byName[name] = c, c
	}
	for _, f := range s.files {
		path := s.filePkg[f]
		if path != module && !strings.HasPrefix(path, module+"/internal/") {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				obj := s.info.Defs[d.Name].(*types.Func)
				name := path + "." + d.Name.Name
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					name = path + "." + recvName(recv.Type()) + "." + d.Name.Name
				}
				add(obj, name, d.Pos(), d.End())
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							add(s.info.Defs[sp.Name], path+"."+sp.Name.Name, sp.Pos(), sp.End())
						}
					case *ast.ValueSpec:
						if d.Tok != token.VAR {
							continue
						}
						for _, id := range sp.Names {
							if id.IsExported() {
								add(s.info.Defs[id], path+"."+id.Name, sp.Pos(), sp.End())
							}
						}
					}
				}
			}
		}
	}
	for _, f := range s.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				recv := s.info.Defs[fd.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
				if named, ok := deref(recv).(*types.Named); ok {
					if c := cands[named.Obj()]; c != nil {
						c.own = append(c.own, [2]token.Pos{fd.Recv.Pos(), fd.Recv.End()})
					}
				}
			}
		}
	}

	// Reads, and the interface methods some file calls.
	var called []*types.Func
	for id, obj := range s.info.Uses {
		obj = origin(obj)
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called = append(called, fn)
			}
		}
		c := cands[obj]
		if c == nil || c.read {
			continue
		}
		self := false
		for _, r := range c.own {
			self = self || (id.Pos() >= r[0] && id.Pos() < r[1])
		}
		c.read = !self
	}
	for obj, c := range cands {
		fn, ok := obj.(*types.Func)
		if c.read || !ok {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		if stdInterfaceMethods[fn.Name()] {
			c.read = true
			continue
		}
		t := deref(recv.Type())
		for _, im := range called {
			if im.Name() != fn.Name() {
				continue
			}
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
				c.read = true
				break
			}
		}
	}

	for name, c := range byName {
		if _, ok := allow[name]; !c.read && !ok {
			res.unread = append(res.unread, name)
		}
	}
	for name := range allow {
		switch c := byName[name]; {
		case c == nil:
			res.stale = append(res.stale, name+": no such exported name")
		case c.read:
			res.stale = append(res.stale, name+": it has a reader now")
		}
	}
	sort.Strings(res.unread)
	sort.Strings(res.stale)
	return res, nil
}

// stdInterfaceMethods are the method names standard-library interfaces
// call (error, fmt.Stringer, io, sort, heap, json, http.Handler, errors.Is
// and As), which a scan of this module alone cannot see being called.
var stdInterfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"String": true, "GoString": true, "Format": true,
	"Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadAt": true, "WriteAt": true, "ReadFrom": true, "WriteTo": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true,
}

func recvName(t types.Type) string {
	if named, ok := deref(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

func deref(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// origin maps an instantiated generic function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// apiScanner type-checks the packages of a set of modules into one
// types.Info, and the standard library from source.
type apiScanner struct {
	fset    *token.FileSet
	std     types.Importer
	dirs    map[string]string // import path -> directory
	pkgs    map[string]*types.Package
	info    *types.Info
	files   []*ast.File
	filePkg map[*ast.File]string
}

// addModule records the directory of every package of the module rooted
// at dir, nested modules and testdata left out, and returns its path.
func (s *apiScanner) addModule(dir string) (string, error) {
	mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	var module string
	for _, l := range strings.Split(string(mod), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(l), "module "); ok {
			module = strings.TrimSpace(m)
		}
	}
	if module == "" {
		return "", fmt.Errorf("%s/go.mod names no module", dir)
	}
	err = filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if path != dir && (strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_") || e.Name() == "testdata" || isModule(path)) {
			return filepath.SkipDir
		}
		if matches, _ := filepath.Glob(filepath.Join(path, "*.go")); len(matches) > 0 {
			rel, err := filepath.Rel(dir, path)
			if err != nil {
				return err
			}
			s.dirs[filepath.ToSlash(filepath.Join(module, rel))] = path
		}
		return nil
	})
	return module, err
}

// Import type-checks the module package at path from its non-test files,
// or hands a standard-library path to the source importer.
func (s *apiScanner) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	dir, ok := s.dirs[path]
	if !ok {
		return s.std.Import(path)
	}
	s.pkgs[path] = nil
	bp, err := build.ImportDir(dir, 0)
	if noGo := (*build.NoGoError)(nil); errors.As(err, &noGo) {
		return nil, nil // test files only
	} else if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	for _, f := range files {
		s.files = append(s.files, f)
		s.filePkg[f] = path
	}
	s.pkgs[path] = p
	return p, nil
}
