package bellflower

import (
	"bufio"
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

// The exported-surface ratchet. Every exported function, method, type, var
// and const of an internal package, and every exported field of a struct
// named *Config or *Options in one, must be referenced by a non-test file of
// the root module or of benchmark/, outside its own declaration. A method
// that satisfies an interface the program uses counts as referenced. The
// few exemptions live in surfaceAllowlistFile, one reason per line; an entry
// that no longer exempts anything fails too, so the list can only shrink.

const (
	surfaceAllowlistFile = "testdata/exported_surface.allow"
	// surfaceAllowlistMax caps the allowlist at its current length: lower
	// it when an entry goes, never raise it.
	surfaceAllowlistMax = 9
)

func TestExportedSurface(t *testing.T) {
	scan, err := scanSurface(".", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readSurfaceAllowlist(surfaceAllowlistFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(allow) > surfaceAllowlistMax {
		t.Errorf("%s has %d entries; at most %d allowed", surfaceAllowlistFile, len(allow), surfaceAllowlistMax)
	}
	for _, msg := range scan.check(allow) {
		t.Error(msg)
	}
}

// TestExportedSurfaceScanner runs the scanner over a fixture module
// (testdata/surface) and its benchmark-like second module. It must flag an
// exported func nothing calls, one that only lib_test.go calls and a Config
// field nothing sets; it must not flag ByName's sort.Interface methods or
// BenchOnly, which only the second module calls.
func TestExportedSurfaceScanner(t *testing.T) {
	root := filepath.Join("testdata", "surface")
	scan, err := scanSurface(root, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range scan {
		got = append(got, f.id+" "+f.pos)
	}
	want := []string{
		"internal/lib.Config.Unset internal/lib/lib.go:12",
		"internal/lib.TestOnly internal/lib/lib.go:25",
		"internal/lib.Unused internal/lib/lib.go:22",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("unreferenced:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// An entry per finding, or one for the whole package, exempts them all.
	for _, allow := range []map[string]string{
		{"internal/lib.Config.Unset": "r", "internal/lib.TestOnly": "r", "internal/lib.Unused": "r"},
		{"internal/lib": "r"},
	} {
		if msgs := scan.check(allow); len(msgs) != 0 {
			t.Errorf("check(%v) = %q, want nothing", allow, msgs)
		}
	}
	// An entry that exempts nothing is stale: its identifier is referenced,
	// or gone.
	msgs := scan.check(map[string]string{"internal/lib": "r", "internal/lib.Used": "r", "internal/lib.Gone": "r"})
	want = []string{
		"testdata/exported_surface.allow: stale entry internal/lib.Gone: it is referenced outside tests or no longer exists",
		"testdata/exported_surface.allow: stale entry internal/lib.Used: it is referenced outside tests or no longer exists",
	}
	if strings.Join(msgs, "\n") != strings.Join(want, "\n") {
		t.Errorf("stale entries reported:\n%s\nwant:\n%s", strings.Join(msgs, "\n"), strings.Join(want, "\n"))
	}
}

// surfaceFinding is one unreferenced identifier: id is its module-relative
// package path and name ("internal/serve.Router.Shard"), pos its file:line
// relative to the first module scanned.
type surfaceFinding struct{ id, pos string }

type surfaceFindings []surfaceFinding

// check returns one message per unreferenced identifier that allow does not
// exempt and one per allow entry that exempts nothing. An entry names an
// identifier, or a whole package by its path.
func (fs surfaceFindings) check(allow map[string]string) []string {
	var msgs []string
	used := map[string]bool{}
	for _, f := range fs {
		slash := strings.LastIndexByte(f.id, '/')
		pkg := f.id[:slash+1+strings.IndexByte(f.id[slash+1:], '.')]
		switch {
		case allow[f.id] != "":
			used[f.id] = true
		case allow[pkg] != "":
			used[pkg] = true
		default:
			msgs = append(msgs, fmt.Sprintf("%s: %s has no reference outside its declaration and _test.go files", f.pos, f.id))
		}
	}
	var stale []string
	for id := range allow {
		if !used[id] {
			stale = append(stale, fmt.Sprintf("%s: stale entry %s: it is referenced outside tests or no longer exists", surfaceAllowlistFile, id))
		}
	}
	sort.Strings(stale)
	return append(msgs, stale...)
}

// readSurfaceAllowlist reads "id reason..." lines; blank lines and lines
// starting with # are skipped, and every entry needs a reason.
func readSurfaceAllowlist(name string) (map[string]string, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: entry %s has no reason", name, n, id)
		}
		if allow[id] != "" {
			return nil, fmt.Errorf("%s:%d: duplicate entry %s", name, n, id)
		}
		allow[id] = strings.TrimSpace(reason)
	}
	return allow, sc.Err()
}

type surfacePkg struct {
	path, rel string // import path; path relative to its module
	files     []*ast.File
	types     *types.Package
	info      *types.Info
}

type surfaceScanner struct {
	fset *token.FileSet
	pkgs map[string]*surfacePkg
	std  types.Importer
}

// scanSurface type-checks the non-test files of the modules rooted at dirs
// (one go.mod each; nested modules, testdata and dot directories are
// skipped) and returns the identifiers nothing references.
func scanSurface(dirs ...string) (surfaceFindings, error) {
	s := &surfaceScanner{fset: token.NewFileSet(), pkgs: map[string]*surfacePkg{}, std: importer.Default()}
	for _, dir := range dirs {
		if err := s.load(dir); err != nil {
			return nil, err
		}
	}
	var paths []string
	for p := range s.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := s.check(s.pkgs[p]); err != nil {
			return nil, err
		}
	}
	return s.analyze(dirs[0], paths)
}

func (s *surfaceScanner) load(root string) error {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		return fmt.Errorf("%s/go.mod: no module line", root)
	}
	return filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		p := &surfacePkg{path: modPath, rel: filepath.ToSlash(rel)}
		if p.rel != "." {
			p.path += "/" + p.rel
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		s.pkgs[p.path] = p
		return nil
	})
}

// Import resolves the scanned modules' packages from source and everything
// else from the toolchain's export data.
func (s *surfaceScanner) Import(path string) (*types.Package, error) {
	p, ok := s.pkgs[path]
	if !ok {
		return s.std.Import(path)
	}
	if err := s.check(p); err != nil {
		return nil, err
	}
	return p.types, nil
}

func (s *surfaceScanner) check(p *surfacePkg) error {
	if p.types != nil {
		return nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: s}
	tp, err := conf.Check(p.path, s.fset, p.files, p.info)
	if err != nil {
		return fmt.Errorf("type-checking %s: %w", p.path, err)
	}
	p.types = tp
	return nil
}

// surfaceDecl is a candidate identifier and the source range of its own
// declaration, inside which references to it do not count.
type surfaceDecl struct {
	id         string
	pos, end   token.Pos
	recv       *types.Named // for methods: the receiver's base type
	referenced bool
}

func (s *surfaceScanner) analyze(root string, paths []string) (surfaceFindings, error) {
	decls := map[types.Object]*surfaceDecl{}
	add := func(p *surfacePkg, obj types.Object, name string, node ast.Node) *surfaceDecl {
		d := &surfaceDecl{id: p.rel + "." + name, pos: node.Pos(), end: node.End()}
		decls[obj] = d
		return d
	}
	for _, path := range paths {
		p := s.pkgs[path]
		if !isInternal(p.rel) {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if !decl.Name.IsExported() {
						continue
					}
					obj := p.info.Defs[decl.Name]
					if decl.Recv == nil {
						add(p, obj, decl.Name.Name, decl)
						continue
					}
					recv := obj.Type().(*types.Signature).Recv().Type()
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					named := recv.(*types.Named)
					add(p, obj, named.Obj().Name()+"."+decl.Name.Name, decl).recv = named
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							if spec.Name.IsExported() {
								add(p, p.info.Defs[spec.Name], spec.Name.Name, spec)
							}
							st, ok := spec.Type.(*ast.StructType)
							if !ok || !(strings.HasSuffix(spec.Name.Name, "Config") || strings.HasSuffix(spec.Name.Name, "Options")) {
								continue
							}
							for _, field := range st.Fields.List {
								for _, name := range field.Names {
									if name.IsExported() {
										add(p, p.info.Defs[name], spec.Name.Name+"."+name.Name, field)
									}
								}
							}
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								if name.IsExported() {
									add(p, p.info.Defs[name], name.Name, spec)
								}
							}
						}
					}
				}
			}
		}
	}

	// A method's receiver names its own type; that is part of the type's
	// declaration, not a reference to it.
	recvIdents := map[*ast.Ident]bool{}
	for _, path := range paths {
		for _, f := range s.pkgs[path].files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recvIdents[id] = true
						}
						return true
					})
				}
			}
		}
	}
	for _, path := range paths {
		for id, obj := range s.pkgs[path].info.Uses {
			d := decls[origin(obj)]
			if d == nil || recvIdents[id] || (id.Pos() >= d.pos && id.Pos() < d.end) {
				continue
			}
			d.referenced = true
		}
	}

	ifaces := s.usedInterfaces(paths)
	var res surfaceFindings
	for obj, d := range decls {
		if d.referenced || (d.recv != nil && satisfiesUsed(d.recv, obj.Name(), ifaces)) {
			continue
		}
		pos := s.fset.Position(d.pos)
		file, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			return nil, err
		}
		res = append(res, surfaceFinding{id: d.id, pos: fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line)})
	}
	sort.Slice(res, func(i, j int) bool { return res[i].id < res[j].id })
	return res, nil
}

func isInternal(rel string) bool { return strings.Contains("/"+rel+"/", "/internal/") }

// origin maps a generic instantiation's method or field back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// usedInterfaces returns every non-empty interface type that appears in
// the type of an expression or a referenced object of the scanned
// packages (a parameter of sort.Sort, a field of type matcher.Matcher, …),
// plus those the standard library checks for dynamically.
func (s *surfaceScanner) usedInterfaces(paths []string) []*types.Interface {
	var out []*types.Interface
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Interface:
			if t.NumMethods() > 0 {
				out = append(out, t)
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		}
	}
	for _, path := range paths {
		info := s.pkgs[path].info
		for _, tv := range info.Types {
			walk(tv.Type)
		}
		for _, obj := range info.Uses {
			walk(obj.Type())
		}
	}
	walk(types.Universe.Lookup("error").Type())
	for _, name := range []string{"fmt.Stringer", "fmt.GoStringer", "fmt.Formatter", "encoding.TextMarshaler", "encoding.TextUnmarshaler", "encoding/json.Marshaler", "encoding/json.Unmarshaler"} {
		dot := strings.LastIndexByte(name, '.')
		if pkg, err := s.std.Import(name[:dot]); err == nil {
			walk(pkg.Scope().Lookup(name[dot+1:]).Type())
		}
	}
	return out
}

// satisfiesUsed reports whether T or *T implements one of ifaces through a
// method called name.
func satisfiesUsed(t *types.Named, name string, ifaces []*types.Interface) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				has = true
				break
			}
		}
		if has && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}
