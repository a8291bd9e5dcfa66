package rdp

// DESIGN.md is the map a reader takes to the code; these tests keep the
// names it quotes declared and the section pointers into it live.
//
//   - §4's module map: each back-quoted identifier in the third column of
//     a row whose first column names a Go package (`internal/x`, or `rdp`
//     for the root) is a package-level declaration of that package: a
//     type, a func or method, or a var, exported or not.
//   - Every back-quoted `pkg.Name`, `pkg.Type.Member` or `Type.Member`
//     resolves: a package-level declaration of the tree's package, or a
//     field, method or interface method of the type, promoted ones
//     included.
//   - Every back-quoted bare identifier with an upper-case letter is
//     declared somewhere in the tree, test files included, so a test's
//     name may be quoted.
//   - Every back-quoted perf metric name (`layer.snake_case`) is one of
//     the names perf/ declares in its metric tables.
//   - A `DESIGN §N` or `DESIGN.md §N` in a Go comment, ROADMAP.md,
//     README.md or EXPERIMENTS.md names a `## N.` heading of DESIGN.md.
//     CHANGES.md is history and is not read.
//
// Declarations come from go/parser over the tree's non-test files; the
// bare-name rule also reads the test files' declarations.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// typeInfo is what a type declares as members, and the types whose
// members it promotes (embedded fields, and an alias's target).
type typeInfo struct {
	members  map[string]bool
	promotes []typeRef
}

type typeRef struct{ dir, name string }

// goComment is one comment group's text and where it starts.
type goComment struct{ where, text string }

// designIndex is the tree's declarations, read with go/parser.
type designIndex struct {
	pkgDirs  map[string][]string             // package name → directories (package main is left out)
	decls    map[string]map[string]bool      // directory → package-level names: type, func, var, const
	mapDecls map[string]map[string]bool      // directory → what §4 accepts: type, func, method, var
	types    map[string]map[string]*typeInfo // directory → type name → members
	typeDirs map[string][]string             // type name → directories declaring it
	names    map[string]bool                 // every identifier declared anywhere, test files included
	metrics  map[string]bool                 // perf/'s metric names
	comments []goComment                     // every comment group of every Go file, test files included
}

func newDesignIndex() *designIndex {
	return &designIndex{
		pkgDirs:  map[string][]string{},
		decls:    map[string]map[string]bool{},
		mapDecls: map[string]map[string]bool{},
		types:    map[string]map[string]*typeInfo{},
		typeDirs: map[string][]string{},
		names:    map[string]bool{},
		metrics:  map[string]bool{},
	}
}

var (
	treeIndexOnce sync.Once
	treeIndex     *designIndex
	treeIndexErr  error
)

// loadTree indexes the module rooted at the working directory once per
// test binary.
func loadTree(t *testing.T) *designIndex {
	t.Helper()
	treeIndexOnce.Do(func() { treeIndex, treeIndexErr = indexTree() })
	if treeIndexErr != nil {
		t.Fatal(treeIndexErr)
	}
	return treeIndex
}

// treeModule is the import path of the module at the working directory,
// so embedded types from the tree's own packages resolve.
const treeModule = "repro"

// indexTree parses every Go file under the working directory.
func indexTree() (*designIndex, error) {
	const root = "."
	ix := newDesignIndex()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, g := range f.Comments {
			ix.comments = append(ix.comments, goComment{fset.Position(g.Pos()).String(), g.Text()})
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasSuffix(name, "_test.go") {
			ix.addNames(f)
			return nil
		}
		ix.addFile(dir, f)
		if dir == "perf" {
			ix.addMetrics(f)
		}
		return nil
	})
	return ix, err
}

// addFile indexes one non-test file of the package in dir.
func (ix *designIndex) addFile(dir string, f *ast.File) {
	if f.Name.Name != "main" && !slices.Contains(ix.pkgDirs[f.Name.Name], dir) {
		ix.pkgDirs[f.Name.Name] = append(ix.pkgDirs[f.Name.Name], dir)
	}
	if ix.decls[dir] == nil {
		ix.decls[dir], ix.mapDecls[dir], ix.types[dir] = map[string]bool{}, map[string]bool{}, map[string]*typeInfo{}
	}
	imports := map[string]string{} // local name → directory in the tree
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		rel, ok := strings.CutPrefix(p, treeModule+"/")
		if !ok {
			continue
		}
		local := filepath.Base(rel)
		if im.Name != nil {
			local = im.Name.Name
		}
		imports[local] = rel
	}
	ref := func(e ast.Expr) (typeRef, bool) {
		for {
			switch x := e.(type) {
			case *ast.StarExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.IndexListExpr:
				e = x.X
				continue
			case *ast.Ident:
				return typeRef{dir, x.Name}, true
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
					return typeRef{imports[pkg.Name], x.Sel.Name}, true
				}
			}
			return typeRef{}, false
		}
	}
	info := func(name string) *typeInfo {
		ti := ix.types[dir][name]
		if ti == nil {
			ti = &typeInfo{members: map[string]bool{}}
			ix.types[dir][name] = ti
			ix.typeDirs[name] = append(ix.typeDirs[name], dir)
		}
		return ti
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				ix.decls[dir][d.Name.Name] = true
			} else if r, ok := ref(d.Recv.List[0].Type); ok {
				info(r.name).members[d.Name.Name] = true
			}
			ix.mapDecls[dir][d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					ix.decls[dir][s.Name.Name] = true
					ix.mapDecls[dir][s.Name.Name] = true
					ti := info(s.Name.Name)
					if s.Assign.IsValid() {
						if r, ok := ref(s.Type); ok {
							ti.promotes = append(ti.promotes, r)
						}
					}
					switch tt := s.Type.(type) {
					case *ast.StructType:
						for _, fld := range tt.Fields.List {
							for _, n := range fld.Names {
								ti.members[n.Name] = true
							}
							if len(fld.Names) == 0 {
								if r, ok := ref(fld.Type); ok {
									ti.members[r.name] = true
									ti.promotes = append(ti.promotes, r)
								}
							}
						}
					case *ast.InterfaceType:
						for _, m := range tt.Methods.List {
							for _, n := range m.Names {
								ti.members[n.Name] = true
							}
							if len(m.Names) == 0 {
								if r, ok := ref(m.Type); ok {
									ti.promotes = append(ti.promotes, r)
								}
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						ix.decls[dir][n.Name] = true
						if d.Tok == token.VAR {
							ix.mapDecls[dir][n.Name] = true
						}
					}
				}
			}
		}
	}
	ix.addNames(f)
}

// addNames records every identifier f declares, at any depth: package
// names, fields, methods, parameters and locals.
func (ix *designIndex) addNames(f *ast.File) {
	add := func(ids []*ast.Ident) {
		for _, id := range ids {
			ix.names[id.Name] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			add([]*ast.Ident{x.Name})
		case *ast.TypeSpec:
			add([]*ast.Ident{x.Name})
		case *ast.ValueSpec:
			add(x.Names)
		case *ast.Field:
			add(x.Names)
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				for _, e := range x.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						add([]*ast.Ident{id})
					}
				}
			}
		}
		return true
	})
}

// addMetrics records the metric names of a perf/ file: the string of
// every `Name:` in a composite literal, which is how perf's metric tables
// are written.
func (ix *designIndex) addMetrics(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if kv, ok := n.(*ast.KeyValueExpr); ok {
			k, isKey := kv.Key.(*ast.Ident)
			lit, isLit := kv.Value.(*ast.BasicLit)
			if isKey && k.Name == "Name" && isLit && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				ix.metrics[name] = true
			}
		}
		return true
	})
}

// member reports whether the type name in dir has the member m, its own
// or promoted.
func (ix *designIndex) member(dir, name, m string, seen map[typeRef]bool) bool {
	r := typeRef{dir, name}
	ti := ix.types[dir][name]
	if ti == nil || seen[r] {
		return false
	}
	seen[r] = true
	if ti.members[m] {
		return true
	}
	for _, p := range ti.promotes {
		if ix.member(p.dir, p.name, m, seen) {
			return true
		}
	}
	return false
}

// resolveQualified checks a dotted Go name: pkg.Name, pkg.Type.Member or
// Type.Member. It returns "" when the name resolves, else the reason.
func (ix *designIndex) resolveQualified(segs []string) string {
	if dirs := ix.pkgDirs[segs[0]]; len(dirs) > 0 {
		for _, dir := range dirs {
			switch {
			case len(segs) == 2 && ix.decls[dir][segs[1]]:
				return ""
			case len(segs) == 3 && ix.member(dir, segs[1], segs[2], map[typeRef]bool{}):
				return ""
			}
		}
		if len(segs) == 2 {
			return "package " + segs[0] + " declares no " + segs[1]
		}
		return "package " + segs[0] + " has no type " + segs[1] + " with a member " + segs[2]
	}
	if len(segs) == 2 {
		if dirs := ix.typeDirs[segs[0]]; len(dirs) > 0 {
			for _, dir := range dirs {
				if ix.member(dir, segs[0], segs[1], map[typeRef]bool{}) {
					return ""
				}
			}
			return "no type " + segs[0] + " has a member " + segs[1]
		}
	}
	return segs[0] + " is neither a package nor a type"
}

var (
	codeSpan   = regexp.MustCompile("`([^`\n]+)`")
	dottedName = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*){1,2}$`)
	bareName   = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)
	snakeName  = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)
	fileExts   = map[string]bool{"go": true, "md": true, "json": true, "sh": true, "txt": true, "trace": true,
		"golden": true, "pprof": true, "mod": true, "yml": true, "replay": true, "csv": true}
)

// normalizeSpan takes a code span to the name it quotes: a pointer or
// slice prefix, a type-argument list and a trailing argument list go.
func normalizeSpan(s string) string {
	s = strings.TrimSpace(s)
	for {
		t := strings.TrimPrefix(strings.TrimPrefix(strings.TrimPrefix(s, "*"), "&"), "[]")
		if t == s {
			break
		}
		s = t
	}
	for _, pair := range [][2]string{{"(", ")"}, {"[", "]"}} {
		if strings.HasSuffix(s, pair[1]) {
			if i := strings.Index(s, pair[0]); i > 0 {
				s = s[:i]
			}
		}
	}
	return s
}

// checkSpan checks one code span and returns "" or the reason it fails.
// A span that is not a name (an expression, a command, a file) passes.
func (ix *designIndex) checkSpan(span string) string {
	s := normalizeSpan(span)
	switch {
	case dottedName.MatchString(s):
		segs := strings.Split(s, ".")
		if fileExts[segs[len(segs)-1]] {
			return ""
		}
		if ix.metrics[s] {
			return ""
		}
		if snakeName.MatchString(s) && strings.Contains(s, "_") {
			return "not a metric of perf/'s tables"
		}
		return ix.resolveQualified(segs)
	case bareName.MatchString(s) && strings.ToLower(s) != s:
		if !ix.names[s] {
			return "declared nowhere in the tree"
		}
	}
	return ""
}

// checkDoc checks every code span of a DESIGN.md text and §4's module
// map; it returns one line per failure.
func (ix *designIndex) checkDoc(doc string) []string {
	var bad []string
	seen := map[string]bool{}
	for i, line := range strings.Split(doc, "\n") {
		for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
			if seen[m[1]] {
				continue
			}
			seen[m[1]] = true
			if why := ix.checkSpan(m[1]); why != "" {
				bad = append(bad, "DESIGN.md:"+strconv.Itoa(i+1)+": `"+m[1]+"`: "+why)
			}
		}
	}
	return append(bad, ix.checkModuleMap(doc)...)
}

// checkModuleMap holds §4's rule: each identifier of a package row's
// third column is a package-level declaration of that package.
func (ix *designIndex) checkModuleMap(doc string) []string {
	var bad []string
	on := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			on = strings.HasPrefix(line, "## 4. ")
			continue
		}
		cells := strings.Split(line, "|")
		if !on || len(cells) < 5 {
			continue
		}
		pkg := strings.TrimLeft(cells[1], " `")
		if j := strings.IndexAny(pkg, "` "); j >= 0 {
			pkg = pkg[:j]
		}
		if pkg == "rdp" {
			pkg = "."
		} else if !strings.HasPrefix(pkg, "internal/") {
			continue
		}
		for _, m := range codeSpan.FindAllStringSubmatch(cells[3], -1) {
			if bareName.MatchString(m[1]) && !ix.mapDecls[pkg][m[1]] {
				bad = append(bad, "DESIGN.md:"+strconv.Itoa(i+1)+": §4 names `"+m[1]+"` in "+pkg+", which does not declare it")
			}
		}
	}
	return bad
}

var (
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. `)
	designPointer = regexp.MustCompile(`DESIGN(?:\.md)?\s+§\s*(\d+)`)
)

// designSections is the set of DESIGN.md's numbered `## N.` headings.
func designSections(doc string) map[string]bool {
	s := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(doc, -1) {
		s[m[1]] = true
	}
	return s
}

// checkPointers returns each `DESIGN §N` of text whose N is no section.
func checkPointers(where, text string, sections map[string]bool) []string {
	var bad []string
	for _, m := range designPointer.FindAllStringSubmatch(text, -1) {
		if !sections[m[1]] {
			bad = append(bad, where+": "+strings.Join(strings.Fields(m[0]), " ")+" names no section of DESIGN.md")
		}
	}
	return bad
}

func readDesign(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestDesignNamesDeclared(t *testing.T) {
	ix := loadTree(t)
	doc := readDesign(t)
	for _, line := range ix.checkDoc(doc) {
		t.Error(line)
	}
}

func TestDesignPointersResolve(t *testing.T) {
	sections := designSections(readDesign(t))
	var bad []string
	for _, name := range []string{"ROADMAP.md", "README.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		bad = append(bad, checkPointers(name, string(b), sections)...)
	}
	for _, c := range loadTree(t).comments {
		bad = append(bad, checkPointers(c.where, c.text, sections)...)
	}
	sort.Strings(bad)
	for _, line := range bad {
		t.Error(line)
	}
}

// TestDesignCheckerFixtures holds the checker itself to names the tree
// has deleted or never had, and to names it must accept.
func TestDesignCheckerFixtures(t *testing.T) {
	ix := loadTree(t)
	const mapHead = "## 4. System inventory\n\n| Package | Role | Key types |\n|---|---|---|\n"
	cases := []struct {
		name, doc string
		ok        bool
	}{
		{"a field a proxy no longer has", "`Proxy.leaseAt`", false},
		{"a method quoted as a package function", "`rdpcore.DetachMH`", false},
		{"a method quoted as a package function", "`aggstate.MemBytes`", false},
		{"a deleted type", "`proxyBatch`", false},
		{"a deleted type's field", "`proxyBatch.deadlineEpoch`", false},
		{"a member of no type", "`World.leaseAt`", false},
		{"an unknown qualifier", "`Nowhere.Send`", false},
		{"a metric perf does not report", "`sim.events_per_frame`", false},
		{"a module-map row naming another package's type", mapHead + "| `internal/sim` | kernel | `Kernel`, `Proxy` |\n", false},
		{"a module-map row naming a constant", mapHead + "| `internal/scenario` | table | `Walks` |\n", false},
		{"a method of a type", "`World.DetachMH`", true},
		{"a method through the package", "`aggstate.Set.MemBytes`", true},
		{"an interface method", "`netsim.WiredTransport.Send`", true},
		{"a field", "`msg.Leg.Payload`", true},
		{"a promoted field", "`proxyImage.Reqs`", true},
		{"a generic type with its argument", "`sim.Calls[hostTimer]`", true},
		{"a test's name", "`TestDesignCheckerFixtures`", true},
		{"a standard-library name", "`testing.AllocsPerRun`", false},
		{"perf metrics", "`sim.events_per_result` and `rdpcore.mss_handle_ns.request`", true},
		{"a file, a command and an expression", "`mss.go`, `go test ./...`, `now−at < window`", true},
		{"a module-map row of the package's own names", mapHead + "| `internal/sim` | kernel | `Kernel`, `Scheduler`, `Time`, `RNG` |\n| `rdp` (root) | facade | `World` |\n", true},
	}
	for _, c := range cases {
		bad := ix.checkDoc(c.doc)
		if c.ok != (len(bad) == 0) {
			t.Errorf("%s: %q: checker says %q, want ok=%v", c.name, c.doc, bad, c.ok)
		}
	}

	sections := map[string]bool{"4": true, "10": true}
	pointers := []struct {
		text string
		ok   bool
	}{
		{"see DESIGN §10, Hops", true},
		{"(DESIGN.md §4)", true},
		{"DESIGN\n§10", true},
		{"see DESIGN §15", false},
		{"DESIGN.md §11 has it", false},
		{"PAPER.md §3.1 and §17", true},
	}
	for _, p := range pointers {
		if bad := checkPointers("fixture", p.text, sections); p.ok != (len(bad) == 0) {
			t.Errorf("pointer %q: checker says %q, want ok=%v", p.text, bad, p.ok)
		}
	}
}
