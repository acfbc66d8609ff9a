package distlouvain

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents whose code citations must name real code.
var docFiles = []string{"DESIGN.md", "README.md"}

var (
	// codeSpan is one inline backtick span; fenced blocks are dropped first.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// citation is pkg.Name, optionally followed by .Member.
	citation = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
	// flagSpan is a code span that starts with a flag; flagName is every
	// flag in it, at its start or after a space.
	flagSpan = regexp.MustCompile(`^-[a-zA-Z]`)
	flagName = regexp.MustCompile(`(?:^|\s)-([a-zA-Z][\w-]*)`)
)

// pkgIndex is what a package's non-test files declare: top-level names,
// and for each type its fields and methods.
type pkgIndex struct {
	decls    map[string]bool
	members  map[string]map[string]bool
	anywhere map[string]bool // every field and method name, of any type
}

func (ix *pkgIndex) addMember(typ, name string) {
	if ix.members[typ] == nil {
		ix.members[typ] = make(map[string]bool)
	}
	ix.members[typ][name] = true
	ix.anywhere[name] = true
}

// typeName is the name a receiver or embedded field type refers to, with
// pointers, type parameters and package qualifiers stripped.
func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return typeName(t.X)
	case *ast.IndexExpr:
		return typeName(t.X)
	case *ast.IndexListExpr:
		return typeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.Ident:
		return t.Name
	}
	return ""
}

func newPkgIndex() *pkgIndex {
	return &pkgIndex{decls: map[string]bool{}, members: map[string]map[string]bool{}, anywhere: map[string]bool{}}
}

func indexPackage(t *testing.T, dir string) *pkgIndex {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	ix := newPkgIndex()
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ix.addFile(f)
	}
	return ix
}

// addFile records what one file declares.
func (ix *pkgIndex) addFile(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil && len(d.Recv.List) == 1 {
				ix.addMember(typeName(d.Recv.List[0].Type), d.Name.Name)
			} else {
				ix.decls[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						ix.decls[n.Name] = true
					}
				case *ast.TypeSpec:
					ix.decls[s.Name.Name] = true
					ix.indexType(s.Name.Name, s.Type)
				}
			}
		}
	}
}

// indexType records the fields (embedded ones by type name) and interface
// methods of one type declaration.
func (ix *pkgIndex) indexType(typ string, e ast.Expr) {
	var fields *ast.FieldList
	switch t := e.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return
	}
	for _, fl := range fields.List {
		if len(fl.Names) == 0 {
			ix.addMember(typ, typeName(fl.Type))
		}
		for _, n := range fl.Names {
			ix.addMember(typ, n.Name)
		}
	}
}

// stripFences drops fenced code blocks: they hold shell sessions, not
// citations of Go identifiers.
func stripFences(doc string) string {
	var b strings.Builder
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestDocReferencesResolve keeps the documents honest about the code: every
// pkg.Name inside a backtick span of DESIGN.md or README.md, where pkg is a
// directory under internal/ or cmd/, must be declared in that package's
// non-test files (as a top-level name, a method or a struct field), a cited
// pkg.Type.Member must be a field or method of that type, and a span that is
// a bare mixed-case identifier must resolve too (checkBareIdentifiers).
func TestDocReferencesResolve(t *testing.T) {
	dirs := map[string]string{}
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs[e.Name()] = filepath.Join(root, e.Name())
			}
		}
	}
	indexes := map[string]*pkgIndex{}
	tree, tests := indexTree(t)
	checked, bare := 0, 0
	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		spans := codeSpan.FindAllStringSubmatch(stripFences(string(raw)), -1)
		bare += checkBareIdentifiers(t, doc, spans, tree, tests)
		for _, span := range spans {
			for _, m := range citation.FindAllStringSubmatch(span[1], -1) {
				pkg, name, member := m[1], m[2], m[3]
				dir, ok := dirs[pkg]
				if !ok {
					continue
				}
				if indexes[pkg] == nil {
					indexes[pkg] = indexPackage(t, dir)
				}
				ix := indexes[pkg]
				checked++
				cited := pkg + "." + name
				switch {
				case !ix.decls[name] && !ix.anywhere[name]:
					t.Errorf("%s: `%s` is not declared in %s", doc, cited, dir)
				case member != "" && ix.members[name] != nil && !ix.members[name][member]:
					t.Errorf("%s: `%s.%s` is not a field or method of %s", doc, cited, member, cited)
				}
			}
		}
	}
	if checked == 0 || bare == 0 {
		t.Fatalf("%d pkg.Name citations and %d bare identifiers found; the scan is broken", checked, bare)
	}
	t.Logf("%d citations and %d bare identifiers checked", checked, bare)
}

// bareIdent is a code span that is one identifier, optionally called
// (`setGhost`, `GhostSlot()`); mixedCase says it has both an upper- and a
// lower-case letter, which sets a Go name apart from a word or an acronym.
var (
	bareIdent = regexp.MustCompile(`^([A-Za-z_]\w*)(?:\(\))?$`)
	mixedCase = regexp.MustCompile(`[a-z].*[A-Z]|[A-Z].*[a-z]`)
	testFunc  = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)[A-Z_]`)
)

// notGoNames are the mixed-case words the documents put in code spans that
// name nothing declared in the tree, each with what it is instead.
var notGoNames = map[string]string{
	"A_c":          "the paper's notation for a community's incident weight",
	"aCur":         "a local variable of evaluateVertex",
	"p2pB":         "a column heading of obsv's phase report",
	"collB":        "a column heading of obsv's phase report",
	"Oscillation":  "a -run pattern of make test-frontier",
	"Setpgid":      "a field of the standard library's syscall.SysProcAttr",
	"AllocsPerRun": "a function of the standard library's testing package",
	"prevRemote":   "a map the community slot tables replaced, now the slot oracle's",
	"remoteInfo":   "a map the community slot tables replaced",
}

// indexTree indexes what the tree's non-test Go files declare, every package
// in one index, and returns it with the set of tests, benchmarks, fuzz
// targets and examples the test files declare.
func indexTree(t *testing.T) (*pkgIndex, map[string]bool) {
	t.Helper()
	ix, tests := newPkgIndex(), map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(path, "_test.go") {
			ix.addFile(f)
			return nil
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && testFunc.MatchString(fn.Name.Name) {
				tests[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix, tests
}

// checkBareIdentifiers is the second half of TestDocReferencesResolve: a code
// span that is one bare mixed-case identifier (`setGhost`, `GhostSlot`,
// `renumberOwned`) must name something the tree declares — a non-test
// top-level name, field or method of any package, or, for a
// Test/Benchmark/Fuzz/Example name, a function of a test file — or be one of
// notGoNames. It returns how many it checked.
func checkBareIdentifiers(t *testing.T, doc string, spans [][]string, ix *pkgIndex, tests map[string]bool) int {
	t.Helper()
	checked := 0
	for _, span := range spans {
		m := bareIdent.FindStringSubmatch(span[1])
		if m == nil || !mixedCase.MatchString(m[1]) {
			continue
		}
		name := m[1]
		checked++
		switch {
		case notGoNames[name] != "":
		case testFunc.MatchString(name):
			if !tests[name] {
				t.Errorf("%s: `%s` is not a test, benchmark, fuzz target or example of any test file", doc, span[1])
			}
		case !ix.decls[name] && !ix.anywhere[name]:
			t.Errorf("%s: `%s` is declared nowhere in the tree", doc, span[1])
		}
	}
	return checked
}

// goToolFlags are flags of the go command and of test binaries that the
// documents cite in passing; no main package here defines them.
var goToolFlags = map[string]bool{
	"race": true, "count": true, "run": true, "bench": true, "benchtime": true,
	"benchmem": true, "memprofilerate": true,
}

// flagDefiners are the flag package's defining functions and FlagSet
// methods, by the position of the flag's name among their arguments.
var flagDefiners = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0,
	"Float64": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
	"StringVar": 1, "Float64Var": 1, "DurationVar": 1, "Var": 1, "TextVar": 1,
}

// definedFlags returns every flag name a flag-defining call in a main
// package under cmd/ or in benchmark/ spells out as a string literal.
func definedFlags(t *testing.T) map[string]bool {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join("cmd", "*"))
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range append(dirs, "benchmark") {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			if f.Name.Name != "main" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				at, ok := flagDefiners[sel.Sel.Name]
				if !ok || len(call.Args) <= at {
					return true
				}
				if lit, ok := call.Args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						flags[name] = true
					}
				}
				return true
			})
		}
	}
	return flags
}

// TestDocFlagsResolve is the flag half of the doc check: every flag in a
// code span of DESIGN.md or README.md that starts with one (`-np 3`,
// `-transport tcp -coord …`) must be defined by some command's flag set, or
// be one of the go tool's.
func TestDocFlagsResolve(t *testing.T) {
	defined := definedFlags(t)
	if len(defined) == 0 {
		t.Fatal("no flag definitions found; the scan is broken")
	}
	checked := 0
	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAllStringSubmatch(stripFences(string(raw)), -1) {
			if !flagSpan.MatchString(span[1]) {
				continue
			}
			for _, m := range flagName.FindAllStringSubmatch(span[1], -1) {
				checked++
				if !defined[m[1]] && !goToolFlags[m[1]] {
					t.Errorf("%s: `-%s` (in `%s`) is not a flag any command defines", doc, m[1], span[1])
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -flag citations found; the scan is broken")
	}
	t.Logf("%d flag citations checked against %d defined flags", checked, len(defined))
}

// TestFuzzTargetsListed keeps `make fuzz` the one list of fuzz targets: every
// func Fuzz* of a test file needs a `$(GO) test ./<its package> -fuzz <Name>`
// line in the Makefile, and every such line must name a target that exists.
func TestFuzzTargetsListed(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\t\$\(GO\) test \./(\S+) -fuzz (\w+) `).FindAllStringSubmatch(string(raw), -1) {
		listed[m[1]+" "+m[2]] = true
	}
	found := map[string]bool{}
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			found[filepath.ToSlash(filepath.Dir(path))+" "+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("no fuzz targets found; the scan is broken")
	}
	for target := range found {
		if !listed[target] {
			dir, name, _ := strings.Cut(target, " ")
			t.Errorf("%s/%s is not in make fuzz: add `$(GO) test ./%s -fuzz %s -fuzztime $(FUZZTIME)`", dir, name, dir, name)
		}
	}
	for target := range listed {
		if !found[target] {
			t.Errorf("make fuzz lists %q, which no test file declares", target)
		}
	}
}

// designCeiling is DESIGN.md's size in bytes: it may shrink, never grow. A PR
// that shrinks the document lowers the ceiling to the new size.
const designCeiling = 135186

// changesEntryCap bounds each CHANGES.md entry after changesCapFrom, in bytes:
// an entry says what changed and where, and the design goes in DESIGN.md.
const (
	changesEntryCap = 1536
	changesCapFrom  = 40
)

// TestDocsRatchet holds the size ceilings: DESIGN.md under designCeiling, each
// CHANGES.md entry ("PR N…" up to the next entry) after PR changesCapFrom
// under changesEntryCap.
func TestDocsRatchet(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(design) > designCeiling {
		t.Errorf("DESIGN.md is %d bytes, over its ceiling of %d", len(design), designCeiling)
	}
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entry := regexp.MustCompile(`(?m)^PR (\d+)\b`)
	starts := entry.FindAllSubmatchIndex(changes, -1)
	if len(starts) == 0 {
		t.Fatal("no CHANGES.md entries found; the scan is broken")
	}
	for i, m := range starts {
		end := len(changes)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		pr, _ := strconv.Atoi(string(changes[m[2]:m[3]]))
		if size := len(bytes.TrimSpace(changes[m[0]:end])); pr > changesCapFrom && size > changesEntryCap {
			t.Errorf("CHANGES.md entry of PR %d is %d bytes, over the cap of %d", pr, size, changesEntryCap)
		}
	}
}
