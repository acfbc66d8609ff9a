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
	parseTree(t, token.NewFileSet(), func(path string, f *ast.File) {
		if !strings.HasSuffix(path, "_test.go") {
			ix.addFile(f)
			return
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && testFunc.MatchString(fn.Name.Name) {
				tests[fn.Name.Name] = true
			}
		}
	})
	return ix, tests
}

// parseTree parses every Go file of the tree, benchmark/ included, outside
// testdata and hidden directories, and hands each to visit.
func parseTree(t *testing.T, fset *token.FileSet, visit func(path string, f *ast.File)) {
	t.Helper()
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
		visit(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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

// shippedExceptions are the exported names under internal/ that no shipped
// file calls, each with the reason it stays: pkg.Name for a function,
// pkg.Type.Name for a method, pkg for a whole package (pkg is its directory
// under internal/), and a bare Name for a method of any type that is called
// through an interface.
var shippedExceptions = map[string]string{
	"dgraph.DistGraph.GatherToRoot": "test oracle: the whole graph at rank 0",
	"dgraph.DistGraph.Validate":     "test oracle: the assembly's invariants",
	"graph.CSR.Validate":            "test oracle: a CSR's invariants",
	"partition.Partition.Validate":  "test oracle: a partition's bounds",
	"obsv.StructureLines":           "test oracle: the golden traces' structure",
	"gen.PlantedPartition":          "test input: a graph with a known partition",
	"dgraph.Shuffle.Allocated":      "test hook: the shuffle's buffer high-water mark",
	"obsv.Registry.Records":         "test hook: the registry's timeline",
	"mpi.FaultTransport.Sends":      "test hook: the sends a fault plan counted",
	"mpi.RunCollect":                "test hook: every rank's result",
	"core.KernelBench.Sweep":        "test hook: the kernel benchmark's sweep",
	"flat.Table.At":                 "test hook: a table's i-th entry",
	"flat.PairTable.At":             "test hook: a pair table's i-th entry",
	"graph.CSR.Clone":               "test hook: a copy to corrupt",
	"MarshalJSON":                   "called through json.Marshaler",
	"Unwrap":                        "called through errors.Is and errors.As",
	"chaosnet":                      "a test-only package: only cmd/dlouvain's tests import it",
}

// TestExportsHaveShippedCallers keeps test helpers out of the shipped
// packages: every exported function and method declared in a non-test file
// under internal/ must be referenced by a non-test file of the module, of
// cmd/, examples/ or benchmark/ (its own package included), or be one of
// shippedExceptions. A function counts as referenced when its package's
// files name it, or a file that imports the package selects it; a method,
// when any file selects its name, since go/ast knows no receiver types.
func TestExportsHaveShippedCallers(t *testing.T) {
	type export struct{ key, pos string }
	var exports []export
	uses, methods := map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	parseTree(t, fset, func(path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") {
			return
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := "distlouvain/" + dir
		imports := map[string]string{}
		for _, im := range f.Imports {
			ipath, _ := strconv.Unquote(im.Path.Value)
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ipath
		}
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !strings.HasPrefix(dir, "internal/") || !fn.Name.IsExported() {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				key = pkg + "." + typeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			exports = append(exports, export{key, fset.Position(fn.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				declared[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					uses[imports[x.Name]+"."+n.Sel.Name] = true
				} else {
					methods[n.Sel.Name] = true
				}
			case *ast.Ident:
				if !declared[n] {
					uses[pkg+"."+n.Name] = true
				}
			}
			return true
		})
	})
	for _, e := range exports {
		rel := strings.TrimPrefix(e.key, "distlouvain/internal/")
		parts := strings.Split(rel, ".")
		name, method := parts[len(parts)-1], len(parts) == 3
		switch {
		case shippedExceptions[rel] != "", shippedExceptions[parts[0]] != "", method && shippedExceptions[name] != "":
		case uses[e.key], method && methods[name]:
		default:
			t.Errorf("%s: %s has no caller outside tests", e.pos, rel)
		}
	}
	if len(exports) == 0 {
		t.Fatal("no exported functions found under internal/; the scan is broken")
	}
	t.Logf("%d exported functions and methods checked", len(exports))
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

// TestMakefileRunSelectorsMatch keeps every -run selector of the Makefile
// selecting something: each |-separated alternative of a -run pattern must
// match the name of some func Test… of a test file (`^$`, which selects
// nothing on purpose, aside), or a deleted test could leave `make test-chaos`
// or `make test-frontier` running nothing and passing.
func TestMakefileRunSelectorsMatch(t *testing.T) {
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, tests := indexTree(t)
	checked := 0
	for _, m := range regexp.MustCompile(`-run (?:'([^']*)'|(\S+))`).FindAllStringSubmatch(strings.ReplaceAll(string(raw), "$$", "$"), -1) {
		for _, alt := range strings.Split(m[1]+m[2], "|") {
			if alt == "^$" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile: -run alternative %q: %v", alt, err)
				continue
			}
			checked++
			matched := false
			for name := range tests {
				matched = matched || strings.HasPrefix(name, "Test") && re.MatchString(name)
			}
			if !matched {
				t.Errorf("Makefile: -run alternative %q of %q matches no test", alt, m[0])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run selectors found in the Makefile; the scan is broken")
	}
	t.Logf("%d -run alternatives checked", checked)
}

// designCeiling is DESIGN.md's size in bytes: it may shrink, never grow. A PR
// that shrinks the document lowers the ceiling to the new size. No "## "
// section of it may pass sectionCeiling, and README.md may not pass
// readmeCeiling, so text cut from DESIGN.md cannot move there instead.
const (
	designCeiling  = 49606
	sectionCeiling = 6144
	readmeCeiling  = 26649
)

// changesEntryCap bounds each CHANGES.md entry after changesCapFrom, in bytes:
// an entry says what changed and where, and the design goes in DESIGN.md.
const (
	changesEntryCap = 1536
	changesCapFrom  = 40
)

// TestDocsRatchet holds the size ceilings: DESIGN.md under designCeiling and
// each of its sections under sectionCeiling, README.md under readmeCeiling,
// each CHANGES.md entry ("PR N…" up to the next entry) after PR
// changesCapFrom under changesEntryCap.
func TestDocsRatchet(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(design) > designCeiling {
		t.Errorf("DESIGN.md is %d bytes, over its ceiling of %d", len(design), designCeiling)
	}
	sections := designSections(string(design))
	if len(sections) == 0 {
		t.Fatal("no DESIGN.md sections found; the scan is broken")
	}
	for _, sec := range sections {
		if len(sec.text) > sectionCeiling {
			t.Errorf("DESIGN.md %q is %d bytes, over the section ceiling of %d", sec.heading, len(sec.text), sectionCeiling)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(readme) > readmeCeiling {
		t.Errorf("README.md is %d bytes, over its ceiling of %d", len(readme), readmeCeiling)
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

// designSection is one "## " section of DESIGN.md: its heading line, its
// number when the heading is "## N. …" (else 0), and its text from the
// heading up to the next "## " heading.
type designSection struct {
	heading string
	number  int
	text    string
}

var sectionNumber = regexp.MustCompile(`^## (\d+)\. `)

func designSections(doc string) []designSection {
	var out []designSection
	lines := strings.SplitAfter(doc, "\n")
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "## ") {
			continue
		}
		sec := designSection{heading: strings.TrimSpace(lines[i])}
		if m := sectionNumber.FindStringSubmatch(lines[i]); m != nil {
			sec.number, _ = strconv.Atoi(m[1])
		}
		var b strings.Builder
		b.WriteString(lines[i])
		for i+1 < len(lines) && !strings.HasPrefix(lines[i+1], "## ") {
			i++
			b.WriteString(lines[i])
		}
		sec.text = b.String()
		out = append(out, sec)
	}
	return out
}

// designCitation is `DESIGN §N`, `DESIGN.md §N` or a bare `DESIGN`, then
// optionally a quoted title (escaped inside a Go string literal).
var designCitation = regexp.MustCompile(`DESIGN(?:\.md)?(?: §(\d+))?(?:,? \\?"([^"\\]+)\\?")?`)

// TestDesignCitationsResolve keeps the pointers into DESIGN.md pointing at
// something: every DESIGN §N in a Go file (test files included), ROADMAP.md or
// README.md must name a "## N." heading of DESIGN.md, and a quoted title after
// it must occur, in any case, in that section — or anywhere in DESIGN.md when
// no section is named (DESIGN "kernel memory layout"). CHANGES.md is history
// and is not checked.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[int]string{}
	for _, sec := range designSections(string(design)) {
		if sec.number > 0 {
			sections[sec.number] = strings.ToLower(sec.text)
		}
	}
	whole := strings.ToLower(string(design))
	files := []string{"ROADMAP.md", "README.md"}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designCitation.FindAllStringSubmatch(string(src), -1) {
			within := whole
			if m[1] != "" {
				n, _ := strconv.Atoi(m[1])
				var ok bool
				if within, ok = sections[n]; !ok {
					t.Errorf("%s: %q names no \"## %d.\" section of DESIGN.md", path, m[0], n)
					continue
				}
			}
			if m[1] == "" && m[2] == "" {
				continue
			}
			checked++
			if m[2] != "" && !strings.Contains(within, strings.ToLower(m[2])) {
				t.Errorf("%s: %q: DESIGN.md has no %q there", path, m[0], m[2])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no DESIGN citations found; the scan is broken")
	}
	t.Logf("%d DESIGN citations checked", checked)
}
