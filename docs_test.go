package distlouvain

import (
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

func indexPackage(t *testing.T, dir string) *pkgIndex {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	ix := &pkgIndex{decls: map[string]bool{}, members: map[string]map[string]bool{}, anywhere: map[string]bool{}}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
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
	return ix
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
// non-test files (as a top-level name, a method or a struct field), and a
// cited pkg.Type.Member must be a field or method of that type.
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
	checked := 0
	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAllStringSubmatch(stripFences(string(raw)), -1) {
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
	if checked == 0 {
		t.Fatal("no pkg.Name citations found; the scan is broken")
	}
	t.Logf("%d citations checked", checked)
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
