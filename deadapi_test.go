package sriov

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The dead-API gate: production code is what production calls. Every
// exported identifier declared under internal/ must be referenced by some
// non-test Go file of this module or of benchmark/ (a subdirectory, so one
// walk from the repository root covers both). An accessor only a test reads
// belongs in that test's file, or nowhere.
//
// Counting a reference is syntactic:
//   - a top-level identifier is referenced by any use other than its own
//     declaration: an unqualified use in its own package, or pkg.Name in a
//     file that imports the package;
//   - a method is referenced by any selector with its name (x.M, T.M), since
//     that is how an interface call reaches it too;
//   - methods that satisfy a standard-library interface (stdlibMethods) are
//     called by the standard library, not by name, and are exempt.
//
// deadAPIAllow lists the exceptions. Each entry carries its reason, and an
// entry that has become referenced fails the gate, so the list only shrinks.
var deadAPIAllow = map[string]string{}

// stdlibMethods are method names the standard library calls through an
// interface (fmt.Stringer, error, sort.Interface, heap.Interface,
// json.Marshaler, http.Handler, flag.Value, io.Reader/Writer/Closer).
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Set": true, "Read": true, "Write": true, "Close": true,
}

func TestNoDeadInternalAPI(t *testing.T) {
	dead, err := deadAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range checkDeadAPI(dead, deadAPIAllow) {
		t.Error(p)
	}
}

// TestDeadAPIGateFixture runs the gate's scan over a planted tree: an
// exported func and a method that only a test calls are reported, live ones
// and a String method are not, and a stale or reasonless allowlist entry
// fails the check.
func TestDeadAPIGateFixture(t *testing.T) {
	dead, err := deadAPI(filepath.Join("testdata", "deadapi"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/lib.T.Dead", "internal/lib.Unused"}
	if strings.Join(dead, " ") != strings.Join(want, " ") {
		t.Fatalf("dead = %v, want %v", dead, want)
	}
	if p := checkDeadAPI(dead, map[string]string{
		"internal/lib.T.Dead": "fixture",
		"internal/lib.Unused": "fixture",
	}); len(p) != 0 {
		t.Fatalf("fully allowlisted scan reported %v", p)
	}
	problems := checkDeadAPI(dead, map[string]string{
		"internal/lib.Unused": "",        // no reason
		"internal/lib.Used":   "fixture", // stale: cmd/tool references it
	})
	wantPrefixes := []string{
		"internal/lib.T.Dead: exported, but no non-test file references it",
		"internal/lib.Unused: allowlist entry has no reason",
		"internal/lib.Used: allowlisted, but referenced or gone",
	}
	if len(problems) != len(wantPrefixes) {
		t.Fatalf("problems = %q, want %d", problems, len(wantPrefixes))
	}
	for i, w := range wantPrefixes {
		if !strings.HasPrefix(problems[i], w) {
			t.Errorf("problem %d = %q, want prefix %q", i, problems[i], w)
		}
	}
}

// checkDeadAPI compares the scan's findings with an allowlist and returns
// one message per problem: an unlisted dead identifier, a listed one that is
// no longer dead, or a listed one without a reason.
func checkDeadAPI(dead []string, allow map[string]string) []string {
	var problems []string
	isDead := make(map[string]bool, len(dead))
	for _, id := range dead {
		isDead[id] = true
		if _, ok := allow[id]; !ok {
			problems = append(problems, id+": exported, but no non-test file references it; delete it or move it into the test that uses it")
		}
	}
	for id, reason := range allow {
		switch {
		case !isDead[id]:
			problems = append(problems, id+": allowlisted, but referenced or gone; drop the allowlist entry")
		case strings.TrimSpace(reason) == "":
			problems = append(problems, id+": allowlist entry has no reason")
		}
	}
	sort.Strings(problems)
	return problems
}

// scannedFile is what deadAPI keeps of one parsed file.
type scannedFile struct {
	dir     string             // slash path of the file's directory, relative to the root
	imports map[string]string  // local import name -> scanned directory
	uses    map[string]bool    // unqualified identifiers, declarations excluded
	quals   map[[2]string]bool // x.Name selectors, keyed by {x, Name}
}

// deadAPI parses every non-test .go file under root (skipping testdata and
// hidden directories) and returns, sorted, every exported top-level
// identifier ("internal/sim.NewEngine") or method
// ("internal/nic.Queue.SetITR") declared under an internal/
// directory that no scanned file references.
func deadAPI(root string) ([]string, error) {
	fset := token.NewFileSet()
	type rawImport struct{ alias, path string }
	var files []*scannedFile
	raw := map[*scannedFile][]rawImport{}
	pkgName := map[string]string{}    // dir -> package name
	topLevel := map[string][]string{} // dir -> exported top-level names
	methods := map[string]string{}    // "dir.Recv.Name" -> Name
	selected := map[string]bool{}     // every selector name anywhere
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		sf := &scannedFile{dir: filepath.ToSlash(rel), uses: map[string]bool{}, quals: map[[2]string]bool{}}
		files = append(files, sf)
		pkgName[sf.dir] = f.Name.Name
		for _, is := range f.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			ri := rawImport{path: ip}
			if is.Name != nil {
				ri.alias = is.Name.Name
			}
			raw[sf] = append(raw[sf], ri)
		}
		internal := strings.HasPrefix(sf.dir, "internal/") || strings.Contains(sf.dir, "/internal/")
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				declared[decl.Name] = true
				if !internal || !decl.Name.IsExported() {
					continue
				}
				if decl.Recv == nil {
					topLevel[sf.dir] = append(topLevel[sf.dir], decl.Name.Name)
				} else if !stdlibMethods[decl.Name.Name] {
					methods[sf.dir+"."+recvName(decl.Recv.List[0].Type)+"."+decl.Name.Name] = decl.Name.Name
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					var names []*ast.Ident
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{spec.Name}
					case *ast.ValueSpec:
						names = spec.Names
					}
					for _, n := range names {
						declared[n] = true
						if internal && n.IsExported() {
							topLevel[sf.dir] = append(topLevel[sf.dir], n.Name)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				return false
			case *ast.Field:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					sf.quals[[2]string{x.Name, n.Sel.Name}] = true
				}
				declared[n.Sel] = true // a field or method name, not a use of a top-level one
			case *ast.Ident:
				if !declared[n] {
					sf.uses[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Resolve imports to scanned directories by path suffix, so the scan
	// needs no module path.
	for _, sf := range files {
		sf.imports = map[string]string{}
		for _, ri := range raw[sf] {
			for dir, name := range pkgName {
				if ri.path == dir || strings.HasSuffix(ri.path, "/"+dir) {
					local := ri.alias
					if local == "" {
						local = name
					}
					sf.imports[local] = dir
				}
			}
		}
	}

	var dead []string
	for dir, names := range topLevel {
		for _, name := range names {
			if !referenced(files, dir, name) {
				dead = append(dead, dir+"."+name)
			}
		}
	}
	for id, name := range methods {
		if !selected[name] {
			dead = append(dead, id)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// referenced reports whether some scanned file uses dir's top-level name:
// unqualified inside dir, or through an import of dir elsewhere.
func referenced(files []*scannedFile, dir, name string) bool {
	for _, sf := range files {
		if sf.dir == dir && sf.uses[name] {
			return true
		}
		for local, target := range sf.imports {
			if target == dir && sf.quals[[2]string{local, name}] {
				return true
			}
		}
	}
	return false
}

// recvName is the receiver's base type name: T for T, *T, T[K] and *T[K].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}
