package sriov

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The dead-API gate: production code is what production calls. Every
// exported identifier declared under internal/ must be used by some
// non-test Go file of this module or of benchmark/ (a nested module, so one
// walk from the repository root covers both), and every field of a
// package-level struct type there must be read by one. An accessor only a
// test reads belongs in that test's file, or nowhere; a counter nothing
// reads is not kept at all.
//
// The scan type-checks every non-test file with go/types, so a use is the
// object an identifier resolves to, not its spelling:
//   - a top-level identifier or a method is live when some scanned file
//     uses it (a use inside its own package counts); a method of a generic
//     type is one method whatever its type arguments;
//   - a method is also live when its type implements an interface whose
//     method some scanned file calls;
//   - a method the standard library calls through one of its own
//     interfaces (stdlibInterfaces, and error) is live when its type
//     implements that interface;
//   - a struct field, exported or not, is live when some scanned file reads
//     it. A write is the target of =, op=, ++ or -- (the selector itself,
//     so in a.b.c = v only c is written) and the key of a composite
//     literal's element; a positional literal element names no field.
//     Every other use is a read: an operand, an argument, &x.f, a range
//     expression. Exempt are tagged fields (encoding/json reads them by
//     reflection), embedded fields, and the fields of a struct type used as
//     a map key or compared with == or != (hashing and comparison read
//     every field), nested struct types included.
//
// deadAPIAllow lists the exceptions. Each entry carries its reason, and an
// entry that has become referenced fails the gate, so the list only shrinks.
var deadAPIAllow = map[string]string{
	"internal/sim.Engine.Pending":      "core's long-run stability test bounds the event queue of a whole testbed, from outside package sim",
	"internal/sim.timerWheel.placed":   "the wheel's filing test reads it: one slot filing per schedule that enters the wheel, a cost no output shows",
	"internal/runner.Summary.Events":   "TestSuiteMatchesGoldens pins it in sim_events.txt: the suite's exact simulation-event count",
	"internal/vmm.Hypervisor.Counters": "vmm's tests read msi_while_paused and eoi_misemulation from it; ROADMAP item 5 merges this registry into the testbed registry that -metrics-out writes",
}

// stdlibInterfaces are the standard-library interfaces, by package path and
// name, through which the standard library calls methods it was handed.
var stdlibInterfaces = [][2]string{
	{"fmt", "Stringer"}, {"fmt", "GoStringer"}, {"fmt", "Formatter"},
	{"sort", "Interface"}, {"container/heap", "Interface"},
	{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
	{"net/http", "Handler"}, {"flag", "Value"},
	{"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"},
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
// exported func and a method that only a test calls are reported, and so
// are a method sharing its name with a live one, a method whose signature
// misses the interface the tool calls through, an exported method of an
// unexported type, and three fields: one only written, one only a test
// reads, one only set positionally. Live methods (a direct call, an
// interface call, a generic type's method, a String) are not, nor are a
// field the tool reads, a tagged field and a map key's field; and a stale
// or reasonless allowlist entry fails the check.
func TestDeadAPIGateFixture(t *testing.T) {
	dead, err := deadAPI(filepath.Join("testdata", "deadapi"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib.Pair.V", "internal/lib.Stats.Hits", "internal/lib.Stats.Misses",
		"internal/lib.T.Dead", "internal/lib.U.Live", "internal/lib.U.Run", "internal/lib.Unused", "internal/lib.hidden.Poke",
	}
	if strings.Join(dead, " ") != strings.Join(want, " ") {
		t.Fatalf("dead = %v, want %v", dead, want)
	}
	allow := map[string]string{}
	for _, id := range want {
		allow[id] = "fixture"
	}
	if p := checkDeadAPI(dead, allow); len(p) != 0 {
		t.Fatalf("fully allowlisted scan reported %v", p)
	}
	problems := checkDeadAPI(dead, map[string]string{
		"internal/lib.Unused": "",        // no reason
		"internal/lib.Used":   "fixture", // stale: cmd/tool references it
	})
	wantPrefixes := []string{
		"internal/lib.Pair.V: no non-test file uses it",
		"internal/lib.Stats.Hits: no non-test file uses it",
		"internal/lib.Stats.Misses: no non-test file uses it",
		"internal/lib.T.Dead: no non-test file uses it",
		"internal/lib.U.Live: no non-test file uses it",
		"internal/lib.U.Run: no non-test file uses it",
		"internal/lib.Unused: allowlist entry has no reason",
		"internal/lib.Used: allowlisted, but used or gone",
		"internal/lib.hidden.Poke: no non-test file uses it",
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
			problems = append(problems, id+": no non-test file uses it (reads it, for a field); delete it, or move it into the test that uses it")
		}
	}
	for id, reason := range allow {
		switch {
		case !isDead[id]:
			problems = append(problems, id+": allowlisted, but used or gone; drop the allowlist entry")
		case strings.TrimSpace(reason) == "":
			problems = append(problems, id+": allowlist entry has no reason")
		}
	}
	sort.Strings(problems)
	return problems
}

// loader type-checks the scanned packages on demand, resolving imports of
// scanned packages to themselves and every other import to the standard
// library. All packages record into one Info.
type loader struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path -> parsed non-test files
	dirs  map[string]string      // import path -> slash directory under the root
	done  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.done[path]; ok {
		return p, nil
	}
	files, ok := l.files[path]
	if !ok {
		return l.std.Import(path)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.done[path] = p
	return p, nil
}

// deadAPI type-checks every non-test .go file under root (skipping testdata
// and hidden directories; a go.mod names the module of the directories
// below it) and returns, sorted, every exported top-level identifier
// ("internal/sim.NewEngine"), method ("internal/nic.Queue.SetITR") or
// struct field ("internal/nic.QueueStats.Drained") declared under an
// internal/ directory that is not live.
func deadAPI(root string) ([]string, error) {
	l := &loader{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		dirs:  map[string]string{},
		done:  map[string]*types.Package{},
		info: &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	l.std = importer.Default()
	modules := map[string]string{} // slash directory -> module path
	var sources []string
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
		if name == "go.mod" {
			mod, err := modulePath(p)
			if err != nil {
				return err
			}
			modules[slashRel(root, filepath.Dir(p))] = mod
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), name); err != nil || !ok {
			return err
		}
		sources = append(sources, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range sources {
		dir := slashRel(root, filepath.Dir(p))
		ip, err := importPath(modules, dir)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		l.files[ip] = append(l.files[ip], f)
		l.dirs[ip] = dir
	}
	paths := make([]string, 0, len(l.files))
	for ip := range l.files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := l.Import(ip); err != nil {
			return nil, err
		}
	}

	// Every object some scanned file uses, generic instantiations folded
	// into their origin, and the interface methods among them. A field is
	// used only where it is read: a write does not make it live.
	writes := writeTargets(l.files)
	live := map[types.Object]bool{}
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	for id, obj := range l.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok && !seen[it] {
					seen[it] = true
					ifaces = append(ifaces, it)
				}
			}
		case *types.Var:
			if o.IsField() && writes[id] {
				continue
			}
			obj = o.Origin()
		}
		live[obj] = true
	}
	compared := comparedStructs(l.files, l.info)
	// The standard library's own interface calls.
	std := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, si := range stdlibInterfaces {
		p, err := l.std.Import(si[0])
		if err != nil {
			return nil, err
		}
		std = append(std, p.Scope().Lookup(si[1]).Type().Underlying().(*types.Interface))
	}

	var dead []string
	for _, ip := range paths {
		dir := l.dirs[ip]
		if !strings.HasPrefix(dir, "internal/") && !strings.Contains(dir, "/internal/") {
			continue
		}
		scope := l.done[ip].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !live[obj] {
				dead = append(dead, dir+"."+name)
			}
			// An unexported type's exported methods count too: a value of
			// it can still reach a caller, and only a use keeps them.
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			// Every field of a struct type, exported or not, unless the
			// language or a package reads it without naming it.
			if st, ok := named.Underlying().(*types.Struct); ok && !compared[named] {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if !f.Embedded() && st.Tag(i) == "" && !live[f] {
						dead = append(dead, dir+"."+name+"."+f.Name())
					}
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !live[m] && !calledThrough(named, m.Name(), ifaces) && !calledThrough(named, m.Name(), std) {
					dead = append(dead, dir+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// writeTargets returns the identifiers that name a field only to write it:
// the selector of an assignment's or an increment's target, and the key of a
// composite literal's element. Every other use of a field reads it.
func writeTargets(files map[string][]*ast.File) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		for {
			p, ok := e.(*ast.ParenExpr)
			if !ok {
				break
			}
			e = p.X
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, fs := range files {
		for _, f := range fs {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						target(e)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						target(n.Key)
						if n.Value != nil {
							target(n.Value)
						}
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				}
				return true
			})
		}
	}
	return writes
}

// comparedStructs returns the named struct types whose fields are read
// without being named: a map key's fields are hashed and compared, and an
// == or != of two structs compares every field. A nested struct is compared
// with its container.
func comparedStructs(files map[string][]*ast.File, info *types.Info) map[*types.Named]bool {
	compared := map[*types.Named]bool{}
	var mark func(t types.Type)
	mark = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			o := t.Origin()
			if compared[o] {
				return
			}
			compared[o] = true
			mark(t.Underlying())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				mark(t.Field(i).Type())
			}
		case *types.Array:
			mark(t.Elem())
		}
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			mark(m.Key())
		}
	}
	for _, fs := range files {
		for _, f := range fs {
			ast.Inspect(f, func(n ast.Node) bool {
				if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
					mark(info.TypeOf(b.X))
					mark(info.TypeOf(b.Y))
				}
				return true
			})
		}
	}
	return compared
}

// calledThrough reports whether T or *T implements one of the interfaces
// that has a method named method. A generic type is never matched: whether
// it implements an interface depends on its type arguments.
func calledThrough(t *types.Named, method string, ifaces []*types.Interface) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// importPath is dir's import path: the path of the module whose go.mod is
// nearest above it, joined with dir's path inside that module.
func importPath(modules map[string]string, dir string) (string, error) {
	for d := dir; ; d = path.Dir(d) {
		if mod, ok := modules[d]; ok {
			if d == "." {
				return path.Join(mod, dir), nil
			}
			return path.Join(mod, strings.TrimPrefix(dir, d)), nil
		}
		if d == "." {
			return "", &os.PathError{Op: "scan", Path: dir, Err: os.ErrNotExist}
		}
	}
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(mod), `"`), nil
		}
	}
	return "", &os.PathError{Op: "read module path", Path: gomod, Err: os.ErrNotExist}
}

// slashRel is p relative to root, with forward slashes ("." for root).
func slashRel(root, p string) string {
	rel, err := filepath.Rel(root, p)
	if err != nil {
		return filepath.ToSlash(p)
	}
	return filepath.ToSlash(rel)
}
