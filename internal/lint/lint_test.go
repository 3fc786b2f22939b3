package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestRepoIsCtxFirst runs the checker against the real client package
// and the repo root: the public surface must stay context-first.
func TestRepoIsCtxFirst(t *testing.T) {
	for _, dir := range []string{"../client", "../.."} {
		violations, err := CtxFirst(dir, DefaultAllow())
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, v := range violations {
			t.Errorf("%s", v)
		}
	}
}

// TestCtxFirstCatchesViolations feeds the checker synthetic source
// covering each rule: missing ctx flagged; allowlisted, deprecated and
// unexported declarations skipped; Dial* functions checked even without
// a receiver.
func TestCtxFirstCatchesViolations(t *testing.T) {
	dir := t.TempDir()
	src := `package fake

import "context"

type Client struct{}

func (c *Client) Fetch(key string) error { return nil } // violation
func (c *Client) Store(ctx context.Context, key string) error { return nil }
func (c *Client) Close() error { return nil } // allowlisted below
func (c *Client) helper(key string) error { return nil }

// Deprecated: use Fetch with a context.
func (c *Client) FetchOld(key string) error { return nil }

type internalThing struct{}

func (i internalThing) Do(key string) error { return nil }

func Dial(addr string) (*Client, error) { return nil, nil } // violation
func DialGroup(ctx context.Context, addrs []string) (*Client, error) { return nil, nil }
func Helper(x int) int { return x }
`
	if err := os.WriteFile(filepath.Join(dir, "fake.go"), []byte(src), 0644); err != nil {
		t.Fatal(err)
	}
	violations, err := CtxFirst(dir, map[string]bool{"Client.Close": true})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range violations {
		got = append(got, v.Name)
	}
	want := []string{"Client.Fetch", "Dial"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("violations = %v, want %v", got, want)
	}
}

// declaredKnobs lists what a deployment or caller can set: the fields
// of core.Config ("Config.X"), the client's exported With* options
// ("WithX") and the fields of the policy structs two of them carry
// ("RetryPolicy.X", "BreakerPolicy.X").
func declaredKnobs(t *testing.T) map[string]bool {
	t.Helper()
	knobs := make(map[string]bool)
	structs := map[string]bool{"Config": true, "RetryPolicy": true, "BreakerPolicy": true}
	for _, dir := range []string{"../core", "../client"} {
		_, files, err := parseDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && strings.HasPrefix(d.Name.Name, "With") && d.Name.IsExported() {
						knobs[d.Name.Name] = true
					}
				case *ast.TypeSpec:
					st, ok := d.Type.(*ast.StructType)
					if !ok || !structs[d.Name.Name] {
						break
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							knobs[d.Name.Name+"."+name.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	return knobs
}

// TestKnobTable holds the code and DESIGN.md's knob table to each
// other: every settable value has a row stating its default, who sets a
// second value and what moves when they do, and every row names a value
// that exists. A new field, option or policy parameter without a stated
// reason to exist fails here, as does a row left behind by a deletion.
func TestKnobTable(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(design), "\n### Knob table\n")
	if !found {
		t.Fatal(`DESIGN.md has no "### Knob table" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	rows := make(map[string]bool)
	for _, line := range strings.Split(section, "\n") {
		if rest, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ := strings.Cut(rest, "`")
			rows[name] = true
		}
	}
	knobs := declaredKnobs(t)
	for name := range knobs {
		if !rows[name] {
			t.Errorf("%s has no row in DESIGN.md's knob table: say who sets a second value and what it moves, or make it a constant", name)
		}
	}
	for name := range rows {
		if !knobs[name] {
			t.Errorf("DESIGN.md's knob table has a row for %s, which no longer exists", name)
		}
	}
}

// dataMethods are the only method ids a session call may name outside
// internal/rpc: the data-plane frames, whose bodies are ds's hand-rolled
// layouts. A control body goes through rpc.Invoke and rpc.Handle.
var dataMethods = map[string]bool{
	"MethodDataOp": true, "MethodDataOpBatch": true, "MethodReplicate": true,
}

// sessionCalls are the rpc session methods that send a raw payload.
var sessionCalls = map[string]bool{
	"CallContext": true, "CallBorrowedContext": true, "CallVecContext": true,
}

// TestOneCodec holds the tree to one serializer, internal/codec, with
// two rules and no allow-list: (a) no non-test file imports
// encoding/gob, and (b) outside internal/rpc, every raw session call
// names a data-plane method (proto.MethodDataOp, MethodDataOpBatch or
// MethodReplicate), so every control body is encoded by rpc.Invoke and
// rpc.Handle. benchmark/ (a module of its own) and examples/ (user code
// with its own snapshot formats) are out of scope.
func TestOneCodec(t *testing.T) {
	root := "../.."
	calls := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if rel == "benchmark" || rel == "examples" || strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		inRPC := filepath.ToSlash(rel) == "internal/rpc"
		fset, files, err := parseDir(path)
		if err != nil {
			return err
		}
		for _, f := range files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"encoding/gob"` {
					t.Errorf("%s: imports encoding/gob: encode structured data with internal/codec", fset.Position(imp.Pos()))
				}
			}
			if inRPC {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !sessionCalls[sel.Sel.Name] || len(call.Args) < 2 {
					return true
				}
				calls++
				if !isDataMethod(call.Args[1]) {
					t.Errorf("%s: %s sends a non-data-plane method: send request/response bodies through rpc.Invoke and rpc.Handle", fset.Position(call.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("no session call outside internal/rpc: rule (b) checks nothing, update sessionCalls")
	}
}

// isDataMethod reports whether e names one of dataMethods as proto.X.
func isDataMethod(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "proto" && dataMethods[sel.Sel.Name]
}

// replicatedFields are the controller's replicated maps: the dead and
// probation sets, server contributions, the tenant quota mirror, the
// tier records and a shard's job table.
var replicatedFields = map[string]bool{
	"deadServers": true, "probation": true, "contrib": true,
	"tenantQuotas": true, "records": true, "jobs": true,
}

// TestOneApplyPath is the ratchet for "one apply path" (DESIGN.md §12,
// invariant 3): in non-test internal/controller, an index-assignment to
// or a delete from a replicated map appears only in apply.go, where each
// op kind has its one apply function that the leader, the standby stream
// and image replay all run. A write anywhere else is a second path the
// standbys do not take. Each field must still be written there, so a
// rename cannot empty the check.
func TestOneApplyPath(t *testing.T) {
	fset, files, err := parseDir("../controller")
	if err != nil {
		t.Fatal(err)
	}
	applied := make(map[string]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			var written ast.Expr
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					if ix, ok := lhs.(*ast.IndexExpr); ok {
						written = ix.X
					}
				}
			case *ast.CallExpr:
				if fn, ok := s.Fun.(*ast.Ident); ok && fn.Name == "delete" && len(s.Args) == 2 {
					written = s.Args[0]
				}
			}
			sel, ok := written.(*ast.SelectorExpr)
			if !ok || !replicatedFields[sel.Sel.Name] {
				return true
			}
			pos := fset.Position(sel.Pos())
			if filepath.Base(pos.Filename) == "apply.go" {
				applied[sel.Sel.Name] = true
			} else {
				t.Errorf("%s: writes replicated field %s outside apply.go: build a replOp and run its apply", pos, sel.Sel.Name)
			}
			return true
		})
	}
	for field := range replicatedFields {
		if !applied[field] {
			t.Errorf("apply.go no longer writes %s: update replicatedFields", field)
		}
	}
}

// layerChapters is the call order DESIGN.md's layer chapters follow: a
// request crosses the wire and an rpc session, the client pipeline sends
// it to a server's op path, which applies it to a block and forwards it
// down the chain; the controller's apply path, its rebuilds, tiering,
// QoS and telemetry sit around that path.
var layerChapters = []string{
	"Wire", "RPC session", "Client op pipeline", "Server op path",
	"Blocks and data structures", "Chain replication",
	"Controller apply and group", "Chain rebuild", "Cold-block tiering",
	"Multi-tenant QoS", "Observability",
}

var (
	fence     = regexp.MustCompile("(?s)```.*?```")
	codeSpan  = regexp.MustCompile("`([^`]+)`")
	testName  = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)\w*(?:\*\w*)?`)
	benchCmd  = regexp.MustCompile(`^(?:\./)?jiffy-bench(?: -\S+)* ([\w-]+)`)
	funcDecl  = regexp.MustCompile(`(?m)^func (\w+)`)
	numbering = regexp.MustCompile(`^[0-9]+\. `)
)

// chapter is one "## " section of DESIGN.md, its number stripped.
type chapter struct{ title, body string }

func designChapters(doc string) []chapter {
	var chs []chapter
	for _, sec := range strings.Split(doc, "\n## ")[1:] {
		title, body, _ := strings.Cut(sec, "\n")
		chs = append(chs, chapter{numbering.ReplaceAllString(title, ""), body})
	}
	return chs
}

// tree is what TestDesignMap checks the map against.
type tree struct {
	packages map[string]bool // directories holding non-test .go files
	files    map[string]bool // base names of every .go file
	funcs    []string        // every top-level function name
}

func scanTree(t *testing.T, root string) tree {
	t.Helper()
	tr := tree{packages: map[string]bool{}, files: map[string]bool{}}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		tr.files[d.Name()] = true
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, m := range funcDecl.FindAllSubmatch(src, -1) {
			tr.funcs = append(tr.funcs, string(m[1]))
		}
		dir, _ := filepath.Rel(root, filepath.Dir(p))
		dir = filepath.ToSlash(dir)
		if !strings.HasSuffix(p, "_test.go") && !strings.HasPrefix(dir+"/", "benchmark/") &&
			!strings.Contains("/"+dir+"/", "/testdata/") {
			tr.packages[dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// benchFigures reads the keys of the figures map in cmd/jiffy-bench.
func benchFigures(t *testing.T, file string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "figures" || len(vs.Values) != 1 {
			return true
		}
		lit, _ := vs.Values[0].(*ast.CompositeLit)
		if lit == nil {
			return true
		}
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.BasicLit); ok {
					if name, err := strconv.Unquote(key.Value); err == nil {
						keys[name] = true
					}
				}
			}
		}
		return false
	})
	if len(keys) == 0 {
		t.Fatalf("%s: no figures map", file)
	}
	return keys
}

// TestDesignMap holds DESIGN.md to the tree it maps: the module map has
// one row per package and no other; every repo path, jiffy-bench
// subcommand and test the document names exists; and the layer chapters
// appear in call order, each with its Owns, Invariants and Gates parts.
func TestDesignMap(t *testing.T) {
	const root = "../.."
	raw, err := os.ReadFile(root + "/DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	chs := designChapters(doc)
	tr := scanTree(t, root)

	// (a) The module map rows are exactly the packages.
	rows := make(map[string]bool)
	for _, ch := range chs {
		if !strings.Contains(strings.ToLower(ch.title), "module map") {
			continue
		}
		for _, line := range strings.Split(ch.body, "\n") {
			if rest, ok := strings.CutPrefix(line, "| `"); ok {
				name, _, _ := strings.Cut(rest, "`")
				rows[name] = true
			}
		}
	}
	for _, dir := range sortedKeys(tr.packages) {
		if !rows[dir] {
			t.Errorf("module map: no row for package %s", dir)
		}
	}
	for _, row := range sortedKeys(rows) {
		if !tr.packages[row] {
			t.Errorf("module map: a row for %s, which holds no package", row)
		}
	}

	figures := benchFigures(t, root+"/cmd/jiffy-bench/main.go")
	for _, m := range codeSpan.FindAllStringSubmatch(fence.ReplaceAllString(doc, ""), -1) {
		span := strings.Join(strings.Fields(m[1]), " ") // a span may wrap
		// (b) Every repo path exists.
		for _, tok := range strings.Fields(span) {
			switch {
			case strings.HasPrefix(tok, "internal/"), strings.HasPrefix(tok, "cmd/"),
				strings.HasPrefix(tok, "examples/"), strings.HasSuffix(tok, ".go") && strings.Contains(tok, "/"):
				if _, err := os.Stat(filepath.Join(root, tok)); err != nil {
					t.Errorf("`%s`: %s does not exist", span, tok)
				}
			case strings.HasSuffix(tok, ".go") && !tr.files[tok]:
				t.Errorf("`%s`: no file %s in the tree", span, tok)
			}
		}
		// (c) Every jiffy-bench subcommand is registered.
		if sub := benchCmd.FindStringSubmatch(span); sub != nil && !figures[sub[1]] {
			t.Errorf("`%s`: jiffy-bench has no subcommand %s", span, sub[1])
		}
		// (d) Every test, fuzz target and benchmark exists; in a -run
		// pattern a name may be the prefix of one, and * is a wildcard.
		for _, name := range testName.FindAllString(span, -1) {
			if !tr.hasFunc(name, strings.Contains(span, "-run ")) {
				t.Errorf("`%s`: no function %s in the tree", span, name)
			}
		}
	}

	// (e) The layer chapters, in call order, each with its three parts.
	at := make(map[string]int)
	for i, ch := range chs {
		at[ch.title] = i
	}
	prev := -1
	for _, layer := range layerChapters {
		i, ok := at[layer]
		if !ok {
			t.Errorf("no layer chapter %q", layer)
			continue
		}
		if i < prev {
			t.Errorf("layer chapter %q is out of call order", layer)
		}
		prev = i
		parts := make(map[string]string)
		for _, sec := range strings.Split(chs[i].body, "\n### ")[1:] {
			head, body, _ := strings.Cut(sec, "\n")
			parts[head] = strings.TrimSpace(body)
		}
		for _, part := range []string{"Owns", "Invariants", "Gates"} {
			if parts[part] == "" {
				t.Errorf("layer chapter %q has no %s part", layer, part)
			}
		}
		if !strings.HasPrefix(parts["Invariants"], "1. ") {
			t.Errorf("layer chapter %q: invariants are not numbered", layer)
		}
		if !namesTest(parts["Gates"]) {
			t.Errorf("layer chapter %q: Gates names no test", layer)
		}
	}
}

// namesTest reports whether text names a test or fuzz target in code.
func namesTest(text string) bool {
	for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
		for _, name := range testName.FindAllString(m[1], -1) {
			if !strings.HasPrefix(name, "Benchmark") {
				return true
			}
		}
	}
	return false
}

// hasFunc reports whether a top-level function is called name: exactly,
// by glob when name holds a *, or as a prefix when name is a -run
// pattern.
func (tr tree) hasFunc(name string, prefix bool) bool {
	for _, fn := range tr.funcs {
		if ok, _ := path.Match(name, fn); ok || prefix && strings.HasPrefix(fn, name) {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
