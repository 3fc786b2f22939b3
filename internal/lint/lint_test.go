package lint

import (
	"go/ast"
	"os"
	"path/filepath"
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

// codecSites is the allow-list behind TestOneCodec: the non-test files
// that may import encoding/gob or call rpc.Marshal/rpc.Unmarshal, with
// how many such sites each holds and why. Request and response bodies
// are not on it — they are encoded in internal/rpc/codec.go and nowhere
// else — so what is left is the persisted and embedded blobs ROADMAP
// item 2 still has to move; that item finishes by emptying the list.
var codecSites = map[string]int{
	"internal/rpc/codec.go":              1, // the control-plane codec itself
	"internal/ds/partition.go":           1, // partition snapshots
	"internal/controller/replication.go": 4, // replOp ring entries, bootstrap groupImage (encode + decode each)
	"internal/controller/snapshot.go":    2, // the same groupImage as a checkpoint
	"internal/controller/flushload.go":   2, // flush manifest (write, and the one reader)
	"internal/server/subs.go":            1, // push Notification
	"internal/client/listener.go":        1, // push Notification
}

// TestOneCodec is the ratchet for "one codec": a new gob import or
// rpc.Marshal/rpc.Unmarshal call outside the allow-list fails here, and
// so does an allowance left larger than what the file still uses.
// benchmark/ (a module of its own) and examples/ (user code with its
// own snapshot formats) are out of scope.
func TestOneCodec(t *testing.T) {
	root := "../.."
	got := make(map[string]int)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if rel, _ := filepath.Rel(root, path); rel == "benchmark" || rel == "examples" || strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		fset, files, err := parseDir(path)
		if err != nil {
			return err
		}
		for _, f := range files {
			name, _ := filepath.Rel(root, fset.Position(f.Pos()).Filename)
			for _, imp := range f.Imports {
				if imp.Path.Value == `"encoding/gob"` {
					got[filepath.ToSlash(name)]++
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Marshal" || sel.Sel.Name == "Unmarshal") {
						if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "rpc" {
							got[filepath.ToSlash(name)]++
						}
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range got {
		if n > codecSites[name] {
			t.Errorf("%s names the codec at %d sites, %d allowed: send request/response bodies through rpc.Invoke and rpc.Handle", name, n, codecSites[name])
		}
	}
	for name, allowed := range codecSites {
		if got[name] < allowed {
			t.Errorf("%s is allowed %d codec sites and has %d: lower the allowance in codecSites", name, allowed, got[name])
		}
	}
}

// replicatedFields are the controller's replicated maps: the dead and
// probation sets, server contributions, the tenant quota mirror, the
// tier records and a shard's job table.
var replicatedFields = map[string]bool{
	"deadServers": true, "probation": true, "contrib": true,
	"tenantQuotas": true, "records": true, "jobs": true,
}

// TestOneApplyPath is the ratchet for "one apply path" (DESIGN.md §14,
// invariant 9): in non-test internal/controller, an index-assignment to
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
