// Package lint holds small source-analysis checks enforced in CI.
//
// The context-first check (TestRepoIsCtxFirst) guards the client API
// redesign: every exported method on an exported receiver type in the
// scanned packages must take a context.Context as its first parameter,
// unless it is a known local/lifecycle method (allowlisted) or marked
// Deprecated. New public surface that forgets the context fails CI
// rather than review.
//
// The knob-table check (TestKnobTable) holds every configuration value
// to a row in DESIGN.md's knob table, and every row to a value that
// exists.
//
// The one-codec check (TestOneCodec) holds structured data to one
// serializer, internal/codec, by two rules with no allow-list: no
// non-test file imports encoding/gob, and outside internal/rpc every raw
// session call names a data-plane method, so control bodies are encoded
// only by rpc.Invoke and rpc.Handle.
//
// The one-apply-path check (TestOneApplyPath) confines writes to the
// controller's replicated maps to internal/controller/apply.go.
//
// The product-caller check (TestProductCallers) holds every exported
// function and method under internal/ to a caller in non-test code of
// the tree, benchmark/, cmd/ and examples/ included. Interface methods
// and methods of the types jiffy.go re-exports are exempt, and so is a
// short testHooks list of functions a test in another directory calls;
// an entry that gains a product caller, or whose test moves into its own
// directory, fails the check, so the list only shrinks.
//
// The design-map check (TestDesignMap) holds DESIGN.md to the tree: its
// module map, the paths, tests and jiffy-bench subcommands it cites, and
// the Owns/Invariants/Gates parts of its layer chapters.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultAllow lists the existing context-free public surface, keyed
// "Type.Method" (or a bare function name). These are local or
// lifecycle operations that perform no RPC — everything else must be
// context-first.
func defaultAllow() map[string]bool {
	return map[string]bool{
		// Lifecycle and purely local accessors.
		"Client.Close":        true,
		"Client.Obs":          true,
		"Client.StartRenewer": true,
		// Purely local read of the in-memory health tracker.
		"Client.ServerHealth": true,
		"KV.Path":             true,
		"File.Path":           true,
		"File.Seek":           true,
		"Queue.Path":          true,
		"Custom.Path":         true,
		// The listener's public contract is timeout-based (Table 1
		// listener.get(timeout)); contexts are threaded internally.
		"Listener.Get":      true,
		"Listener.TryGet":   true,
		"Listener.Resync":   true,
		"Listener.Close":    true,
		"Renewer.Add":       true,
		"Renewer.Remove":    true,
		"Renewer.Stop":      true,
		"MultiError.Error":  true,
		"MultiError.Unwrap": true,
		"Cluster.Close":     true,
	}
}

// Violation is one flagged declaration.
type Violation struct {
	Pos  token.Position
	Name string // "Type.Method" or function name
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s must take context.Context as its first parameter", v.Pos, v.Name)
}

// parseDir parses the non-test Go files of one directory.
func parseDir(dir string) (*token.FileSet, []*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	return fset, files, nil
}

// ctxFirst scans the non-test Go files of one directory and reports
// exported methods on exported receiver types — plus package-level
// Dial* constructors — whose first parameter is not a context.Context.
func ctxFirst(dir string, allow map[string]bool) ([]Violation, error) {
	fset, files, err := parseDir(dir)
	if err != nil {
		return nil, err
	}
	var violations []Violation
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || deprecated(fn) {
				continue
			}
			label, check := subject(fn)
			if !check || allow[label] {
				continue
			}
			if !firstParamIsCtx(fn.Type) {
				violations = append(violations, Violation{
					Pos:  fset.Position(fn.Pos()),
					Name: label,
				})
			}
		}
	}
	sort.Slice(violations, func(i, j int) bool {
		a, b := violations[i].Pos, violations[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return violations, nil
}

// subject names the declaration and decides whether the check applies:
// exported methods on exported receivers, and package-level Dial*
// constructors.
func subject(fn *ast.FuncDecl) (label string, check bool) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name, strings.HasPrefix(fn.Name.Name, "Dial")
	}
	recv := receiverType(fn.Recv.List[0].Type)
	if recv == "" || !ast.IsExported(recv) {
		return "", false
	}
	return recv + "." + fn.Name.Name, true
}

func receiverType(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.StarExpr:
		return receiverType(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return receiverType(t.X)
	case *ast.IndexListExpr: // generic receiver, several type parameters
		return receiverType(t.X)
	}
	return ""
}

func firstParamIsCtx(ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	sel, ok := ft.Params.List[0].Type.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context" && sel.Sel.Name == "Context"
}

func deprecated(fn *ast.FuncDecl) bool {
	return fn.Doc != nil && strings.Contains(fn.Doc.Text(), "Deprecated:")
}
