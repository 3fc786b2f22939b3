// Command ctxfirst enforces the client API rule over the given source
// directories (see internal/lint): every public method takes a leading
// context.Context. CI runs it against the client package and the repo
// root; a non-empty report fails the build.
//
//	go run ./internal/lint/ctxfirst internal/client .
package main

import (
	"fmt"
	"os"

	"jiffy/internal/lint"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	allow := lint.DefaultAllow()
	failed := false
	for _, dir := range dirs {
		violations, err := lint.CtxFirst(dir, allow)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctxfirst: %s: %v\n", dir, err)
			os.Exit(2)
		}
		for _, v := range violations {
			failed = true
			fmt.Fprintln(os.Stderr, v)
		}
	}
	if failed {
		os.Exit(1)
	}
}
