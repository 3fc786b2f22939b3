package lint

import (
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
