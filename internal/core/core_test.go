package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestPathComponents(t *testing.T) {
	p := MustPath("job1", "T4", "T6")
	got := strings.Split(string(p), PathSep)
	want := []string{"job1", "T4", "T6"}
	if len(got) != len(want) {
		t.Fatalf("components = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("component %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestPathJobBaseParent(t *testing.T) {
	p := MustPath("job1", "T4", "T6")
	if p.Job() != "job1" {
		t.Errorf("Job() = %q, want job1", p.Job())
	}
	if p.Base() != "T6" {
		t.Errorf("Base() = %q, want T6", p.Base())
	}
	if p.Parent() != MustPath("job1", "T4") {
		t.Errorf("Parent() = %q", p.Parent())
	}
	if MustPath("job1").Parent() != "" {
		t.Errorf("root parent = %q, want empty", MustPath("job1").Parent())
	}
}

func TestPathEmpty(t *testing.T) {
	var p Path
	if p.Depth() != 0 {
		t.Errorf("empty path depth = %d, want 0", p.Depth())
	}
	if p.Job() != "" || p.Base() != "" {
		t.Errorf("empty path job/base should be empty")
	}
	if p.Valid() {
		t.Error("empty path should not be valid")
	}
}

func TestPathChild(t *testing.T) {
	p := MustPath("job1")
	c, err := p.Child("T1")
	if err != nil {
		t.Fatal(err)
	}
	if c != "job1/T1" {
		t.Errorf("child = %q", c)
	}
	if _, err := p.Child("a/b"); err == nil {
		t.Error("child with separator should fail")
	}
	if _, err := p.Child(""); err == nil {
		t.Error("empty child should fail")
	}
	var empty Path
	c2, err := empty.Child("root")
	if err != nil || c2 != "root" {
		t.Errorf("empty.Child = %q, %v", c2, err)
	}
}

func TestPathHasPrefix(t *testing.T) {
	cases := []struct {
		p, prefix Path
		want      bool
	}{
		{"j/a/b", "j/a", true},
		{"j/a/b", "j/a/b", true},
		{"j/a/b", "j", true},
		{"j/ab", "j/a", false}, // component boundary respected
		{"j/a", "j/a/b", false},
		{"j/a", "", true},
	}
	for _, c := range cases {
		if got := c.p.HasPrefix(c.prefix); got != c.want {
			t.Errorf("%q.HasPrefix(%q) = %v, want %v", c.p, c.prefix, got, c.want)
		}
	}
}

func TestPathDepthValid(t *testing.T) {
	if d := MustPath("a", "b", "c").Depth(); d != 3 {
		t.Errorf("depth = %d, want 3", d)
	}
	if !MustPath("a", "b").Valid() {
		t.Error("valid path reported invalid")
	}
	if Path("a//b").Valid() {
		t.Error("path with empty component reported valid")
	}
}

// splitPathRef is what Job, Base, Valid and Depth computed when they
// split the path into its components: the reference the in-place
// helpers must match on every input.
func splitPathRef(p Path) (job JobID, base string, valid bool, depth int) {
	if p == "" {
		return "", "", false, 0
	}
	comps := strings.Split(string(p), PathSep)
	valid = true
	for _, c := range comps {
		if ValidateComponent(c) != nil {
			valid = false
		}
	}
	return JobID(comps[0]), comps[len(comps)-1], valid, len(comps)
}

// checkPathHelpers compares the helpers with splitPathRef on p.
func checkPathHelpers(t *testing.T, p Path) {
	t.Helper()
	job, base, valid, depth := splitPathRef(p)
	if p.Job() != job || p.Base() != base || p.Valid() != valid || p.Depth() != depth {
		t.Errorf("%q: Job, Base, Valid, Depth = %q, %q, %v, %d; split gives %q, %q, %v, %d",
			p, p.Job(), p.Base(), p.Valid(), p.Depth(), job, base, valid, depth)
	}
}

// pathHelperSeeds are the edge cases of a component scan: empty, one
// component, several, an empty component inside, at the start and at
// the end.
var pathHelperSeeds = []Path{"", "a", "a/b/c", "a//b", "/a", "a/", "/", "//", "job1/T4/T6"}

func TestPathHelpersMatchSplit(t *testing.T) {
	for _, p := range pathHelperSeeds {
		checkPathHelpers(t, p)
	}
}

func FuzzPathHelpersMatchSplit(f *testing.F) {
	for _, p := range pathHelperSeeds {
		f.Add(string(p))
	}
	f.Fuzz(func(t *testing.T, s string) { checkPathHelpers(t, Path(s)) })
}

func TestPathRoundTrip(t *testing.T) {
	// Property: joining components and splitting them is the identity
	// for separator-free non-empty components.
	f := func(raw []string) bool {
		comps := make([]string, 0, len(raw))
		for _, r := range raw {
			c := strings.ReplaceAll(r, PathSep, "_")
			if c == "" {
				c = "x"
			}
			comps = append(comps, c)
		}
		if len(comps) == 0 {
			return true
		}
		p, err := NewPath(comps...)
		if err != nil {
			return false
		}
		got := strings.Split(string(p), PathSep)
		if len(got) != len(comps) {
			return false
		}
		for i := range comps {
			if got[i] != comps[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseDSType(t *testing.T) {
	for _, typ := range []DSType{DSFile, DSQueue, DSKV} {
		got, err := ParseDSType(typ.String())
		if err != nil || got != typ {
			t.Errorf("ParseDSType(%q) = %v, %v", typ.String(), got, err)
		}
	}
	if _, err := ParseDSType("btree"); err == nil {
		t.Error("unknown type should fail")
	}
}

func TestOpIsMutation(t *testing.T) {
	muts := []OpType{OpFileWrite, OpEnqueue, OpDequeue, OpPut, OpDelete, OpUpdate, OpDisownSlots, OpOwnSlots, OpQueueSetNext}
	for _, m := range muts {
		if !m.IsMutation() {
			t.Errorf("%v should be a mutation", m)
		}
	}
	for _, r := range []OpType{OpGet, OpFileRead, OpExists, OpUsage, OpQueuePeek} {
		if r.IsMutation() {
			t.Errorf("%v should not be a mutation", r)
		}
	}
}

func TestErrorCodeRoundTrip(t *testing.T) {
	sentinels := []error{
		ErrNotFound, ErrExists, ErrNoCapacity, ErrBlockFull, ErrEmpty,
		ErrStaleEpoch, ErrLeaseExpired, ErrPermission, ErrWrongType,
		ErrClosed, ErrTimeout, ErrTooLarge, ErrRedirect,
	}
	for _, s := range sentinels {
		code := CodeOf(s)
		if code == CodeOK || code == CodeOther {
			t.Errorf("CodeOf(%v) = %v", s, code)
		}
		back := ErrOf(code, nil)
		if !errors.Is(back, s) {
			t.Errorf("ErrOf(CodeOf(%v)) = %v", s, back)
		}
	}
}

func TestErrorCodeWrapped(t *testing.T) {
	wrapped := fmt.Errorf("put key %q: %w", "k", ErrNotFound)
	if CodeOf(wrapped) != CodeNotFound {
		t.Errorf("wrapped sentinel not recognized: %v", CodeOf(wrapped))
	}
}

// TestErrorCodePrecedence: an error that wraps two sentinels maps to
// the lower code, the same on every call, and every code below
// CodeOther maps back from its sentinel.
func TestErrorCodePrecedence(t *testing.T) {
	err := fmt.Errorf("%w: %w", ErrStaleEpoch, ErrBlockFull)
	for i := 0; i < 1000; i++ {
		if code := CodeOf(err); code != CodeBlockFull {
			t.Fatalf("call %d: CodeOf = %v, want CodeBlockFull, the lower code", i, code)
		}
	}
	for code := CodeOK + 1; code < CodeOther; code++ {
		if got := CodeOf(ErrOf(code, nil)); got != code {
			t.Errorf("CodeOf(ErrOf(%d)) = %d", code, got)
		}
	}
}

// TestErrOfSentinelAllocs: an answer with a plain sentinel code maps
// back to its sentinel without reading its payload, so it allocates
// nothing, however long the payload (a redirect's target, a refusal's
// text). Only the codes whose payload is parsed or kept — quota, not
// leader, degraded and CodeOther — convert it.
func TestErrOfSentinelAllocs(t *testing.T) {
	payload := []byte("jiffy: block full: a message the sentinel does not keep")
	for code := CodeOK + 1; code < CodeOther; code++ {
		switch code {
		case CodeQuotaExceeded, CodeNotLeader, CodeServerDegraded:
			continue
		}
		var err error
		if allocs := testing.AllocsPerRun(100, func() { err = ErrOf(code, payload) }); allocs != 0 {
			t.Errorf("ErrOf(%d) allocates %.1f objects, want 0", code, allocs)
		}
		if err != codeToErr[code] {
			t.Errorf("ErrOf(%d) = %v, want %v", code, err, codeToErr[code])
		}
	}
}

func TestErrorCodeOther(t *testing.T) {
	if CodeOf(errors.New("boom")) != CodeOther {
		t.Error("arbitrary error should map to CodeOther")
	}
	err := ErrOf(CodeOther, []byte("boom"))
	if err == nil || err.Error() != "boom" {
		t.Errorf("ErrOf(CodeOther) = %v", err)
	}
	if ErrOf(CodeOK, nil) != nil {
		t.Error("CodeOK should map to nil")
	}
	if CodeOf(nil) != CodeOK {
		t.Error("nil should map to CodeOK")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := TestConfig().Validate(); err != nil {
		t.Errorf("test config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.BlockSize = 0 },
		func(c *Config) { c.LeaseDuration = 0 },
		func(c *Config) { c.LeaseScanPeriod = 0 },
		func(c *Config) { c.HighThreshold = 0 },
		func(c *Config) { c.HighThreshold = 1.5 },
		func(c *Config) { c.LowThreshold = 0.99 }, // >= high
		func(c *Config) { c.NumHashSlots = 100 },  // not a power of two
		func(c *Config) { c.NumHashSlots = 0 },
		func(c *Config) { c.ChainLength = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
}

func TestBlockInfoString(t *testing.T) {
	b := BlockInfo{ID: 7, Server: "10.0.0.1:9090"}
	if b.String() != "B7@10.0.0.1:9090" {
		t.Errorf("String() = %q", b.String())
	}
}

func TestReplicaChain(t *testing.T) {
	c := ReplicaChain{{ID: 1, Server: "a"}, {ID: 2, Server: "b"}, {ID: 3, Server: "c"}}
	if c.Head().ID != 1 {
		t.Errorf("head = %v", c.Head())
	}
	if c.Tail().ID != 3 {
		t.Errorf("tail = %v", c.Tail())
	}
}
