package core

import (
	"fmt"
	"strings"
)

// PathSep separates components of a hierarchical address. A full block
// address looks like "T4.T6.B6_2" in the paper; we use '/'-separated
// paths rooted at the job: "jobID/T4/T6".
const PathSep = "/"

// Path is a hierarchical address prefix: the first component names the
// job, subsequent components name tasks (interior nodes of the job's
// DAG-shaped hierarchy). A Path never names a block; blocks are leaves
// managed by the controller under their owning prefix.
type Path string

// NewPath builds a Path from components, validating each one.
func NewPath(components ...string) (Path, error) {
	for _, c := range components {
		if err := ValidateComponent(c); err != nil {
			return "", err
		}
	}
	return Path(strings.Join(components, PathSep)), nil
}

// MustPath is NewPath that panics on invalid components; for literals
// in tests and examples.
func MustPath(components ...string) Path {
	p, err := NewPath(components...)
	if err != nil {
		panic(err)
	}
	return p
}

// ValidateComponent rejects empty components and components containing
// the separator.
func ValidateComponent(c string) error {
	if c == "" {
		return fmt.Errorf("core: empty path component")
	}
	if strings.Contains(c, PathSep) {
		return fmt.Errorf("core: path component %q contains %q", c, PathSep)
	}
	return nil
}

// Job returns the job component (first element) of the path.
func (p Path) Job() JobID {
	job, _, _ := strings.Cut(string(p), PathSep)
	return JobID(job)
}

// Base returns the final component of the path.
func (p Path) Base() string {
	return string(p[strings.LastIndex(string(p), PathSep)+1:])
}

// Parent returns the path with the final component removed; the parent
// of a single-component path (a job root) is the empty path.
func (p Path) Parent() Path {
	i := strings.LastIndex(string(p), PathSep)
	if i < 0 {
		return ""
	}
	return p[:i]
}

// Child extends the path with one validated component.
func (p Path) Child(name string) (Path, error) {
	if err := ValidateComponent(name); err != nil {
		return "", err
	}
	if p == "" {
		return Path(name), nil
	}
	return p + Path(PathSep) + Path(name), nil
}

// MustChild is Child that panics on invalid input.
func (p Path) MustChild(name string) Path {
	c, err := p.Child(name)
	if err != nil {
		panic(err)
	}
	return c
}

// HasPrefix reports whether p is equal to or lies beneath prefix in the
// hierarchy, comparing whole components ("a/bc" is not under "a/b").
func (p Path) HasPrefix(prefix Path) bool {
	if prefix == "" {
		return true
	}
	if p == prefix {
		return true
	}
	return strings.HasPrefix(string(p), string(prefix)+PathSep)
}

// Depth returns the number of components.
func (p Path) Depth() int {
	if p == "" {
		return 0
	}
	return strings.Count(string(p), PathSep) + 1
}

// Valid reports whether every component of the path is valid and the
// path is non-empty: no component is empty, so the path neither starts
// nor ends with the separator nor holds two in a row.
func (p Path) Valid() bool {
	s := string(p)
	return s != "" && !strings.HasPrefix(s, PathSep) && !strings.HasSuffix(s, PathSep) &&
		!strings.Contains(s, PathSep+PathSep)
}
