package analysis

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseAnnotation(t *testing.T) {
	for _, tc := range []struct {
		text            string
		verb, rule, why string
		ok, malformed   bool
	}{
		{text: "// ordinary comment"},
		{text: "//simlint:allow determinism ring order is fixed", verb: "allow",
			rule: "determinism", why: "ring order is fixed", ok: true},
		{text: "//simlint:nostate rebuilt by the constructor", verb: "nostate",
			why: "rebuilt by the constructor", ok: true},
		{text: "//simlint:allow determinism", ok: true, malformed: true}, // no reason
		{text: "//simlint:allow", ok: true, malformed: true},
		{text: "//simlint:nostate", ok: true, malformed: true},
		{text: "//simlint:suppress everything", ok: true, malformed: true}, // unknown verb
		{text: "//simlint:", ok: true, malformed: true},
	} {
		verb, rule, why, ok, err := parseAnnotation(tc.text)
		if ok != tc.ok || (err != nil) != tc.malformed {
			t.Errorf("parseAnnotation(%q): ok=%t err=%v, want ok=%t malformed=%t",
				tc.text, ok, err, tc.ok, tc.malformed)
			continue
		}
		if tc.malformed {
			continue
		}
		if verb != tc.verb || rule != tc.rule || why != tc.why {
			t.Errorf("parseAnnotation(%q) = (%q, %q, %q), want (%q, %q, %q)",
				tc.text, verb, rule, why, tc.verb, tc.rule, tc.why)
		}
	}
}

// toy reports every function declaration; its diagnostics carry the
// function name so tests can tell which ones survived suppression.
var toy = &Analyzer{
	Name: "toy",
	Doc:  "reports every function declaration",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok {
					pass.Reportf(fn.Pos(), "func %s", fn.Name.Name)
				}
			}
		}
		return nil
	},
}

func TestAllowSuppression(t *testing.T) {
	units, err := NewFixtureLoader("testdata/src").Load("annot")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, err := Run(units, []*Analyzer{toy})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	// allowed and standalone are suppressed; plain, wrongRule and malformed
	// survive, and the broken annotation is reported under "simlint".
	want := map[string]bool{
		"toy: func plain":     true,
		"toy: func wrongRule": true,
		"toy: func malformed": true,
	}
	sawMalformed := false
	for _, g := range got {
		if strings.HasPrefix(g, "simlint: ") {
			sawMalformed = true
			continue
		}
		if !want[g] {
			t.Errorf("unexpected diagnostic %q", g)
		}
		delete(want, g)
	}
	for w := range want {
		t.Errorf("missing diagnostic %q", w)
	}
	if !sawMalformed {
		t.Errorf("malformed //simlint:allow was not reported under the simlint rule")
	}
}

// TestLoaderSharesTestPackageIdentity loads a real module package with
// in-package test files and checks that the augmented test unit reuses the
// base unit's *types.Package: identity sharing is what lets external test
// packages and their dependencies agree on one set of types.
func TestLoaderSharesTestPackageIdentity(t *testing.T) {
	l, err := NewLoader("../..", true)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	units, err := l.Load("./internal/rng")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(units) != 2 {
		t.Fatalf("got %d units, want base + in-package test", len(units))
	}
	base, test := units[0], units[1]
	if base.TestUnit || !test.TestUnit {
		t.Fatalf("unit order: base.TestUnit=%t test.TestUnit=%t", base.TestUnit, test.TestUnit)
	}
	if base.Types != test.Types {
		t.Errorf("test unit has its own *types.Package; want the base package's identity")
	}
	if base.Path != "clustersim/internal/rng" {
		t.Errorf("base path = %q", base.Path)
	}
	// Report sets must not overlap: base owns rng.go, the test unit owns
	// only the files it introduced.
	for f := range base.reportFiles {
		if test.reportFiles[f] {
			t.Errorf("file %s reportable from both units", f)
		}
	}
}

// TestSplitSourcesHonorsBuildConstraints: a file excluded by its build
// constraint is not loaded, so a constant declared once per build variant
// (as with //go:build race and !race) is not a redeclaration.
func TestSplitSourcesHonorsBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"p.go":          "package p\n",
		"on_test.go":    "//go:build sometag\n\npackage p\n\nconst budget = 8\n",
		"off_test.go":   "//go:build !sometag\n\npackage p\n\nconst budget = 0\n",
		"p_ext_test.go": "package p_test\n",
		"ignored.go":    "//go:build ignore\n\npackage p\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	goFiles, testFiles, xtestFiles, err := splitSources(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := func(fs []string) (out []string) {
		for _, f := range fs {
			out = append(out, filepath.Base(f))
		}
		return out
	}
	got := fmt.Sprint(base(goFiles), base(testFiles), base(xtestFiles))
	if want := "[p.go] [off_test.go] [p_ext_test.go]"; got != want {
		t.Errorf("split = %s, want %s", got, want)
	}
}
