package clustersim_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	cmdRef  = regexp.MustCompile(`\bcmd/([a-z][a-z0-9_-]*)`)
	flagTok = regexp.MustCompile(`^-{1,2}([A-Za-z][A-Za-z0-9_-]*)`)
	chain   = regexp.MustCompile(`&&|\|\||[|;]`)
	codeTok = regexp.MustCompile("`([^`\\s]+)`")
)

// pathPrefixes and pathSuffixes mark a backticked token as a repo path.
var (
	pathPrefixes = []string{"internal/", "cmd/", "specs/", "results/", "examples/", "perfbench/", "docs/"}
	pathSuffixes = []string{".json", ".txt", ".md", ".yml", ".sh"}
)

// TestDocsNameLiveCommands keeps the prose docs honest about the command
// line: every cmd/<name> they mention must be a directory under cmd/, and
// every -flag on a command line in a fenced block (`go run ./cmd/<name> …`
// or `<name> …`) must be declared in that command's main.go. A removed
// command or flag fails here until the docs stop naming it. Likewise every
// backticked path (a token under a source directory, or a data or doc
// file name) must exist, relative to the root or to docs/; tokens with a
// <placeholder> name paths made at run time and are not checked.
func TestDocsNameLiveCommands(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append([]string{"README.md", "DESIGN.md"}, docs...)
	mains := map[string]string{} // command name -> main.go source
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if src, err := os.ReadFile(filepath.Join("cmd", e.Name(), "main.go")); err == nil {
			mains[e.Name()] = string(src)
		}
	}

	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		for i, line := range lines {
			for _, m := range cmdRef.FindAllStringSubmatch(line, -1) {
				if _, ok := mains[m[1]]; !ok {
					t.Errorf("%s:%d names cmd/%s, which does not exist", doc, i+1, m[1])
				}
			}
			for _, m := range codeTok.FindAllStringSubmatch(line, -1) {
				if isRepoPath(m[1]) && !pathExists(m[1]) {
					t.Errorf("%s:%d names %s, which does not exist", doc, i+1, m[1])
				}
			}
		}
		isCmd := func(name string) bool { _, ok := mains[name]; return ok }
		for _, cl := range fencedCommandLines(lines, isCmd) {
			src, ok := mains[cl.cmd]
			if !ok {
				continue // a dead `go run ./cmd/X` is reported above
			}
			for _, f := range cl.flags {
				if !strings.Contains(src, `"`+f+`"`) {
					t.Errorf("%s:%d passes -%s, which cmd/%s does not declare", doc, cl.line, f, cl.cmd)
				}
			}
		}
	}
}

// isRepoPath reports whether a backticked token names a repo path.
func isRepoPath(tok string) bool {
	if strings.Contains(tok, "<") {
		return false
	}
	for _, p := range pathPrefixes {
		if strings.HasPrefix(tok, p) {
			return true
		}
	}
	for _, s := range pathSuffixes {
		if strings.HasSuffix(tok, s) {
			return true
		}
	}
	return false
}

// pathExists reports whether a path or glob matches a file relative to the
// root or to docs/.
func pathExists(path string) bool {
	for _, p := range []string{path, filepath.Join("docs", path)} {
		if m, _ := filepath.Glob(p); len(m) > 0 {
			return true
		}
	}
	return false
}

// commandLine is one invocation of a repo command found in a fenced block.
type commandLine struct {
	line  int // 1-based line where the invocation starts
	cmd   string
	flags []string
}

// fencedCommandLines extracts the repo-command invocations from the fenced
// code blocks of a markdown file. Backslash continuations are joined, a
// trailing "# comment" is dropped, and a line chained with &&, | or ; is
// split into its commands. Segments that start with neither `go run ./cmd/X`
// nor a bare command name (isCmd) are not command lines.
func fencedCommandLines(lines []string, isCmd func(string) bool) []commandLine {
	var out []commandLine
	inFence := false
	for i := 0; i < len(lines); i++ {
		trimmed := strings.TrimSpace(lines[i])
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			continue
		}
		start := i + 1
		text := trimmed
		for strings.HasSuffix(text, `\`) && i+1 < len(lines) {
			i++
			text = strings.TrimSuffix(text, `\`) + " " + strings.TrimSpace(lines[i])
		}
		if k := strings.Index(text, " #"); k >= 0 {
			text = text[:k]
		}
		for _, seg := range chain.Split(text, -1) {
			fields := strings.Fields(seg)
			for len(fields) > 0 && (fields[0] == "$" || strings.Contains(fields[0], "=")) {
				fields = fields[1:] // prompt or VAR=value prefix
			}
			var name string
			switch {
			case len(fields) >= 3 && fields[0] == "go" && fields[1] == "run" && strings.HasPrefix(fields[2], "./cmd/"):
				name, fields = strings.TrimPrefix(fields[2], "./cmd/"), fields[3:]
			case len(fields) >= 1 && isCmd(strings.TrimPrefix(fields[0], "./")):
				name, fields = strings.TrimPrefix(fields[0], "./"), fields[1:]
			default:
				continue
			}
			cl := commandLine{line: start, cmd: name}
			for _, f := range fields {
				if m := flagTok.FindStringSubmatch(f); m != nil {
					cl.flags = append(cl.flags, m[1])
				}
			}
			out = append(out, cl)
		}
	}
	return out
}

// TestFencedCommandLines pins the extractor on the shapes the docs use.
func TestFencedCommandLines(t *testing.T) {
	doc := strings.Split("prose -not-a-flag\n```bash\n"+
		"go run ./cmd/experiments -run all -scale 0.5   # comment -nope\n"+
		"go run ./cmd/experiments -checkpoint-dir ck \\\n    -timeout=10m\n"+
		"experiments -record-trace t && ./clustersim -bench gzip | head -n 3\n"+
		"go test ./cmd/simlint -run X\n"+
		"```\nclustersim -outside-fence\n", "\n")
	isCmd := func(name string) bool { return name == "experiments" || name == "clustersim" }
	got := fencedCommandLines(doc, isCmd)
	want := []commandLine{
		{3, "experiments", []string{"run", "scale"}},
		{4, "experiments", []string{"checkpoint-dir", "timeout"}},
		{6, "experiments", []string{"record-trace"}},
		{6, "clustersim", []string{"bench"}},
	}
	if len(got) != len(want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].line != want[i].line || got[i].cmd != want[i].cmd ||
			strings.Join(got[i].flags, ",") != strings.Join(want[i].flags, ",") {
			t.Errorf("command %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
