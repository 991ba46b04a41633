package igq

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsNameExistingTests reads the CI workflow and checks that
// every alternative of each `go test` step's -run and -fuzz pattern
// matches (as go test matches: unanchored, so a prefix such as TestSync
// counts) a Test or Fuzz function — a Fuzz function for -fuzz — declared in
// the packages the step names. A renamed or deleted test otherwise leaves
// a step that silently runs nothing under its name.
func TestCIPatternsNameExistingTests(t *testing.T) {
	yml, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	cmds := goTestCommands(string(yml))
	if len(cmds) == 0 {
		t.Fatal("no go test step found in ci.yml")
	}
	for _, msg := range stalePatterns(t, cmds) {
		t.Error(msg)
	}
}

// TestCIPatternCheckSeesBlockSteps seeds stale names into a single-line
// step and into a `run: |` block, and expects the check to flag both, and
// to skip the commands that run after a `cd` into another module.
func TestCIPatternCheckSeesBlockSteps(t *testing.T) {
	const yml = `jobs:
  test:
    steps:
      - name: one line
        run: go test . -run 'TestCIPatternsNameExistingTests|TestNoSuchOne' -v
      - name: a block
        run: |
          go build ./...
          go test . \
            -run '^$' -fuzz '^FuzzNoSuchTwo$'
      - name: another module
        run: cd bench && go test . -run TestNoSuchThree
      - name: after
        run: echo done
`
	cmds := goTestCommands(yml)
	if len(cmds) != 2 || cmds[0].line != 5 || cmds[1].line != 9 {
		t.Fatalf("commands = %+v, want the go test lines 5 and 9", cmds)
	}
	msgs := stalePatterns(t, cmds)
	if len(msgs) != 2 || !strings.Contains(msgs[0], "TestNoSuchOne") || !strings.Contains(msgs[1], "FuzzNoSuchTwo") {
		t.Fatalf("flagged %q, want TestNoSuchOne and FuzzNoSuchTwo", msgs)
	}
}

// ciCommand is one `go test` command of a workflow: the line it starts
// on and its words.
type ciCommand struct {
	line int
	args []string
}

// goTestCommands returns the `go test` commands of a workflow's `run:`
// steps, single-line and `run: |` blocks alike, with continuation lines
// joined. A step's commands after a `cd` run in another module (bench),
// whose tests this module does not declare, and are left out.
func goTestCommands(yml string) []ciCommand {
	lines := strings.Split(yml, "\n")
	var out []ciCommand
	for i := 0; i < len(lines); i++ {
		body, ok := strings.CutPrefix(strings.TrimSpace(lines[i]), "run:")
		if !ok {
			continue
		}
		type scriptLine struct {
			line int
			text string
		}
		var script []scriptLine
		if body = strings.TrimSpace(body); strings.HasPrefix(body, "|") {
			indent := indentOf(lines[i])
			for i+1 < len(lines) && (strings.TrimSpace(lines[i+1]) == "" || indentOf(lines[i+1]) > indent) {
				i++
				script = append(script, scriptLine{i + 1, lines[i]})
			}
		} else {
			script = []scriptLine{{i + 1, body}}
		}
		cd := false
		for j := 0; j < len(script) && !cd; j++ {
			start, cmd := script[j].line, strings.TrimSpace(script[j].text)
			for strings.HasSuffix(cmd, "\\") && j+1 < len(script) {
				j++
				cmd = strings.TrimSuffix(cmd, "\\") + " " + strings.TrimSpace(script[j].text)
			}
			for _, part := range strings.Split(cmd, "&&") {
				args := shellWords(part)
				if len(args) > 0 && args[0] == "cd" {
					cd = true
				}
				if !cd && len(args) >= 2 && args[0] == "go" && args[1] == "test" {
					out = append(out, ciCommand{start, args})
				}
			}
		}
	}
	return out
}

func indentOf(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }

// stalePatterns returns a message for every -run or -fuzz alternative of
// cmds that matches no function declared in the command's packages.
func stalePatterns(t *testing.T, cmds []ciCommand) []string {
	var msgs []string
	for _, c := range cmds {
		var pkgs []string
		var flags, pats []string
		for i := 2; i < len(c.args); i++ {
			switch a := c.args[i]; {
			case (a == "-run" || a == "-fuzz") && i+1 < len(c.args):
				flags, pats = append(flags, a), append(pats, c.args[i+1])
				i++
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		tests, fuzzes := declaredTests(t, pkgs)
		for k, flag := range flags {
			names := tests
			if flag == "-fuzz" {
				names = fuzzes
			}
			for _, alt := range alternatives(pats[k]) {
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					msgs = append(msgs, fmt.Sprintf("ci.yml:%d: %s alternative %q: %v", c.line, flag, alt, err))
				} else if !anyMatch(re, names) {
					msgs = append(msgs, fmt.Sprintf("ci.yml:%d: %s alternative %q matches no function in %v", c.line, flag, alt, pkgs))
				}
			}
		}
	}
	return msgs
}

// shellWords splits a command line at blanks, keeping single-quoted words
// whole and unquoted.
func shellWords(s string) []string {
	var out []string
	var w strings.Builder
	quoted, inWord := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case (r == ' ' || r == '\t') && !quoted:
			if inWord {
				out, inWord = append(out, w.String()), false
				w.Reset()
			}
		default:
			w.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, w.String())
	}
	return out
}

// alternatives splits a pattern at its top-level '|', and keeps of each
// alternative the part before a '/' (the subtest levels).
func alternatives(pat string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range pat + "|" {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alt, _, _ := strings.Cut(pat[start:i], "/")
				out, start = append(out, alt), i+1
			}
		}
	}
	return out
}

var testFunc = regexp.MustCompile(`^func ((?:Test|Fuzz)\w*)\(`)

// declaredTests returns the Test and Fuzz functions (tests) and the Fuzz
// functions alone (fuzzes) of the _test.go files of pkgs, relative package
// paths of this module; "./..." names every package below.
func declaredTests(t *testing.T, pkgs []string) (tests, fuzzes []string) {
	t.Helper()
	scan := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(string(data), "\n") {
			if m := testFunc.FindStringSubmatch(l); m != nil {
				tests = append(tests, m[1])
				if strings.HasPrefix(m[1], "Fuzz") {
					fuzzes = append(fuzzes, m[1])
				}
			}
		}
	}
	for _, p := range pkgs {
		dir, recursive := strings.CutSuffix(p, "/...")
		err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case e.IsDir() && path != dir && (!recursive || strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata" || isModule(path)):
				return filepath.SkipDir
			case !e.IsDir() && strings.HasSuffix(path, "_test.go"):
				scan(path)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("package %s: %v", p, err)
		}
	}
	return tests, fuzzes
}

// isModule reports whether dir is the root of a nested module, which
// "./..." does not reach.
func isModule(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
