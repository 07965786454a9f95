package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestLintStaleHeading builds a one-command checkout whose README also
// documents a command that has no cmd/<name>/main.go.
func TestLintStaleHeading(t *testing.T) {
	root := t.TempDir()
	write := func(rel, data string) {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("cmd/tool/main.go", "package main\n\nimport \"flag\"\n\nvar v = flag.Bool(\"v\", false, \"verbose\")\n\nfunc main() {}\n")
	write("README.md", "## Command-line reference\n\n### `tool` / `gone` — two tools\n\n`-v` is verbose.\n\n### `old` — removed\n")

	failures, ncmd, err := lint(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`README.md heading names command "gone", but there is no cmd/gone/main.go`,
		`README.md heading names command "old", but there is no cmd/old/main.go`,
	}
	if ncmd != 1 || !reflect.DeepEqual(failures, want) {
		t.Fatalf("lint = %q (%d commands), want %q (1 command)", failures, ncmd, want)
	}
}

// TestLintStaleFlagRow builds a two-command checkout whose README flag
// tables keep rows for flags the commands no longer define.
func TestLintStaleFlagRow(t *testing.T) {
	root := t.TempDir()
	write := func(rel, data string) {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("cmd/tool/main.go", "package main\n\nimport \"flag\"\n\nvar v = flag.Bool(\"v\", false, \"verbose\")\n\nfunc main() {}\n")
	write("cmd/aux/main.go", "package main\n\nimport \"flag\"\n\nvar q = flag.Bool(\"q\", false, \"quiet\")\n\nfunc main() {}\n")
	write("README.md", "## Command-line reference\n\n"+
		"| `-x` | off | a table outside any command heading |\n\n"+
		"### `tool` — a tool\n\n| `-v` | off | verbose |\n| `-gone` | on | removed |\n| `-v` / `-old` | \"\" | one live, one removed |\n\n"+
		"### `aux` — another\n\n| `-q` | off | quiet |\n| `-v` | off | tool's flag, not aux's |\n")

	failures, ncmd, err := lint(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"README.md flag row names -gone, which tool does not define",
		"README.md flag row names -old, which tool does not define",
		"README.md flag row names -v, which aux does not define",
	}
	if ncmd != 2 || !reflect.DeepEqual(failures, want) {
		t.Fatalf("lint = %q (%d commands), want %q (2 commands)", failures, ncmd, want)
	}
}
