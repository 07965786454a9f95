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
