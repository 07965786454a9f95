// Command docslint keeps README.md honest about the CLI surface: it
// parses every cmd/*/main.go for flag definitions and fails when a
// flag (or a whole command) is missing from README.md, or when a
// command-reference heading (### `name` — …) names a command that has
// no cmd/name/main.go.
//
//	docslint            # lint README.md against cmd/*/main.go
//	docslint -root dir  # lint another checkout
//
// It is wired into CI's lint job, so adding a flag without documenting
// it breaks the build. The check is textual on purpose — a flag named
// "journal" is satisfied by any occurrence of "-journal" in the README
// — because the README documents flags in prose tables, not in
// machine-readable form.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root (containing README.md and cmd/)")
	flag.Parse()

	failures, ncmd, err := lint(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docslint:", err)
		os.Exit(2)
	}
	if len(failures) > 0 {
		for _, m := range failures {
			fmt.Println("FAIL ", m)
		}
		fmt.Printf("docslint: %d undocumented flag(s)/command(s) or stale heading(s)\n", len(failures))
		os.Exit(1)
	}
	fmt.Printf("docslint: %d command(s) documented\n", ncmd)
}

// lint checks root's README.md against its cmd/*/main.go files and
// returns one message per failure and the number of commands checked.
func lint(root string) (failures []string, ncmd int, err error) {
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return nil, 0, err
	}
	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		return nil, 0, fmt.Errorf("no cmd/*/main.go found under %s", root)
	}
	sort.Strings(mains)

	for _, path := range mains {
		cmd := filepath.Base(filepath.Dir(path))
		if !strings.Contains(string(readme), cmd) {
			failures = append(failures, fmt.Sprintf("command %q is not mentioned in README.md", cmd))
			continue
		}
		flags, err := flagNames(path)
		if err != nil {
			return nil, 0, err
		}
		for _, name := range flags {
			if !strings.Contains(string(readme), "-"+name) {
				failures = append(failures, fmt.Sprintf("%s: flag -%s is not documented in README.md", cmd, name))
			}
		}
	}
	for _, cmd := range headingCommands(string(readme)) {
		if _, err := os.Stat(filepath.Join(root, "cmd", cmd, "main.go")); err != nil {
			failures = append(failures, fmt.Sprintf("README.md heading names command %q, but there is no cmd/%s/main.go", cmd, cmd))
		}
	}
	return failures, len(mains), nil
}

// headingCommands returns the command names of the README's command-
// reference headings: every backquoted name in a "### `name` — …"
// heading before its dash ("### `a` / `b` — …" names two).
func headingCommands(readme string) []string {
	var names []string
	for _, line := range strings.Split(readme, "\n") {
		if !strings.HasPrefix(line, "### `") {
			continue
		}
		head, _, _ := strings.Cut(line, " — ")
		parts := strings.Split(head, "`")
		for i := 1; i < len(parts); i += 2 {
			names = append(names, parts[i])
		}
	}
	return names
}

// flagNames extracts the names passed to flag.String/Bool/Int/... calls
// in one file.
func flagNames(path string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "flag" {
			return true
		}
		switch sel.Sel.Name {
		case "String", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration",
			"StringVar", "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "Float64Var", "DurationVar":
		default:
			return true
		}
		arg := call.Args[0]
		if sel.Sel.Name[len(sel.Sel.Name)-3:] == "Var" && len(call.Args) > 1 {
			arg = call.Args[1]
		}
		if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names = append(names, name)
			}
		}
		return true
	})
	return names, nil
}
