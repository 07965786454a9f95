// Command docslint keeps README.md honest about the CLI surface: it
// parses every cmd/*/main.go for flag definitions and fails when a
// flag (or a whole command) is missing from README.md, when a
// command-reference heading (### `name` — …) names a command that has
// no cmd/name/main.go, or when a flag-table row (| `-name` | …) under
// such a heading names a flag the command no longer defines.
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
		fmt.Printf("docslint: %d undocumented flag(s)/command(s) or stale heading(s)/flag row(s)\n", len(failures))
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

	defined := map[string]map[string]bool{} // command -> its flags
	for _, path := range mains {
		cmd := filepath.Base(filepath.Dir(path))
		flags, err := flagNames(path)
		if err != nil {
			return nil, 0, err
		}
		defined[cmd] = map[string]bool{}
		for _, name := range flags {
			defined[cmd][name] = true
		}
		if !strings.Contains(string(readme), cmd) {
			failures = append(failures, fmt.Sprintf("command %q is not mentioned in README.md", cmd))
			continue
		}
		for _, name := range flags {
			if !strings.Contains(string(readme), "-"+name) {
				failures = append(failures, fmt.Sprintf("%s: flag -%s is not documented in README.md", cmd, name))
			}
		}
	}
	// cmds holds the commands of the current ### heading, nil outside
	// one.
	var cmds []string
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "#") {
			cmds = headingCommands(line)
			for _, cmd := range cmds {
				if defined[cmd] == nil {
					failures = append(failures, fmt.Sprintf("README.md heading names command %q, but there is no cmd/%s/main.go", cmd, cmd))
				}
			}
			continue
		}
		for _, name := range rowFlags(line) {
			if !definedByAny(defined, cmds, name) {
				failures = append(failures, fmt.Sprintf("README.md flag row names -%s, which %s does not define", name, strings.Join(cmds, "/")))
			}
		}
	}
	return failures, len(mains), nil
}

// headingCommands returns the command names of a command-reference
// heading: every backquoted name in a "### `name` — …" heading before
// its dash ("### `a` / `b` — …" names two). Any other line names none.
func headingCommands(line string) []string {
	if !strings.HasPrefix(line, "### `") {
		return nil
	}
	var names []string
	head, _, _ := strings.Cut(line, " — ")
	parts := strings.Split(head, "`")
	for i := 1; i < len(parts); i += 2 {
		names = append(names, parts[i])
	}
	return names
}

// rowFlags returns the flag names of a flag-table row: every
// backquoted -name in the first cell of a "| `-name` | … |" line
// ("| `-a` / `-b` | …" names two). Any other line names none.
func rowFlags(line string) []string {
	if !strings.HasPrefix(line, "| `-") {
		return nil
	}
	cell, _, _ := strings.Cut(line[1:], "|")
	var names []string
	parts := strings.Split(cell, "`")
	for i := 1; i < len(parts); i += 2 {
		if name, ok := strings.CutPrefix(parts[i], "-"); ok {
			names = append(names, name)
		}
	}
	return names
}

// definedByAny reports whether one of cmds defines flag name. A row
// outside a command heading, or under a heading whose commands are all
// missing (reported on their own), is not checked.
func definedByAny(defined map[string]map[string]bool, cmds []string, name string) bool {
	checked := false
	for _, cmd := range cmds {
		if defined[cmd] != nil {
			checked = true
			if defined[cmd][name] {
				return true
			}
		}
	}
	return !checked
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
