package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestKnobTableMatchesConfig holds DESIGN.md's table of Config fields and
// their setters ("How a knob travels") to core.go: it must list exactly the
// exported fields, once each, and name a setter for every one. A field no
// code outside the tests sets has no row to write; it belongs behind a test
// hook (export_test.go) instead.
func TestKnobTableMatchesConfig(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "core.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Config" {
			return true
		}
		for _, field := range ts.Type.(*ast.StructType).Fields.List {
			for _, name := range field.Names {
				if name.IsExported() {
					exported = append(exported, name.Name)
				}
			}
		}
		return false
	})
	if len(exported) == 0 {
		t.Fatal("no exported fields found in core.go's Config")
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## How a knob travels\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "How a knob travels" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	_, table, ok := strings.Cut(section, "\n| Field | Production setter(s) |\n|---|---|\n")
	if !ok {
		t.Fatal(`"How a knob travels" has no "| Field | Production setter(s) |" table`)
	}
	var listed []string
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		name := strings.Trim(strings.TrimSpace(cells[0]), "`")
		if len(cells) < 2 || strings.TrimSpace(cells[1]) == "" {
			t.Errorf("knob table row %q names no setter", name)
		}
		if slices.Contains(listed, name) {
			t.Errorf("knob table lists %s twice", name)
		}
		listed = append(listed, name)
	}
	for _, name := range exported {
		if !slices.Contains(listed, name) {
			t.Errorf("Config.%s is exported but the knob table has no row for it", name)
		}
	}
	for _, name := range listed {
		if !slices.Contains(exported, name) {
			t.Errorf("knob table lists %s, which is not an exported Config field", name)
		}
	}
}
