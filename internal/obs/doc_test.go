package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestTraceTableMatchesTypes keeps the DESIGN.md §10 trace table honest:
// its `type` column must list exactly the Trace* event-type constants
// declared in trace.go, which must in turn be exactly the set the
// validator accepts.
func TestTraceTableMatchesTypes(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(design)
	start := strings.Index(text, "## §10 ")
	if start < 0 {
		t.Fatal("DESIGN.md has no §10")
	}
	section := text[start:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	var table []string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cell := strings.TrimSpace(strings.Split(line, "|")[1])
		table = append(table, strings.Trim(cell, "`"))
	}

	file, err := parser.ParseFile(token.NewFileSet(), "trace.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var consts []string
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !strings.HasPrefix(name.Name, "Trace") || !ok || lit.Kind != token.STRING {
					continue
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				consts = append(consts, v)
			}
		}
	}
	var valid []string
	for typ := range traceTypes {
		valid = append(valid, typ)
	}
	for _, s := range [][]string{table, consts, valid} {
		sort.Strings(s)
	}
	if !reflect.DeepEqual(table, consts) {
		t.Errorf("DESIGN.md §10 trace table types %v, Trace* constants %v", table, consts)
	}
	if !reflect.DeepEqual(consts, valid) {
		t.Errorf("Trace* constants %v, validator accepts %v", consts, valid)
	}
}
