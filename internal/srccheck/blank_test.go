package srccheck

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// blankCases are blankBodies' table: each source, the fragments that must
// survive at their original offsets and the ones that must be gone.
var blankCases = []struct {
	name       string
	src        string
	keep, gone []string
}{
	{
		name: "braces in strings, raw strings, runes and comments",
		src: "package p\n\nvar S, R = \"{\", '}'\n\n" +
			"func F() int {\n\ts := \"}{\"\n\tr := `}\n{`\n\tc := '}'\n\tq := '\\''\n\t// }\n\t/* { */\n" +
			"\treturn len(s) + len(r) + int(c) + int(q)\n}\n\n" +
			"var After = 1 // {\n",
		keep: []string{`var S, R = "{", '}'`, "func F() int {", "var After = 1 // {"},
		gone: []string{"return", "len(s)", "`", "/*"},
	},
	{
		name: "struct and interface types in parameters and results",
		src: "package p\n\n" +
			"func G(x struct{ A int }, y interface{ M() }) (z struct {\n\tB string `json:\"{b}\"`\n}) {\n\tz.B = \"x\"\n\treturn\n}\n\n" +
			"type T struct {\n\tf func() int\n}\n\nfunc (t *T) M() { t.f = nil }\n",
		keep: []string{"struct{ A int }", "interface{ M() }", "struct {\n\tB string `json:\"{b}\"`\n}", "type T struct {\n\tf func() int\n}", "func (t *T) M() {"},
		gone: []string{`z.B = "x"`, "t.f = nil"},
	},
	{
		name: "generic constraints",
		src: "package p\n\ntype Number interface{ ~int | ~float64 }\n\n" +
			"func Sum[T interface{ ~int | ~float64 }](xs []T) (s T) {\n\tfor _, x := range xs {\n\t\ts += x\n\t}\n\treturn\n}\n\n" +
			"type Pair[K comparable, V any] struct {\n\tk K\n\tv V\n}\n\n" +
			"func (p Pair[K, V]) Key() K { return p.k }\n",
		keep: []string{"interface{ ~int | ~float64 }", "struct {\n\tk K\n\tv V\n}", "func (p Pair[K, V]) Key() K {"},
		gone: []string{"range xs", "return p.k"},
	},
	{
		name: "func literal and composite literals in var initializers",
		src: "package p\n\nvar Handler = func(w int) (n int, err error) {\n\treturn w, nil\n}\n\n" +
			"var Table = map[string]int{\"a\": helper(), \"b\": 2}\n\n" +
			"var Anon = struct{ A, B int }{A: helper()}\n\n" +
			"func helper() int { return 1 }\n",
		keep: []string{"var Handler = func(w int) (n int, err error) {", "var Table = map[string]int{", "struct{ A, B int }{"},
		gone: []string{"return w, nil", `"a": helper()`, "A: helper()", "return 1"},
	},
	{
		name: "[...]T literals keep their length",
		src: "package p\n\nvar Arr = [...]string{\"a\", \"b\", \"c\"}\n\n" +
			"var Rows = [...]struct{ A int }{\n\t{1},\n\t{2},\n\t{3}, // three\n}\n\n" +
			"var Keyed = [...]int{5: 1, 2}\n\nvar Calls = [...]int{len(\"ab\"), max(1, 2)}\n\n" +
			"var Short = [...]int{\n1,\n2,\n}\n",
		keep: []string{"\"c\"}", "struct{ A int }{", "{3}, // three", "var Keyed = [...]int{5: 1, 2}", "max(1, 2)}", "2,\n}"},
		gone: []string{`"a"`, "{1}"},
	},
	{
		name: "line directives are kept",
		src: "package p\n\nfunc H() {\n//line other.go:100\n\tx := 1\n\t_ = x /*line more.go:7:3*/\n}\n\n" +
			"var AfterLine = 2\n",
		keep: []string{"//line other.go:100", "/*line more.go:7:3*/", "var AfterLine = 2"},
		gone: []string{"x := 1"},
	},
}

// TestBlankBodies: for each case, blanking keeps the length and every
// newline, the kept fragments stay at their offsets and the others are
// gone; the blanked file parses with the same top-level declarations at
// the same positions, and type-checks with IgnoreFuncBodies to the same
// package-level objects with the same types.
func TestBlankBodies(t *testing.T) {
	for _, tc := range blankCases {
		t.Run(tc.name, func(t *testing.T) {
			out := []byte(tc.src)
			blankBodies(out)
			checkBlanked(t, []byte(tc.src), out)
			for _, k := range tc.keep {
				at := strings.Index(tc.src, k)
				if at < 0 {
					t.Fatalf("bad case: %q not in the source", k)
				}
				if got := string(out[at : at+len(k)]); got != k {
					t.Errorf("kept %q became %q", k, got)
				}
			}
			for _, g := range tc.gone {
				if bytes.Contains(out, []byte(g)) {
					t.Errorf("%q survived:\n%s", g, out)
				}
			}
			want, err := declTypes(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			got, err := declTypes(string(out))
			if err != nil {
				t.Fatalf("blanked source does not type-check: %v\n%s", err, out)
			}
			if got != want {
				t.Errorf("package objects\n%s\nbefore blanking\n%s", got, want)
			}
		})
	}
}

// TestBlankBodiesUnbalanced: an unclosed region, an unterminated string or
// raw string inside one, or a stray closing brace stays a parse error.
func TestBlankBodiesUnbalanced(t *testing.T) {
	for _, src := range []string{
		"package p\n\nfunc F() {\n\treturn\n",
		"package p\n\nfunc F() {\n\ts := \"}\n",
		"package p\n\nfunc F() {\n\ts := `}\n",
		"package p\n\nfunc F() {\n\t/* } */\n",
		"package p\n\nvar A = [...]int{1, 2\n",
		"package p\n\nfunc F() {}\n}\n",
	} {
		out := []byte(src)
		blankBodies(out)
		if _, err := parser.ParseFile(token.NewFileSet(), "x.go", out, parser.SkipObjectResolution); err == nil {
			t.Errorf("blanked %q parses:\n%s", src, out)
		}
	}
}

// FuzzBlankBodies: blanking keeps the length and every newline, and
// whenever the input parses, so does the output, with the same top-level
// declarations at the same positions.
func FuzzBlankBodies(f *testing.F) {
	for _, tc := range blankCases {
		f.Add([]byte(tc.src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		out := bytes.Clone(src)
		blankBodies(out)
		checkBlanked(t, src, out)
	})
}

// checkBlanked checks out, the blanking of src: same length, newlines at
// the same offsets, and, when src parses, the same top-level declarations
// at the same positions.
func checkBlanked(t *testing.T, src, out []byte) {
	t.Helper()
	if len(out) != len(src) {
		t.Fatalf("length %d, want %d", len(out), len(src))
	}
	for i := range src {
		if (src[i] == '\n') != (out[i] == '\n') {
			t.Fatalf("offset %d: newline moved (%q → %q)", i, src[i], out[i])
		}
	}
	want, err := declPositions(src)
	if err != nil {
		return
	}
	got, err := declPositions(out)
	if err != nil {
		t.Fatalf("input parses, blanked output does not: %v\n%s", err, out)
	}
	if got != want {
		t.Errorf("declarations\n%s\nbefore blanking\n%s", got, want)
	}
}

// declPositions parses src and lists its top-level declarations and specs
// with their start and end positions.
func declPositions(src []byte) (string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.SkipObjectResolution)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	span := func(kind string, n ast.Node) {
		fmt.Fprintf(&b, "%s %s %s\n", kind, fset.Position(n.Pos()), fset.Position(n.End()))
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			span("func "+d.Name.Name, d)
		case *ast.GenDecl:
			span(d.Tok.String(), d)
			for _, s := range d.Specs {
				span("spec", s)
			}
		default:
			span("bad", d)
		}
	}
	return b.String(), nil
}

// declTypes type-checks src, an import-free package, with function bodies
// ignored and lists its package-level objects with their types and
// positions.
func declTypes(src string) (string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.SkipObjectResolution)
	if err != nil {
		return "", err
	}
	conf := types.Config{IgnoreFuncBodies: true}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		fmt.Fprintf(&b, "%s %s\n", types.ObjectString(obj, nil), fset.Position(obj.Pos()))
	}
	return b.String(), nil
}
