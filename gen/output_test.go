package gen

import (
	"fmt"
	"go/ast"
	"go/format"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cognicryptgen/rules"
	"cognicryptgen/templates"
)

// TestOutputsPrintLikeFormatSource holds the pipeline's printer to
// go/format on the 13 outputs, under the template's package and three
// overrides, with verification off and on: each output is format.Source's
// fixed point, and with its indentation stripped and its imports written
// in reverse order, FormatFile prints it back to format.Source's bytes.
func TestOutputsPrintLikeFormatSource(t *testing.T) {
	rs := rules.MustLoad()
	paths := NewPathCache()
	base, err := New(rs, "", Options{Paths: paths})
	if err != nil {
		t.Fatal(err)
	}
	c := base.checker
	importBlock := regexp.MustCompile(`(?s)import \(\n(.*?)\n\)`)
	indent := regexp.MustCompile(`(?m)^[\t ]+`)
	for _, uc := range allUseCases(t) {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range []string{"", "app", "svc", "vault"} {
			for _, verify := range []bool{false, true} {
				key := fmt.Sprintf("%s|pkg=%s|verify=%t", uc.File, pkg, verify)
				res, err := base.WithOptions(Options{PackageName: pkg, Verify: verify, Paths: paths}).GenerateFile(uc.File, src)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if want, err := format.Source([]byte(res.Output)); err != nil || string(want) != res.Output {
					t.Errorf("%s: output is not gofmt's fixed point (err %v)", key, err)
				}
				mangled := importBlock.ReplaceAllStringFunc(res.Output, func(block string) string {
					lines := strings.Split(block, "\n")
					slices.Reverse(lines[1 : len(lines)-1])
					return strings.Join(lines, "\n")
				})
				mangled = indent.ReplaceAllString(mangled, "")
				if mangled == res.Output {
					t.Fatalf("%s: mangling left the output as it was", key)
				}
				want, err := format.Source([]byte(mangled))
				if err != nil {
					t.Fatalf("%s: format.Source: %v", key, err)
				}
				f, got, err := c.FormatFile("generated_"+uc.File, []byte(mangled))
				if err != nil {
					t.Fatalf("%s: FormatFile: %v", key, err)
				}
				c.Release(f)
				if got != string(want) {
					t.Errorf("%s: FormatFile and format.Source differ on the mangled output", key)
				}
			}
		}
	}
}

// TestVerifyErrorNamesServedText: a type error in the file an output was
// printed from is reported exactly as VerifySource reports it on the
// printed text, with that text's positions, and a file that fails where
// its printed text passes still fails with its own error.
func TestVerifyErrorNamesServedText(t *testing.T) {
	g := sharedGenerator(t)
	c := g.checker
	const errPrefix = "gen: generated code failed verification (this is a generator bug): "

	// Unsorted imports, blank lines and a one-line body: gofmt moves the
	// type error to another line and column.
	const spliced = "package p\n\nimport (\n\t\"strings\"\n\t\"fmt\"\n)\n\n\n\nfunc f() { var x int = \"s\"; fmt.Println(x, strings.ToLower) }\n"
	f, out, err := c.FormatFile("generated_t.go", []byte(spliced))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(f)
	treeErr, textErr := c.VerifyFile(f), c.VerifySource("generated_t.go", out)
	if treeErr == nil || textErr == nil {
		t.Fatalf("tree error %v, text error %v: want both", treeErr, textErr)
	}
	if treeErr.Error() == textErr.Error() {
		t.Fatalf("tree and text name the same position, %q: the case tests nothing", treeErr)
	}
	if err := g.verifyOutput("t.go", out, f); err == nil || err.Error() != errPrefix+textErr.Error() {
		t.Errorf("verifyOutput = %v, want %q", err, errPrefix+textErr.Error())
	}

	// The tree changed after printing: its text checks clean, it does not.
	f2, out2, err := c.FormatFile("generated_u.go", []byte("package p\n\nfunc f() int { v := 1; return v }\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(f2)
	ast.Inspect(f2, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			r.Results[0].(*ast.Ident).Name = "missing"
		}
		return true
	})
	if err := c.VerifySource("generated_u.go", out2); err != nil {
		t.Fatalf("printed text fails: %v", err)
	}
	if err := g.verifyOutput("u.go", out2, f2); err == nil || !strings.HasPrefix(err.Error(), errPrefix) || !strings.Contains(err.Error(), "undefined: missing") {
		t.Errorf("verifyOutput = %v, want the tree's undefined: missing", err)
	}
}
