package gen

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"regexp"
	"testing"

	"cognicryptgen/templates"
)

// FuzzParseTemplate asserts crash-freedom of the template scanner on
// arbitrary Go source: scanTemplate walks whatever AST go/parser accepts —
// struct hunting, fluent-chain extraction, constant and length fact
// collection — and must return a template or an error, never panic. The
// scanner runs against an empty type-info table here (nil map lookups are
// defined in Go and the scanner treats "no type info" as "no facts"),
// which keeps each fuzz iteration free of the expensive type-check
// universe while still covering every AST-shape-driven code path. The
// seed corpus is all 13 embedded production templates plus degenerate
// shapes.
func FuzzParseTemplate(f *testing.F) {
	for _, uc := range templates.All() {
		src, err := templates.Source(uc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uc.File, src)
	}
	for _, s := range []string{
		"package p",
		"package p\ntype T struct{}",
		"package p\ntype T struct{}\nfunc (t *T) M() { cryslgen.NewGenerator().Generate() }",
		"package p\ntype T struct{}\nfunc (t *T) M() {\n\tcryslgen.NewGenerator().ConsiderRule(\"gca.Cipher\").AddParameter(x, \"y\").Generate()\n}",
		"package p\ntype T struct{}\nfunc (t *T) M() { k := make([]byte, 32); _ = k }",
		"package p\nfunc F() {}",
	} {
		f.Add("seed.go", s)
	}
	f.Fuzz(func(t *testing.T, name, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			return // not Go source; the generator rejects it before scanning
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		tmpl, err := scanTemplate(name, src, file, fset, types.NewPackage("fuzz", "fuzz"), info)
		if tmpl == nil && err == nil {
			t.Fatal("scanTemplate returned neither template nor error")
		}
	})
}

// FuzzWordMatches pins indexWord and usesQualifier to the regexps they
// replace: `\bNAME\b` (the first two matches, as suppressUnused counts
// them) and `\bNAME\.`. Names are Go identifiers, text is any bytes. The
// seeds are the embedded templates, whose fluent chains are the texts the
// generator scans, plus Unicode and invalid-UTF-8 boundaries: RE2's \b is
// ASCII-only, so "éa" after a space is not a word match.
func FuzzWordMatches(f *testing.F) {
	for _, uc := range templates.All() {
		src, err := templates.Source(uc)
		if err != nil {
			f.Fatal(err)
		}
		for _, name := range []string{"gca", "err", "cipher", "key", "salt"} {
			f.Add(src, name)
		}
	}
	for _, seed := range [][2]string{
		{"x éa y", "éa"},
		{"éa", "éa"},
		{"bé bé", "bé"},
		{"xéa éa", "éa"},
		{"\xffkey\xff key", "key"},
		{"\xc3key.x", "key"},
		{"key2 key _key key_ key", "key"},
		{"gca.X gcax.Y xgca.Z", "gca"},
		{"", "v"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, text, name string) {
		if !token.IsIdentifier(name) {
			return
		}
		want := regexp.MustCompile(`\b`+regexp.QuoteMeta(name)+`\b`).FindAllStringIndex(text, 2)
		var got [][]int
		for i := indexWord(text, name, 0); i >= 0 && len(got) < 2; i = indexWord(text, name, i+len(name)) {
			got = append(got, []int{i, i + len(name)})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("indexWord(%q, %q) matches %v, regexp %v", text, name, got, want)
		}
		qual := regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\.`).MatchString(text)
		if got := usesQualifier(text, name); got != qual {
			t.Errorf("usesQualifier(%q, %q) = %v, regexp %v", text, name, got, qual)
		}
	})
}
