package srccheck

import (
	"go/format"
	"go/parser"
	"go/token"
	"testing"
)

// formatCases are sources whose gofmt layout differs from their text:
// number literals gofmt canonicalizes, import groups it sorts and
// deduplicates, build constraints it rewrites, doc comments it reflows, and
// alignment it computes.
var formatCases = []struct{ name, src string }{
	{"number literals", "package p\n\nconst (\n\ta = 0X1F\n\tb = 1E5\n\tc = 0B1\n\td = 0O7\n\te = 0x1P-2\n\tf = 0X1P+2\n\tg = 1_000E-3\n)\n\nvar (\n\ti = 1E3i\n\tj = 0X1Fi\n\tk = 0O7i\n\tl = 0B1i\n\tm = 0x1P-2i\n\tn = 017i\n)\n"},
	{"unsorted grouped imports", "package p\n\nimport (\n\t\"strings\"\n\t\"fmt\"\n\tb \"bytes\"\n\n\t\"os\"\n\t\"errors\" // why\n)\n\nvar _ = fmt.Sprint(strings.ToLower, b.Clone, os.Exit, errors.New)\n"},
	{"duplicate grouped imports", "package p\n\nimport (\n\t\"fmt\"\n\t\"os\"\n\t\"fmt\"\n\t\"fmt\" // again\n)\n\nvar _ = fmt.Sprint(os.Exit)\n"},
	{"imports in two declarations", "package p\n\nimport \"os\"\nimport (\n\t\"strings\"\n\t\"fmt\"\n)\n\nvar _ = fmt.Sprint(os.Exit, strings.ToLower)\n"},
	{"go:build line", "//go:build linux&&(amd64||arm64)\n\npackage p\n"},
	{"plus build line only", "// +build linux,amd64 darwin\n\npackage p\n"},
	{"both build lines", "// +build cryptgen_template\n//go:build cryptgen_template\n\n// Package p is a template.\npackage p\n"},
	{"doc comments", "// Package p does things.\n//\n// A list:\n//   - one\n//   - two\n//\n// Code:\n//   x := 1\n//\n// # Heading\n//\n// See [fmt.Println] and [Link].\n//\n// [Link]: https://example.com\npackage p\n\n// T is a type.\n// Deprecated: use U.\ntype T struct{}\n\n/*\nBlock doc.\n*/\nfunc F() {}\n"},
	{"alignment and spacing", "package p\n\ntype S struct {\n\tA int // a\n\tLongName string // long\n\tB, C   []byte\n}\n\nvar m = map[string]int{\n\"a\": 1,\n\"longer\": 2,\n}\n\nfunc   f( x int )( int ,error ){ if x>0 { return x*2+1 ,nil }; return 0,nil }\n"},
	{"unindented body", "package p\n\nfunc f() {\nfor i := 0; i < 3; i++ {\nswitch {\ncase i == 1:\nprintln(i)\n}\n}\n}\n"},
	{"carriage returns", "package p\r\n\r\n// c\r\nvar s = `a\r\nb`\r\n"},
	{"line directive", "package p\n\n//line other.go:10\nfunc f() {\n\n\n}\n"},
}

// TestFormatFileMatchesFormatSource holds FormatFile's printer to
// go/format: for every case, the text FormatFile prints is format.Source's
// byte for byte, and the file it returns leaves the FileSet on Release.
func TestFormatFileMatchesFormatSource(t *testing.T) {
	c, err := NewChecker("")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range formatCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := format.Source([]byte(tc.src))
			if err != nil {
				t.Fatal(err)
			}
			if string(want) == tc.src {
				t.Fatalf("gofmt leaves the case as it is, so it tests nothing:\n%s", tc.src)
			}
			checkFormatFile(t, c, []byte(tc.src))
		})
	}
}

// FuzzFormatFile: whatever FormatFile prints is format.Source's output
// for the same bytes, and FormatFile refuses only what does not parse as a
// complete file (format.Source also accepts declaration and statement
// lists).
func FuzzFormatFile(f *testing.F) {
	for _, tc := range formatCases {
		f.Add([]byte(tc.src))
	}
	c, err := NewChecker("")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		checkFormatFile(t, c, src)
	})
}

// checkFormatFile compares FormatFile with format.Source on src and
// checks that the FileSet holds as many files afterwards as before.
func checkFormatFile(t *testing.T, c *Checker, src []byte) {
	t.Helper()
	base := countFiles(c)
	defer func() {
		if got := countFiles(c); got != base {
			t.Errorf("FileSet holds %d files, %d before", got, base)
		}
	}()
	want, werr := format.Source(src)
	file, got, err := c.FormatFile("x.go", src)
	if err != nil {
		if _, perr := parser.ParseFile(token.NewFileSet(), "", src, parser.ParseComments|parser.SkipObjectResolution); perr == nil {
			t.Fatalf("FormatFile: %v, though the file parses", err)
		}
		return
	}
	c.Release(file)
	if werr != nil {
		t.Fatalf("format.Source: %v, though FormatFile printed\n%s", werr, got)
	}
	if got != string(want) {
		t.Errorf("FormatFile printed\n%s\nformat.Source printed\n%s", got, want)
	}
}
