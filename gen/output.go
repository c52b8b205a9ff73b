package gen

import (
	"bytes"
	"fmt"
	"go/ast"
	"regexp"
	"sort"
	"strconv"
	"sync"
)

var buildTagRE = regexp.MustCompile(`(?m)^//go:build cryptgen_template\r?\n(\r?\n)?`)

// generatedUsesGCA reports whether any generated snippet references the
// crypto façade package by name.
func generatedUsesGCA(texts []string, pkgName string) bool {
	for _, t := range texts {
		if usesQualifier(t, pkgName) {
			return true
		}
	}
	return false
}

// spliceOutput assembles the generated file: fluent chains are replaced by
// generated statements via byte-offset splicing (so glue code, comments and
// formatting of the template survive verbatim), the fluent import and the
// template build tag are removed, the package may be renamed, and the
// synthesized TemplateUsage function is appended. The spliced text is
// parsed once, into the checker's FileSet, and printed as gofmt would
// (srccheck's FormatFile). spliceOutput returns the printed text and the
// parsed file it was printed from, which verification type-checks instead
// of parsing the text again; the caller releases the file.
func (g *Generator) spliceOutput(tmpl *Template, repl map[int][2]int, texts []string, usage string) (string, *ast.File, error) {
	type edit struct {
		start, end int
		text       string
	}
	var edits []edit
	for start, v := range repl {
		edits = append(edits, edit{start: start, end: v[0], text: texts[v[1]]})
	}

	// Remove the fluent import spec (the generated code no longer uses it)
	// and add the crypto-façade import when the template did not need it
	// itself but the generated code does.
	gcaPath := g.api.pkg.Path()
	hasGCA := false
	for _, imp := range tmpl.File.Imports {
		if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == gcaPath {
			hasGCA = true
		}
	}
	for _, imp := range tmpl.File.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || path != fluentImportPath {
			continue
		}
		start := g.checker.Fset.Position(imp.Pos()).Offset
		end := g.checker.Fset.Position(imp.End()).Offset
		// Swallow the rest of the line including the newline.
		for end < len(tmpl.Src) && tmpl.Src[end] != '\n' {
			end++
		}
		if end < len(tmpl.Src) {
			end++
		}
		replacement := ""
		if !hasGCA && generatedUsesGCA(texts, g.api.pkg.Name()) {
			replacement = strconv.Quote(gcaPath) + "\n"
			hasGCA = true
		}
		edits = append(edits, edit{start: start, end: end, text: replacement})
	}

	// Rename the package clause if requested.
	if g.opts.PackageName != "" && g.opts.PackageName != tmpl.File.Name.Name {
		start := g.checker.Fset.Position(tmpl.File.Name.Pos()).Offset
		end := g.checker.Fset.Position(tmpl.File.Name.End()).Offset
		edits = append(edits, edit{start: start, end: end, text: g.opts.PackageName})
	}

	// One buffer, sized up front: the header, the template with its edits
	// applied in offset order, the build tag removed, the usage function.
	sort.Slice(edits, func(i, j int) bool { return edits[i].start < edits[j].start })
	const headerRest = ". DO NOT EDIT.\n//\n" +
		"// The implementation below was derived from GoCrySL rules; edit the\n" +
		"// template and the rules, then regenerate, instead of patching this file.\n\n"
	size := len(planHeaderPrefix) + len(tmpl.Name) + len(headerRest) + len(tmpl.Src) + len("\n\n") + len(usage)
	for _, e := range edits {
		size += len(e.text)
	}
	bp := spliceBufs.Get().(*[]byte)
	defer putSpliceBuf(bp)
	if cap(*bp) < size {
		*bp = make([]byte, 0, size)
	}
	buf := (*bp)[:0]
	buf = append(buf, planHeaderPrefix...)
	buf = append(buf, tmpl.Name...)
	buf = append(buf, headerRest...)
	body := len(buf)
	prev := 0
	for _, e := range edits {
		if e.start < prev || e.end > len(tmpl.Src) || e.start > e.end {
			return "", nil, fmt.Errorf("gen: splice out of range [%d,%d)", e.start, e.end)
		}
		buf = append(buf, tmpl.Src[prev:e.start]...)
		buf = append(buf, e.text...)
		prev = e.end
	}
	buf = append(buf, tmpl.Src[prev:]...)
	buf = buf[:body+removeBuildTags(buf[body:])]
	if usage != "" {
		buf = bytes.TrimRight(buf, "\n")
		buf = append(buf, "\n\n"...)
		buf = append(buf, usage...)
	}

	f, out, err := g.checker.FormatFile("generated_"+tmpl.Name, buf)
	if err != nil {
		return "", nil, fmt.Errorf("gen: generated file does not parse (generator bug): %w\n--- output ---\n%s", err, buf)
	}
	return out, f, nil
}

// verifyOutput type-checks the file spliceOutput parsed, whose printed
// text is out. The file's positions are those of the spliced text, so a
// failure is checked again on out, and the error names its line in the
// text that would have been served. Should out check clean where the file
// did not, the file's error stands: no unverified byte is served.
func (g *Generator) verifyOutput(name, out string, f *ast.File) error {
	err := g.checker.VerifyFile(f)
	if err == nil {
		return nil
	}
	if verr := g.checker.VerifySource("generated_"+name, out); verr != nil {
		err = verr
	}
	return fmt.Errorf("gen: generated code failed verification (this is a generator bug): %w", err)
}

// spliceBufs holds splice buffers between generations. The parser keeps
// no reference to the text it parses, so a buffer goes back as soon as
// FormatFile has printed its file. A buffer grown past 64 KiB is left to
// the garbage collector, so a rare large template does not keep its buffer
// pooled.
var spliceBufs = sync.Pool{New: func() any { return new([]byte) }}

func putSpliceBuf(bp *[]byte) {
	if cap(*bp) > 64<<10 {
		return
	}
	spliceBufs.Put(bp)
}

// removeBuildTags deletes every match of buildTagRE from b in place and
// returns the length of what remains. b starts at a line start.
func removeBuildTags(b []byte) int {
	locs := buildTagRE.FindAllIndex(b, -1)
	if locs == nil {
		return len(b)
	}
	w, prev := 0, 0
	for _, loc := range locs {
		w += copy(b[w:], b[prev:loc[0]])
		prev = loc[1]
	}
	return w + copy(b[w:], b[prev:])
}
