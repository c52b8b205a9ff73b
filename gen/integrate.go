package gen

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cognicryptgen/internal/srccheck"
)

// GenerateInto runs the pipeline on a template and writes the result into
// an existing Go package directory — the paper's workflow, where
// CogniCryptGEN "operates on a Java project into which it generates code".
//
// The output file adopts the directory's package name (falling back to the
// directory base name for an empty directory), is verified jointly with
// the package's existing files, and is written as
// <dir>/<template-base>_cryptgen.go. The written path is returned.
func (g *Generator) GenerateInto(dir, name, src string) (string, *Result, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return "", nil, fmt.Errorf("gen: target directory: %w", err)
	}
	if !info.IsDir() {
		return "", nil, fmt.Errorf("gen: target %s is not a directory", dir)
	}
	pkgName := srccheck.PackageNameOf(dir)
	if pkgName == "" {
		pkgName = sanitizePackageName(filepath.Base(dir))
	}

	opts := g.opts
	opts.PackageName = pkgName
	opts.Verify = false // joint verification below replaces the single-file pass
	res, err := g.WithOptions(opts).GenerateFile(name, src)
	if err != nil {
		return "", nil, err
	}

	base := strings.TrimSuffix(filepath.Base(name), ".go")
	outName := base + "_cryptgen.go"
	if err := g.checker.CheckPackageWith(dir, outName, res.Output); err != nil {
		return "", nil, fmt.Errorf("gen: generated code conflicts with package %s: %w", pkgName, err)
	}
	outPath := filepath.Join(dir, outName)
	if err := os.WriteFile(outPath, []byte(res.Output), 0o644); err != nil {
		return "", nil, fmt.Errorf("gen: writing output: %w", err)
	}
	return outPath, res, nil
}

// sanitizePackageName turns a directory name into a legal package name.
func sanitizePackageName(base string) string {
	var sb strings.Builder
	for _, r := range base {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			sb.WriteRune(r)
		case r >= '0' && r <= '9':
			if sb.Len() > 0 {
				sb.WriteRune(r)
			}
		}
	}
	if sb.Len() == 0 {
		return "generated"
	}
	return strings.ToLower(sb.String())
}
