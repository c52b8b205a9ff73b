package srccheck

import (
	"go/ast"
	"go/token"
	"strconv"
)

// The universe type-checks a dependency as the part of it an importer can
// see. An importer reaches a package's exported declarations, and through
// their signatures, type specs and variable initializers whatever those
// name. Function bodies are ignored (IgnoreFuncBodies), so declarations
// and imports that only bodies use would be parsed, resolved and checked
// for nothing; most of the standard library a gca warm would otherwise
// build (reflect, unicode, os, time) is reached only that way.
// pruneDecls and pruneImports cut the parsed files down to the importable
// API before the type check.

// pruneDecls drops the package-level declarations of files that no
// importer can reach. It starts from the exported funcs, types, vars and
// consts, adds every declaration a kept one names outside function bodies,
// and every method (unexported too: they decide interface satisfaction)
// whose receiver base type is kept. A const group is kept or dropped
// whole, so iota values never change. init functions, blank declarations
// and unreachable unexported declarations go.
func pruneDecls(files []*ast.File) {
	byName := map[string][]ast.Node{}  // name → its FuncDecl, TypeSpec, var ValueSpec or const GenDecl
	methods := map[string][]ast.Node{} // receiver base type → its methods
	aliases := map[string]string{}     // local alias → the local type it names
	var roots []ast.Node
	declare := func(name *ast.Ident, n ast.Node) {
		if name.Name == "_" {
			return
		}
		byName[name.Name] = append(byName[name.Name], n)
		if name.IsExported() {
			roots = append(roots, n)
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					base := recvBase(d.Recv)
					methods[base] = append(methods[base], d)
				} else if d.Name.Name != "init" {
					declare(d.Name, d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(s.Name, s)
						if id, ok := s.Type.(*ast.Ident); ok && s.Assign.IsValid() {
							aliases[s.Name.Name] = id.Name
						}
					case *ast.ValueSpec:
						var n ast.Node = s
						if d.Tok == token.CONST {
							n = d
						}
						for _, name := range s.Names {
							declare(name, n)
						}
					}
				}
			}
		}
	}
	// A method declared on a local alias belongs to the aliased type.
	for alias := range aliases {
		base := alias
		for range len(aliases) {
			next, ok := aliases[base]
			if !ok {
				break
			}
			base = next
		}
		if base != alias {
			methods[base] = append(methods[base], methods[alias]...)
		}
	}

	kept := map[ast.Node]bool{}
	queue := roots
	visit := func(name string, _ bool) {
		for _, n := range byName[name] {
			if !kept[n] {
				queue = append(queue, n)
			}
		}
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if kept[n] {
			continue
		}
		kept[n] = true
		declRefs(n, visit)
		if s, ok := n.(*ast.TypeSpec); ok {
			queue = append(queue, methods[s.Name.Name]...)
		}
	}

	for _, f := range files {
		decls := f.Decls[:0]
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !kept[d] {
					continue
				}
			case *ast.GenDecl:
				if d.Tok == token.CONST {
					if !kept[d] {
						continue
					}
				} else if d.Tok != token.IMPORT {
					specs := d.Specs[:0]
					for _, s := range d.Specs {
						if kept[s] {
							specs = append(specs, s)
						}
					}
					if d.Specs = specs; len(specs) == 0 {
						continue
					}
				}
			}
			decls = append(decls, d)
		}
		f.Decls = decls
	}
}

// recvBase returns the name of a method receiver's base type: T for T,
// *T, T[K] and *T[K, V].
func recvBase(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// pruneImports drops each import spec whose name the file's declarations,
// function bodies excluded, never use as a selector base. Dot imports and
// "C" stay. The name of an unnamed import is the package clause go/build's
// scan of its directory finds (math/rand/v2 is rand), never one guessed
// from the path; an import that cannot be resolved or scanned stays, so
// the type check reports it as before.
func (u *Universe) pruneImports(files []*ast.File, srcDir string) {
	for _, f := range files {
		used := map[string]bool{}
		for _, d := range f.Decls {
			if g, ok := d.(*ast.GenDecl); !ok || g.Tok != token.IMPORT {
				declRefs(d, func(name string, selBase bool) {
					if selBase {
						used[name] = true
					}
				})
			}
		}
		f.Imports = f.Imports[:0]
		decls := f.Decls[:0]
		for _, d := range f.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.IMPORT {
				specs := g.Specs[:0]
				for _, s := range g.Specs {
					if spec := s.(*ast.ImportSpec); u.importUsed(spec, srcDir, used) {
						specs = append(specs, spec)
						f.Imports = append(f.Imports, spec)
					}
				}
				if g.Specs = specs; len(specs) == 0 {
					continue // an empty unparenthesized GenDecl has no End
				}
			}
			decls = append(decls, d)
		}
		f.Decls = decls
	}
}

// importUsed reports whether spec, in a file of srcDir whose declarations
// use the selector bases in used, must stay.
func (u *Universe) importUsed(spec *ast.ImportSpec, srcDir string, used map[string]bool) bool {
	path, err := strconv.Unquote(spec.Path.Value)
	if err != nil || path == "C" {
		return true
	}
	if spec.Name != nil {
		return spec.Name.Name == "." || used[spec.Name.Name]
	}
	if len(used) == 0 {
		return false
	}
	_, dir, err := u.resolve(path, srcDir)
	if err != nil {
		return true
	}
	s := u.scan(dir)
	return s.err != nil || used[s.name]
}

// declRefs calls visit for every identifier declaration n (a FuncDecl,
// TypeSpec, ValueSpec or const GenDecl) mentions outside function bodies,
// with selBase set when the identifier is the X of a selector X.Sel. The
// names a declaration introduces (its own, fields', parameters') are not
// references and are skipped.
func declRefs(n ast.Node, visit func(name string, selBase bool)) {
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Recv != nil {
			refs(n.Recv, visit)
		}
		refs(n.Type, visit)
	case *ast.TypeSpec:
		if n.TypeParams != nil {
			refs(n.TypeParams, visit)
		}
		refs(n.Type, visit)
	case *ast.ValueSpec:
		if n.Type != nil {
			refs(n.Type, visit)
		}
		for _, v := range n.Values {
			refs(v, visit)
		}
	case *ast.GenDecl:
		for _, s := range n.Specs {
			declRefs(s, visit)
		}
	}
}

// refs walks n, skipping function-literal bodies, for declRefs.
func refs(n ast.Node, visit func(name string, selBase bool)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			visit(n.Name, false)
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				visit(id.Name, true)
			} else {
				refs(n.X, visit)
			}
			return false
		case *ast.Field:
			refs(n.Type, visit)
			return false
		case *ast.FuncLit:
			refs(n.Type, visit)
			return false
		}
		return true
	})
}
