package gen

import (
	"fmt"
	"go/types"
	"strings"

	"cognicryptgen/crysl/ast"
)

// apiModel is a queryable shape model of the crypto façade package (gca),
// built once from go/types. The generator consults it to decide whether an
// event is a constructor or a method, what a call returns (so error
// handling can be emitted), and which named types satisfy which interfaces
// (for the instanceof predicate of paper §4).
type apiModel struct {
	pkg *types.Package
	// funcs maps package-level function names to their call shapes.
	funcs map[string]*callShape
	// methods maps "TypeName" -> method name -> call shape, for pointer and
	// value receivers alike.
	methods map[string]map[string]*callShape
	// supertypes maps qualified type names ("gca.SecretKeySpec") to the
	// qualified names of interfaces they implement and structs they embed,
	// transitively.
	supertypes map[string][]string
}

func buildAPIModel(pkg *types.Package) *apiModel {
	m := &apiModel{
		pkg:        pkg,
		funcs:      map[string]*callShape{},
		methods:    map[string]map[string]*callShape{},
		supertypes: map[string][]string{},
	}
	scope := pkg.Scope()
	var namedTypes []*types.Named
	var ifaces []*types.Named
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		switch obj := obj.(type) {
		case *types.Func:
			m.funcs[obj.Name()] = shapeOf(obj)
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			namedTypes = append(namedTypes, named)
			if types.IsInterface(named.Underlying()) {
				ifaces = append(ifaces, named)
			}
			tbl := map[string]*callShape{}
			for i := 0; i < named.NumMethods(); i++ {
				f := named.Method(i)
				tbl[f.Name()] = shapeOf(f)
			}
			// Include promoted methods from embedded fields.
			mset := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < mset.Len(); i++ {
				if f, ok := mset.At(i).Obj().(*types.Func); ok {
					if _, exists := tbl[f.Name()]; !exists {
						tbl[f.Name()] = shapeOf(f)
					}
				}
			}
			m.methods[obj.Name()] = tbl
		}
	}
	// Supertype table: interface satisfaction plus struct embedding.
	for _, n := range namedTypes {
		qn := m.qualified(n.Obj().Name())
		var supers []string
		for _, iface := range ifaces {
			if iface == n {
				continue
			}
			it := iface.Underlying().(*types.Interface)
			if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
				supers = append(supers, m.qualified(iface.Obj().Name()))
			}
		}
		if st, ok := n.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Embedded() {
					continue
				}
				ft := f.Type()
				if p, ok := ft.(*types.Pointer); ok {
					ft = p.Elem()
				}
				if en, ok := ft.(*types.Named); ok && en.Obj().Pkg() == m.pkg {
					supers = append(supers, m.qualified(en.Obj().Name()))
				}
			}
		}
		m.supertypes[qn] = supers
	}
	// Close transitively (embedding chains).
	for qn := range m.supertypes {
		seen := map[string]bool{qn: true}
		var out []string
		var visit func(name string)
		visit = func(name string) {
			for _, s := range m.supertypes[name] {
				if !seen[s] {
					seen[s] = true
					out = append(out, s)
					visit(s)
				}
			}
		}
		visit(qn)
		m.supertypes[qn] = out
	}
	return m
}

// qualified renders a bare type name with the package qualifier used in
// GoCrySL rules ("gca.Cipher").
func (m *apiModel) qualified(name string) string {
	return m.pkg.Name() + "." + name
}

// unqualify strips the package qualifier if it names this package.
func (m *apiModel) unqualify(qname string) string {
	if rest, ok := strings.CutPrefix(qname, m.pkg.Name()+"."); ok {
		return rest
	}
	return qname
}

// callShape describes the parameters and results of an API call. The API
// model computes each shape once; every lookup returns that shared value,
// which nothing may modify.
type callShape struct {
	fn         *types.Func
	params     []types.Type
	results    []types.Type
	returnsErr bool       // last result is error
	value      types.Type // first result when not error, else nil
}

func shapeOf(fn *types.Func) *callShape {
	sig := fn.Type().(*types.Signature)
	s := &callShape{fn: fn}
	for i := 0; i < sig.Params().Len(); i++ {
		s.params = append(s.params, sig.Params().At(i).Type())
	}
	for i := 0; i < sig.Results().Len(); i++ {
		s.results = append(s.results, sig.Results().At(i).Type())
	}
	if n := len(s.results); n > 0 {
		if isErrorType(s.results[n-1]) {
			s.returnsErr = true
		}
	}
	if len(s.results) > 0 && !isErrorType(s.results[0]) {
		s.value = s.results[0]
	}
	return s
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// constructorFor reports whether method is a package-level constructor for
// the given (unqualified) type: a function whose first result is T or *T.
func (m *apiModel) constructorFor(method, typeName string) (*callShape, bool) {
	s, ok := m.funcs[method]
	if !ok || s.value == nil || typeNameOf(s.value) != typeName {
		return nil, false
	}
	return s, true
}

// methodOn returns the shape of a method on the (unqualified) type.
func (m *apiModel) methodOn(typeName, method string) (*callShape, bool) {
	s, ok := m.methods[typeName][method]
	return s, ok
}

// typeNameOf extracts the bare named-type name from T, *T or returns "".
func typeNameOf(t types.Type) string {
	switch t := t.(type) {
	case *types.Pointer:
		return typeNameOf(t.Elem())
	case *types.Named:
		return t.Obj().Name()
	}
	return ""
}

// matchesCrySLType reports whether a Go type satisfies a GoCrySL declared
// type, honouring pointers and the supertype table (so a *gca.SecretKeySpec
// satisfies both gca.SecretKey and gca.Key).
func (m *apiModel) matchesCrySLType(goType types.Type, decl ast.Type) bool {
	if goType == nil {
		return false
	}
	if decl.IsNamed() {
		want := m.unqualify(decl.Name)
		got := typeNameOf(goType)
		if got == "" {
			return false
		}
		if got == want {
			return true
		}
		for _, super := range m.supertypes[m.qualified(got)] {
			if m.unqualify(super) == want {
				return true
			}
		}
		return false
	}
	if decl.Slice {
		sl, ok := goType.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		elem, ok := sl.Elem().Underlying().(*types.Basic)
		if !ok {
			return false
		}
		switch decl.Name {
		case "byte":
			return elem.Kind() == types.Uint8
		case "rune":
			return elem.Kind() == types.Int32
		}
		return false
	}
	basic, ok := goType.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch decl.Name {
	case "int":
		return basic.Info()&types.IsInteger != 0
	case "string":
		return basic.Info()&types.IsString != 0
	case "bool":
		return basic.Info()&types.IsBoolean != 0
	}
	return false
}

// goTypeStringFor renders a GoCrySL declared type as Go source, e.g.
// "gca.PBEKeySpec" -> "*gca.PBEKeySpec", "[]byte" -> "[]byte". Named rule
// types are pointers because every gca constructor returns a pointer.
func (m *apiModel) goTypeStringFor(decl ast.Type) string {
	if decl.IsNamed() {
		name := m.unqualify(decl.Name)
		if _, ok := m.methods[name]; ok {
			// Interfaces stay bare; concrete types are used via pointers.
			if obj := m.pkg.Scope().Lookup(name); obj != nil {
				if types.IsInterface(obj.Type().Underlying()) {
					return m.pkg.Name() + "." + name
				}
			}
			return "*" + m.pkg.Name() + "." + name
		}
		return decl.Name
	}
	return decl.String()
}

// zeroExpr renders the zero value of a Go type as source text, qualifying
// package names with their package name (matching the template's imports).
func zeroExpr(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		info := u.Info()
		switch {
		case info&types.IsBoolean != 0:
			return "false"
		case info&types.IsString != 0:
			return `""`
		case info&types.IsNumeric != 0:
			return "0"
		}
		return "nil"
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return "nil"
	case *types.Struct, *types.Array:
		return typeSourceString(t) + "{}"
	}
	return fmt.Sprintf("*new(%s)", typeSourceString(t))
}

// typeSourceString renders a type the way source code in the template
// package would write it (package-name qualification).
func typeSourceString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
