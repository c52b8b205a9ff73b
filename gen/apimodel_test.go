package gen

import (
	"testing"

	"cognicryptgen/crysl/ast"
)

func testAPI(t *testing.T) *apiModel {
	t.Helper()
	return sharedGenerator(t).api
}

func TestConstructorDetection(t *testing.T) {
	api := testAPI(t)
	cases := []struct {
		method, typ string
		isCtor      bool
	}{
		{"NewPBEKeySpec", "PBEKeySpec", true},
		{"NewCipher", "Cipher", true},
		{"NewSecretKeySpec", "SecretKeySpec", true},
		{"ClearPassword", "PBEKeySpec", false},
		{"NewCipher", "PBEKeySpec", false}, // wrong result type
		{"NoSuchFunc", "Cipher", false},
	}
	for _, c := range cases {
		_, ok := api.constructorFor(c.method, c.typ)
		if ok != c.isCtor {
			t.Errorf("constructorFor(%s, %s) = %v, want %v", c.method, c.typ, ok, c.isCtor)
		}
	}
}

func TestConstructorShapes(t *testing.T) {
	api := testAPI(t)
	s, ok := api.constructorFor("NewPBEKeySpec", "PBEKeySpec")
	if !ok {
		t.Fatal("constructor not found")
	}
	if len(s.params) != 4 || !s.returnsErr || s.value == nil {
		t.Errorf("shape: params=%d err=%v value=%v", len(s.params), s.returnsErr, s.value)
	}
}

func TestMethodShapes(t *testing.T) {
	api := testAPI(t)
	s, ok := api.methodOn("PBEKeySpec", "ClearPassword")
	if !ok || s.returnsErr || s.value != nil || len(s.params) != 0 {
		t.Errorf("ClearPassword shape: %+v ok=%v", s, ok)
	}
	s, ok = api.methodOn("SecretKeyFactory", "GenerateSecret")
	if !ok || !s.returnsErr || s.value == nil {
		t.Errorf("GenerateSecret shape: %+v ok=%v", s, ok)
	}
	if _, ok := api.methodOn("Cipher", "NoSuchMethod"); ok {
		t.Error("phantom method found")
	}
}

// TestAPIShapeLookupsDoNotAllocate: the API model computes every call
// shape once, so the lookups path ranking and emission make per event
// allocate nothing and hand out the same shared shape each time.
func TestAPIShapeLookupsDoNotAllocate(t *testing.T) {
	api := testAPI(t)
	lookups := []struct {
		ctor       bool
		typ, event string
	}{
		{true, "PBEKeySpec", "NewPBEKeySpec"},
		{true, "Cipher", "NewCipher"},
		{true, "SecretKeySpec", "NewSecretKeySpec"},
		{false, "PBEKeySpec", "ClearPassword"},
		{false, "SecretKeyFactory", "GenerateSecret"},
		{false, "SecretKeySpec", "Encoded"}, // promoted
	}
	lookup := func(i int) *callShape {
		l := lookups[i]
		var s *callShape
		var ok bool
		if l.ctor {
			s, ok = api.constructorFor(l.event, l.typ)
		} else {
			s, ok = api.methodOn(l.typ, l.event)
		}
		if !ok {
			t.Fatalf("no shape for %s.%s", l.typ, l.event)
		}
		return s
	}
	for i, l := range lookups {
		if first, again := lookup(i), lookup(i); first != again {
			t.Errorf("%s.%s: two lookups returned different shapes", l.typ, l.event)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range lookups {
			lookup(i)
		}
	})
	if allocs != 0 {
		t.Errorf("shape lookups allocate %.1f times per run, want 0", allocs)
	}
}

func TestPromotedMethodsVisible(t *testing.T) {
	api := testAPI(t)
	// SecretKeySpec embeds SecretKey; Encoded is promoted.
	if _, ok := api.methodOn("SecretKeySpec", "Encoded"); !ok {
		t.Error("promoted Encoded not in method table")
	}
}

func TestSupertypeTable(t *testing.T) {
	api := testAPI(t)
	has := func(typ, super string) bool {
		for _, s := range api.supertypes[typ] {
			if s == super {
				return true
			}
		}
		return false
	}
	if !has("gca.SecretKey", "gca.Key") {
		t.Error("SecretKey should implement Key")
	}
	if !has("gca.SecretKeySpec", "gca.SecretKey") {
		t.Error("SecretKeySpec should embed SecretKey")
	}
	if !has("gca.SecretKeySpec", "gca.Key") {
		t.Error("embedding must close transitively to Key")
	}
	if !has("gca.PublicKey", "gca.Key") || !has("gca.PrivateKey", "gca.Key") {
		t.Error("asymmetric keys should implement Key")
	}
	if has("gca.Cipher", "gca.Key") {
		t.Error("Cipher is not a Key")
	}
}

func TestMatchesCrySLType(t *testing.T) {
	api := testAPI(t)
	sk := api.pkg.Scope().Lookup("SecretKeySpec").Type()
	cases := []struct {
		decl ast.Type
		want bool
	}{
		{ast.Type{Name: "gca.SecretKeySpec"}, true},
		{ast.Type{Name: "gca.SecretKey"}, true},
		{ast.Type{Name: "gca.Key"}, true},
		{ast.Type{Name: "gca.PublicKey"}, false},
		{ast.Type{Name: "int"}, false},
	}
	for _, c := range cases {
		if got := api.matchesCrySLType(sk, c.decl); got != c.want {
			t.Errorf("SecretKeySpec vs %s: %v, want %v", c.decl, got, c.want)
		}
	}
}

func TestGoTypeStringFor(t *testing.T) {
	api := testAPI(t)
	cases := map[string]ast.Type{
		"*gca.Cipher": {Name: "gca.Cipher"},
		"gca.Key":     {Name: "gca.Key"}, // interface stays bare
		"[]byte":      {Slice: true, Name: "byte"},
		"int":         {Name: "int"},
	}
	for want, decl := range cases {
		if got := api.goTypeStringFor(decl); got != want {
			t.Errorf("goTypeStringFor(%s) = %q, want %q", decl, got, want)
		}
	}
}

func TestQualifyHelpers(t *testing.T) {
	api := testAPI(t)
	if api.qualified("Cipher") != "gca.Cipher" {
		t.Error("qualified")
	}
	if api.unqualify("gca.Cipher") != "Cipher" || api.unqualify("other.X") != "other.X" {
		t.Error("unqualify")
	}
}
