package gen

import (
	"reflect"
	"testing"

	"cognicryptgen/crysl"
)

// pcRuleA and pcRuleB are two rules that share the SPEC name but differ in
// ORDER — the shape a path cache would mix up if it were keyed by name.
const pcRuleA = `SPEC gca.MessageDigest

OBJECTS
    string hashAlg;
    []byte input;
    []byte digest;

EVENTS
    c1: NewMessageDigest(hashAlg);
    u1: Update(input);
    d1: digest := Digest();

ORDER
    c1, u1, d1

CONSTRAINTS
    hashAlg in {"SHA-256"};

ENSURES
    hashed[digest, input] after d1;
`

const pcRuleB = `SPEC gca.MessageDigest

OBJECTS
    string hashAlg;
    []byte input;
    []byte digest;

EVENTS
    c1: NewMessageDigest(hashAlg);
    u1: Update(input);
    d1: digest := Digest();

ORDER
    c1, u1?, d1

CONSTRAINTS
    hashAlg in {"SHA-256"};

ENSURES
    hashed[digest, input] after d1;
`

func pcRule(t *testing.T, src string) *crysl.Rule {
	t.Helper()
	r, err := crysl.ParseRule("test.crysl", src)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPathCacheDistinguishesSameNamedRules guards the rule-pointer cache
// key: two same-named rules whose ORDER automata differ must each get their
// own accepting paths from one cache — never the other variant's memoized
// entry, as a spec-name key would serve.
func TestPathCacheDistinguishesSameNamedRules(t *testing.T) {
	ruleA := pcRule(t, pcRuleA)
	ruleB := pcRule(t, pcRuleB)
	if ruleA.SpecType() != ruleB.SpecType() {
		t.Fatalf("test setup: spec types differ: %q vs %q", ruleA.SpecType(), ruleB.SpecType())
	}
	cache := NewPathCache()
	pa := cache.Paths(ruleA, DefaultMaxPaths)
	pb := cache.Paths(ruleB, DefaultMaxPaths)
	wantA := ruleA.DFA.AcceptingPaths(DefaultMaxPaths)
	wantB := ruleB.DFA.AcceptingPaths(DefaultMaxPaths)
	if !reflect.DeepEqual(pa, wantA) {
		t.Errorf("rule A paths = %v, want %v", pa, wantA)
	}
	if !reflect.DeepEqual(pb, wantB) {
		t.Errorf("rule B served stale paths: got %v, want %v", pb, wantB)
	}
	if reflect.DeepEqual(pa, pb) {
		t.Fatal("test setup: the two ORDER variants enumerate identical paths; pick diverging automata")
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d entries for two distinct rules, want 2", cache.Len())
	}
}
