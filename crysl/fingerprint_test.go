package crysl

import (
	"strings"
	"testing"
)

const fpRuleSrc = `SPEC gca.MessageDigest

OBJECTS
    string hashAlg;
    []byte input;
    []byte digest;

EVENTS
    c1: NewMessageDigest(hashAlg);
    u1: Update(input);
    d1: digest := Digest();

ORDER
    c1, (u1+, d1)+

CONSTRAINTS
    hashAlg in {"SHA-256", "SHA-512"};

ENSURES
    hashed[digest, input] after d1;
`

func fpSet(t *testing.T, srcs ...string) *RuleSet {
	t.Helper()
	set := NewRuleSet()
	for i, src := range srcs {
		r, err := ParseRule("test.crysl", src)
		if err != nil {
			t.Fatalf("rule %d: %v", i, err)
		}
		if err := set.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return set
}

// TestFingerprintDeterministic: independently compiled, identical sources
// share a fingerprint.
func TestFingerprintDeterministic(t *testing.T) {
	a := fpSet(t, fpRuleSrc)
	b := fpSet(t, fpRuleSrc)
	if a.Fingerprint() == "" {
		t.Fatal("empty fingerprint")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("identical sources produced different fingerprints:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint is not stable across calls")
	}
}

// TestFingerprintSensitivity: changes to the ORDER pattern, constraints,
// or predicates all change the fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	base := fpSet(t, fpRuleSrc).Fingerprint()
	variants := map[string]string{
		"order":      strings.Replace(fpRuleSrc, "c1, (u1+, d1)+", "c1, u1*, d1", 1),
		"constraint": strings.Replace(fpRuleSrc, `"SHA-512"`, `"SHA3-512"`, 1),
		"ensures":    strings.Replace(fpRuleSrc, "hashed[digest, input]", "digested[digest]", 1),
	}
	for name, src := range variants {
		fp := fpSet(t, src).Fingerprint()
		if fp == base {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}
}

// TestDFAFingerprintStable: a rule's canonical DFA rendering, the ORDER
// half of RuleSet.Fingerprint, is deterministic across compilations.
func TestDFAFingerprintStable(t *testing.T) {
	var a, b strings.Builder
	fpSet(t, fpRuleSrc).Rules()[0].DFA.WriteCanonical(&a)
	fpSet(t, fpRuleSrc).Rules()[0].DFA.WriteCanonical(&b)
	if a.String() == "" || a.String() != b.String() {
		t.Fatalf("canonical DFA renderings of identical ORDER patterns differ:\n%s\n%s", a.String(), b.String())
	}
}
