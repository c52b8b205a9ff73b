package analysis

import (
	"strings"
	"sync"
	"testing"

	"cognicryptgen/rules"
)

var (
	trOnce sync.Once
	trAna  *Analyzer
	trErr  error
)

func sharedAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	trOnce.Do(func() { trAna, trErr = New(rules.MustLoad(), "", Options{}) })
	if trErr != nil {
		t.Fatal(trErr)
	}
	return trAna
}

func analyze(t *testing.T, src string) *Report {
	t.Helper()
	rep, err := sharedAnalyzer(t).AnalyzeSource("prog.go", src)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

const cipherMissingDoFinal = `package main

import "cognicryptgen/gca"

func incomplete(key *gca.SecretKey) error {
	c, err := gca.NewCipher("AES/GCM/NoPadding")
	if err != nil {
		return err
	}
	return c.Init(gca.EncryptMode, key)
}
`

func TestCipherMissingDoFinalIsIncomplete(t *testing.T) {
	rep := analyze(t, cipherMissingDoFinal)
	if kinds(rep)[IncompleteOperationError] == 0 {
		t.Errorf("Init without DoFinal must be incomplete: %v", rep.Findings)
	}
}

// TestIncompleteHintDeterministic: the "missing e.g." hint names the first
// event of a shortest completion, ties broken by EVENTS order. After Init,
// DoFinal, Wrap and Unwrap each complete gca.Cipher in one step, and
// DoFinal is declared first.
func TestIncompleteHintDeterministic(t *testing.T) {
	msgs := map[string]bool{}
	for i := 0; i < 50; i++ {
		for _, f := range analyze(t, cipherMissingDoFinal).Findings {
			if f.Kind == IncompleteOperationError {
				msgs[f.Message] = true
			}
		}
	}
	if len(msgs) != 1 {
		t.Fatalf("50 analyses gave %d distinct incomplete-operation messages: %v", len(msgs), msgs)
	}
	for m := range msgs {
		if !strings.Contains(m, "missing e.g. DoFinal)") {
			t.Errorf("hint does not name DoFinal: %q", m)
		}
	}
}

func TestEscapedObjectNotIncomplete(t *testing.T) {
	rep := analyze(t, `package main

import "cognicryptgen/gca"

func handoff(key *gca.SecretKey) (*gca.Cipher, error) {
	c, err := gca.NewCipher("AES/GCM/NoPadding")
	if err != nil {
		return nil, err
	}
	if err := c.Init(gca.EncryptMode, key); err != nil {
		return nil, err
	}
	return c, nil // caller finishes the protocol
}
`)
	if kinds(rep)[IncompleteOperationError] != 0 {
		t.Errorf("escaped object flagged incomplete: %v", rep.Findings)
	}
}

func TestObjectPassedToHelperEscapes(t *testing.T) {
	rep := analyze(t, `package main

import "cognicryptgen/gca"

func use(c *gca.Cipher) {}

func handoff(key *gca.SecretKey) error {
	c, err := gca.NewCipher("AES/GCM/NoPadding")
	if err != nil {
		return err
	}
	use(c)
	return nil
}
`)
	if kinds(rep)[IncompleteOperationError] != 0 {
		t.Errorf("object passed to helper flagged: %v", rep.Findings)
	}
}

func TestAliasedObjectTracked(t *testing.T) {
	rep := analyze(t, `package main

import "cognicryptgen/gca"

func alias(pwd []rune, salt []byte) error {
	spec, err := gca.NewPBEKeySpec(pwd, salt, 10000, 128)
	if err != nil {
		return err
	}
	other := spec
	other.ClearPassword()
	return nil
}
`)
	if kinds(rep)[IncompleteOperationError] != 0 {
		t.Errorf("alias not tracked; ClearPassword via alias missed: %v", rep.Findings)
	}
}

func TestSignatureWrongOrder(t *testing.T) {
	rep := analyze(t, `package main

import "cognicryptgen/gca"

func badSign(priv *gca.PrivateKey, data []byte) ([]byte, error) {
	s, err := gca.NewSignature("SHA256withECDSA")
	if err != nil {
		return nil, err
	}
	if err := s.Update(data); err != nil { // Update before InitSign
		return nil, err
	}
	if err := s.InitSign(priv); err != nil {
		return nil, err
	}
	return s.Sign()
}
`)
	if kinds(rep)[TypestateError] == 0 {
		t.Errorf("Update before InitSign not flagged: %v", rep.Findings)
	}
}

func TestMacWeakAlgorithmConstraint(t *testing.T) {
	rep := analyze(t, `package main

import "cognicryptgen/gca"

func badMac(key *gca.SecretKey, data []byte) ([]byte, error) {
	m, err := gca.NewMac("HmacSHA1")
	if err != nil {
		return nil, err
	}
	if err := m.InitMac(key); err != nil {
		return nil, err
	}
	if err := m.Update(data); err != nil {
		return nil, err
	}
	return m.DoFinalMac()
}
`)
	if kinds(rep)[ConstraintError] == 0 {
		t.Errorf("HmacSHA1 not flagged: %v", rep.Findings)
	}
}

func TestShortSaltLengthConstraint(t *testing.T) {
	rep := analyze(t, `package main

import "cognicryptgen/gca"

func shortSalt(pwd []rune) error {
	salt := make([]byte, 8) // below the rule's 16-byte minimum
	r, err := gca.NewSecureRandom()
	if err != nil {
		return err
	}
	if err := r.NextBytes(salt); err != nil {
		return err
	}
	spec, err := gca.NewPBEKeySpec(pwd, salt, 10000, 128)
	if err != nil {
		return err
	}
	spec.ClearPassword()
	return nil
}
`)
	if kinds(rep)[ConstraintError] == 0 {
		t.Errorf("8-byte salt not flagged against length[salt] >= 16: %v", rep.Findings)
	}
}

func TestZeroIVFlagged(t *testing.T) {
	rep := analyze(t, `package main

import "cognicryptgen/gca"

func zeroIV(key *gca.SecretKey, data []byte) ([]byte, error) {
	iv := make([]byte, 12) // never randomized
	spec, err := gca.NewIVParameterSpec(iv)
	if err != nil {
		return nil, err
	}
	c, err := gca.NewCipher("AES/GCM/NoPadding")
	if err != nil {
		return nil, err
	}
	if err := c.InitWithIV(gca.EncryptMode, key, spec); err != nil {
		return nil, err
	}
	return c.DoFinal(data)
}
`)
	if kinds(rep)[RequiredPredicateError] == 0 {
		t.Errorf("all-zero IV not flagged: %v", rep.Findings)
	}
}

// zeroValueIV passes a var-declared IV to NewIVParameterSpec; assign is
// spliced in between the declaration and that call.
func zeroValueIV(assign string) string {
	return `package main

import "cognicryptgen/gca"

func zeroValueIV(key *gca.SecretKey, param, data []byte) ([]byte, error) {
	var iv []byte
	` + assign + `
	spec, err := gca.NewIVParameterSpec(iv)
	if err != nil {
		return nil, err
	}
	c, err := gca.NewCipher("AES/GCM/NoPadding")
	if err != nil {
		return nil, err
	}
	if err := c.InitWithIV(gca.EncryptMode, key, spec); err != nil {
		return nil, err
	}
	return c.DoFinal(data)
}

func load(dst *[]byte, src []byte) { *dst = src }
`
}

// TestZeroValueIVFlagged: a var declared without a value is as local as
// make's all-zero bytes, so requiring randomized on it is a finding, not an
// assumption about outside input.
func TestZeroValueIVFlagged(t *testing.T) {
	rep := analyze(t, zeroValueIV(""))
	if k := kinds(rep); k[RequiredPredicateError] != 1 || len(rep.Findings) != 1 {
		t.Errorf("zero-value IV: want exactly one RequiredPredicateError, got %v", rep.Findings)
	}
}

// TestAssignedZeroValueIVClean: assigning a parameter to the declared var,
// or handing its address to a call that may, clears its zero value; the IV
// then flows in from outside the function.
func TestAssignedZeroValueIVClean(t *testing.T) {
	for _, assign := range []string{"iv = param", "load(&iv, param)"} {
		rep := analyze(t, zeroValueIV(assign))
		if len(rep.Findings) != 0 {
			t.Errorf("%s: IV flagged: %v", assign, rep.Findings)
		}
	}
}

// randomizedIV randomizes an IV with NextBytes and passes it to
// NewIVParameterSpec; after is spliced in between the two.
func randomizedIV(after string) string {
	return `package main

import "cognicryptgen/gca"

func goodIV(key *gca.SecretKey, data []byte) ([]byte, error) {
	iv := make([]byte, 12)
	r, err := gca.NewSecureRandom()
	if err != nil {
		return nil, err
	}
	if err := r.NextBytes(iv); err != nil {
		return nil, err
	}
	` + after + `
	spec, err := gca.NewIVParameterSpec(iv)
	if err != nil {
		return nil, err
	}
	c, err := gca.NewCipher("AES/GCM/NoPadding")
	if err != nil {
		return nil, err
	}
	if err := c.InitWithIV(gca.EncryptMode, key, spec); err != nil {
		return nil, err
	}
	return c.DoFinal(data)
}
`
}

// TestRandomizedIVClean: a randomized IV carries its predicate to
// NewIVParameterSpec, also through an alias assigned back to it, and
// copying out of it leaves it randomized.
func TestRandomizedIVClean(t *testing.T) {
	for _, after := range []string{"", "iv2 := iv\n\tiv = iv2", "dst := make([]byte, 12)\n\tcopy(dst, iv)"} {
		rep := analyze(t, randomizedIV(after))
		if rep.HasFindings() {
			t.Errorf("%q: clean IV flow flagged: %v", after, rep.Findings)
		}
	}
}

// TestOverwrittenIVFlagged: overwriting a randomized IV with fresh zero
// bytes or nil, or in place with clear or copy, drops its randomized
// predicate, so the spec that takes it draws exactly one finding.
func TestOverwrittenIVFlagged(t *testing.T) {
	for _, after := range []string{
		"iv = make([]byte, 12)",
		"iv = nil",
		"clear(iv)",
		"copy(iv, make([]byte, 12))",
		"copy(iv[4:], make([]byte, 8))",
	} {
		rep := analyze(t, randomizedIV(after))
		if k := kinds(rep); k[RequiredPredicateError] != 1 || len(rep.Findings) != 1 {
			t.Errorf("%q: want exactly one RequiredPredicateError, got %v", after, rep.Findings)
		}
	}
}

func TestParameterFlowsAreAssumptionsNotFindings(t *testing.T) {
	rep := analyze(t, `package main

import "cognicryptgen/gca"

func fromOutside(pwd []rune, salt []byte) error {
	spec, err := gca.NewPBEKeySpec(pwd, salt, 10000, 128)
	if err != nil {
		return err
	}
	spec.ClearPassword()
	return nil
}
`)
	if rep.HasFindings() {
		t.Errorf("parameter-provided salt flagged as finding: %v", rep.Findings)
	}
	if len(rep.Assumptions) == 0 {
		t.Error("cross-function salt flow should be recorded as an assumption")
	}
}

func TestReceiverFromParameterIsAssumption(t *testing.T) {
	rep := analyze(t, `package main

import "cognicryptgen/gca"

func finish(c *gca.Cipher, data []byte) ([]byte, error) {
	return c.DoFinal(data)
}
`)
	if rep.HasFindings() {
		t.Errorf("unknown receiver flagged: %v", rep.Findings)
	}
	if len(rep.Assumptions) == 0 {
		t.Error("unknown receiver should be an assumption")
	}
}

func TestDeadObjectStopsCascading(t *testing.T) {
	rep := analyze(t, `package main

import "cognicryptgen/gca"

func doubleBad() ([]byte, error) {
	kg, err := gca.NewKeyGenerator("AES")
	if err != nil {
		return nil, err
	}
	k, err := kg.GenerateKey() // typestate error
	if err != nil {
		return nil, err
	}
	k2, err := kg.GenerateKey() // second violation on the same dead object
	if err != nil {
		return nil, err
	}
	_ = k2
	return k.Encoded(), nil
}
`)
	if n := kinds(rep)[TypestateError]; n != 1 {
		t.Errorf("dead object should report once, got %d: %v", n, rep.Findings)
	}
}

func TestMultipleObjectsTrackedIndependently(t *testing.T) {
	rep := analyze(t, `package main

import "cognicryptgen/gca"

func two(data []byte) ([]byte, []byte, error) {
	a, err := gca.NewMessageDigest("SHA-256")
	if err != nil {
		return nil, nil, err
	}
	b, err := gca.NewMessageDigest("MD5") // constraint violation on b only
	if err != nil {
		return nil, nil, err
	}
	if err := a.Update(data); err != nil {
		return nil, nil, err
	}
	if err := b.Update(data); err != nil {
		return nil, nil, err
	}
	da, err := a.Digest()
	if err != nil {
		return nil, nil, err
	}
	db, err := b.Digest()
	if err != nil {
		return nil, nil, err
	}
	return da, db, nil
}
`)
	if n := kinds(rep)[ConstraintError]; n != 1 {
		t.Errorf("exactly one digest should be flagged, got %d: %v", n, rep.Findings)
	}
}
