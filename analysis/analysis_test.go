package analysis

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cognicryptgen/rules"
)

// newTestAnalyzer returns the package-shared analyzer for default options
// (one stdlib type-check per test binary) and a fresh one otherwise.
func newTestAnalyzer(t *testing.T, opts Options) *Analyzer {
	t.Helper()
	if opts == (Options{}) {
		return sharedAnalyzer(t)
	}
	a, err := New(rules.MustLoad(), "", opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mustAnalyze(t *testing.T, a *Analyzer, src string) *Report {
	t.Helper()
	rep, err := a.AnalyzeSource("prog.go", src)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func kinds(rep *Report) map[Kind]int {
	out := map[Kind]int{}
	for _, f := range rep.Findings {
		out[f.Kind]++
	}
	return out
}

// figure1 is the paper's motivating misuse example (Figure 1) transcribed
// to the gca façade: constant salt, password survives (no ClearPassword),
// iteration count fine.
const figure1 = `package main

import "cognicryptgen/gca"

func generateKey(pwd []rune) (*gca.SecretKeySpec, error) {
	salt := []byte{15, 244, 94, 0, 12, 3, 65, 73, 255, 84, 35, 1, 2, 3, 4, 5}
	spec, err := gca.NewPBEKeySpec(pwd, salt, 100000, 256)
	if err != nil {
		return nil, err
	}
	skf, err := gca.NewSecretKeyFactory("PBKDF2WithHmacSHA256")
	if err != nil {
		return nil, err
	}
	prf, err := skf.GenerateSecret(spec)
	if err != nil {
		return nil, err
	}
	return gca.NewSecretKeySpec(prf.Encoded(), "AES")
}
`

func TestFigure1Misuses(t *testing.T) {
	a := newTestAnalyzer(t, Options{})
	rep := mustAnalyze(t, a, figure1)
	k := kinds(rep)
	if k[RequiredPredicateError] == 0 {
		t.Errorf("constant salt must raise RequiredPredicateError; findings: %v", rep.Findings)
	}
	if k[IncompleteOperationError] == 0 {
		t.Errorf("missing ClearPassword must raise IncompleteOperationError; findings: %v", rep.Findings)
	}
}

func TestLowIterationCount(t *testing.T) {
	a := newTestAnalyzer(t, Options{})
	rep := mustAnalyze(t, a, `package main

import "cognicryptgen/gca"

func weak(pwd []rune, salt []byte) {
	spec, _ := gca.NewPBEKeySpec(pwd, salt, 100, 256)
	spec.ClearPassword()
}
`)
	k := kinds(rep)
	if k[ConstraintError] == 0 {
		t.Errorf("iteration count 100 must raise ConstraintError; findings: %v", rep.Findings)
	}
}

func TestForbiddenConstructor(t *testing.T) {
	a := newTestAnalyzer(t, Options{})
	rep := mustAnalyze(t, a, `package main

import "cognicryptgen/gca"

func weak(pwd []rune) {
	spec, _ := gca.NewPBEKeySpecNoSalt(pwd)
	_ = spec
}
`)
	k := kinds(rep)
	if k[ForbiddenMethodError] == 0 {
		t.Errorf("NewPBEKeySpecNoSalt must raise ForbiddenMethodError; findings: %v", rep.Findings)
	}
}

func TestTypestateOrderViolation(t *testing.T) {
	a := newTestAnalyzer(t, Options{})
	rep := mustAnalyze(t, a, `package main

import "cognicryptgen/gca"

func weak() ([]byte, error) {
	kg, err := gca.NewKeyGenerator("AES")
	if err != nil {
		return nil, err
	}
	key, err := kg.GenerateKey() // Init missing: typestate violation
	if err != nil {
		return nil, err
	}
	return key.Encoded(), nil
}
`)
	k := kinds(rep)
	if k[TypestateError] == 0 {
		t.Errorf("GenerateKey before Init must raise TypestateError; findings: %v", rep.Findings)
	}
}

func TestBlacklistedAlgorithmConstant(t *testing.T) {
	a := newTestAnalyzer(t, Options{})
	rep := mustAnalyze(t, a, `package main

import "cognicryptgen/gca"

func weak(data []byte) ([]byte, error) {
	md, err := gca.NewMessageDigest("MD5")
	if err != nil {
		return nil, err
	}
	if err := md.Update(data); err != nil {
		return nil, err
	}
	return md.Digest()
}
`)
	k := kinds(rep)
	if k[ConstraintError] == 0 {
		t.Errorf(`NewMessageDigest("MD5") must raise ConstraintError; findings: %v`, rep.Findings)
	}
}

func TestCleanHashing(t *testing.T) {
	a := newTestAnalyzer(t, Options{})
	rep := mustAnalyze(t, a, `package main

import "cognicryptgen/gca"

func hash(data []byte) ([]byte, error) {
	md, err := gca.NewMessageDigest("SHA-256")
	if err != nil {
		return nil, err
	}
	if err := md.Update(data); err != nil {
		return nil, err
	}
	return md.Digest()
}
`)
	if rep.HasFindings() {
		t.Errorf("clean hashing flagged: %v", rep.Findings)
	}
}

func TestProperPBENoFindings(t *testing.T) {
	a := newTestAnalyzer(t, Options{})
	rep := mustAnalyze(t, a, `package main

import "cognicryptgen/gca"

func generateKey(pwd []rune) (*gca.SecretKeySpec, error) {
	salt := make([]byte, 32)
	sr, err := gca.NewSecureRandom()
	if err != nil {
		return nil, err
	}
	if err := sr.NextBytes(salt); err != nil {
		return nil, err
	}
	spec, err := gca.NewPBEKeySpec(pwd, salt, 10000, 128)
	if err != nil {
		return nil, err
	}
	skf, err := gca.NewSecretKeyFactory("PBKDF2WithHmacSHA256")
	if err != nil {
		return nil, err
	}
	prf, err := skf.GenerateSecret(spec)
	if err != nil {
		return nil, err
	}
	material := prf.Encoded()
	key, err := gca.NewSecretKeySpec(material, "AES")
	if err != nil {
		return nil, err
	}
	spec.ClearPassword()
	return key, nil
}
`)
	if rep.HasFindings() {
		t.Errorf("secure PBE flagged: %v", rep.Findings)
	}
}

func TestNFASimulationAgreesWithDFA(t *testing.T) {
	srcs := []string{figure1}
	dfa := newTestAnalyzer(t, Options{})
	nfa := newTestAnalyzer(t, Options{NFASimulation: true})
	for _, src := range srcs {
		rd := mustAnalyze(t, dfa, src)
		rn := mustAnalyze(t, nfa, src)
		if len(rd.Findings) != len(rn.Findings) {
			t.Errorf("DFA (%d) and NFA (%d) modes disagree", len(rd.Findings), len(rn.Findings))
		}
	}
}

func TestFindingStringFormat(t *testing.T) {
	a := newTestAnalyzer(t, Options{})
	rep := mustAnalyze(t, a, figure1)
	if len(rep.Findings) == 0 {
		t.Fatal("expected findings")
	}
	s := rep.Findings[0].String()
	if !strings.Contains(s, "gca.") || !strings.Contains(s, "generateKey") {
		t.Errorf("finding string lacks rule/function context: %q", s)
	}
}

// cancelAfter is a context whose Err turns to context.Canceled once it
// has been asked n times.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestAnalyzeSourceCtxCancel: an analysis stops with the context's error
// when the context has ended before the type-check, and when it ends
// after the type-check, between functions.
func TestAnalyzeSourceCtxCancel(t *testing.T) {
	a := newTestAnalyzer(t, Options{})
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"before the type-check", ended},
		{"between functions", &cancelAfter{Context: context.Background(), n: 1}},
	} {
		rep, err := a.AnalyzeSourceCtx(tc.ctx, "prog.go", figure1)
		if !errors.Is(err, context.Canceled) || rep != nil {
			t.Errorf("%s: report %v, err %v; want context.Canceled", tc.name, rep, err)
		}
	}
	rep, err := a.AnalyzeSourceCtx(context.Background(), "prog.go", figure1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("live context: no findings on the Figure 1 misuse")
	}
}
