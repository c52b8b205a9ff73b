package gen

import (
	"errors"
	"testing"

	"cognicryptgen/analysis"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
)

// TestRQ1GeneratedCodeIsClean reproduces the paper's RQ1 validity check
// (§5.1): every generated use case must compile (Verify) and must pass the
// misuse analyzer driven by the same rule set with zero findings — "none
// of the generated code snippets cause compiler errors or true misuses
// identified by CogniCryptSAST".
func TestRQ1GeneratedCodeIsClean(t *testing.T) {
	rs := rules.MustLoad()
	g, err := New(rs, "", Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	an, err := analysis.New(rs, "", analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, uc := range templates.UseCases {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.GenerateFile(uc.File, src)
		if err != nil {
			t.Errorf("use case %d (%s): generation failed: %v", uc.ID, uc.Name, err)
			continue
		}
		rep, err := an.AnalyzeSource(uc.File, res.Output)
		if err != nil {
			t.Errorf("use case %d (%s): analysis failed: %v", uc.ID, uc.Name, err)
			continue
		}
		for _, f := range rep.Findings {
			t.Errorf("use case %d (%s): misuse in generated code: %s", uc.ID, uc.Name, f)
		}
	}
}

// TestAblationRefusesOrCompiles: with a path filter or heuristic switched
// off (experiment E7) the generator may no longer find a sound path, but
// it must never emit code that does not compile. Every template under
// every ablation, with Verify off, either type-checks or fails with a
// *RefusalError.
func TestAblationRefusesOrCompiles(t *testing.T) {
	rs := rules.MustLoad()
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"NoLinkPreference", Options{NoLinkPreference: true}},
		{"NoDerivation", Options{NoDerivation: true}},
		{"NoBindingFilter", Options{NoBindingFilter: true}},
	} {
		g, err := New(rs, "", tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		var refused []int
		for _, uc := range templates.All() {
			src, err := templates.Source(uc)
			if err != nil {
				t.Fatal(err)
			}
			res, err := g.GenerateFile(uc.File, src)
			if err != nil {
				var refusal *RefusalError
				if !errors.As(err, &refusal) {
					t.Errorf("%s: use case %d: neither generated nor refused: %v", tc.name, uc.ID, err)
				}
				refused = append(refused, uc.ID)
				continue
			}
			if err := g.checker.VerifySource("generated_"+uc.File, res.Output); err != nil {
				t.Errorf("%s: use case %d: emitted code that does not compile: %v", tc.name, uc.ID, err)
			}
		}
		t.Logf("%s: refused use cases %v", tc.name, refused)
		if tc.opts.NoBindingFilter && len(refused) == 0 {
			t.Errorf("%s: no template refused; the filter's ablation is expected to leave bindings unused", tc.name)
		}
	}
}
