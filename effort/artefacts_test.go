package effort

import (
	"go/format"
	"maps"
	"strings"
	"testing"

	"cognicryptgen/analysis"
	"cognicryptgen/oldgen"
	"cognicryptgen/oldgen/clafer"
	"cognicryptgen/oldgen/xsl"
	"cognicryptgen/rules"
)

// runStudyArtefact drives a study XSL+Clafer artefact pair through the
// real old-gen engines, proving the RQ5 "before"/"after" materials are
// executable artefacts rather than prose.
func runStudyArtefact(t *testing.T, cfrSrc, xslSrc, task string) string {
	t.Helper()
	model, err := clafer.Parse(cfrSrc)
	if err != nil {
		t.Fatalf("clafer: %v", err)
	}
	cfg, err := model.Solve(task, nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	input, err := xsl.ParseInput(configXML(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sheet, err := xsl.ParseStylesheet(xslSrc)
	if err != nil {
		t.Fatalf("stylesheet: %v", err)
	}
	text, err := sheet.Transform(input)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	formatted, err := format.Source([]byte(text))
	if err != nil {
		t.Fatalf("output does not parse as Go: %v\n%s", err, text)
	}
	return string(formatted)
}

// configXML delegates to the real old-gen serialiser.
func configXML(cfg clafer.Config) string {
	return oldgen.ConfigXML(cfg)
}

// TestStudyArtefactsExecuteBeforeAndAfter runs each RQ5 study artefact
// and scans its output with the misuse analyzer, the RQ5 precision pairs:
// each "before" artefact draws exactly its one misuse (the symmetric one
// an all-zero IV, the hashing one the algorithm name "SHA256"), and its
// fixed "after" twin draws none.
func TestStudyArtefactsExecuteBeforeAndAfter(t *testing.T) {
	an, err := analysis.New(rules.MustLoad(), "", analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		cfr, xsl string
		task     string
		wantFrag string
		findings map[analysis.Kind]int
	}{
		{"sym before", oldSymCfrBefore, oldSymXSLBefore, "SymmetricEncryption", "NewIVParameterSpec(iv)", map[analysis.Kind]int{analysis.RequiredPredicateError: 1}},
		{"sym after", oldSymCfrAfter, oldSymXSLAfter, "SymmetricEncryption", "secureRandom.NextBytes(iv)", nil},
		{"hash before", oldHashingCfrBefore, oldHashingXSLBefore, "Hashing", "Hash(s string)", map[analysis.Kind]int{analysis.ConstraintError: 1}},
		{"hash after", oldHashingCfrAfter, oldHashingXSLAfter, "Hashing", "HashFile(path string)", nil},
	}
	for _, c := range cases {
		out := runStudyArtefact(t, c.cfr, c.xsl, c.task)
		if !strings.Contains(out, c.wantFrag) {
			t.Errorf("%s: output missing %q:\n%s", c.name, c.wantFrag, out)
		}
		rep, err := an.AnalyzeSource("artefact.go", out)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := map[analysis.Kind]int{}
		for _, f := range rep.Findings {
			got[f.Kind]++
		}
		if !maps.Equal(got, c.findings) {
			t.Errorf("%s: findings %v, want %v:\n%s", c.name, got, c.findings, out)
		}
	}
}

// TestStudyTaskFixesBehaviour: after Task 1's name fix, the generated
// hashing code must carry the corrected algorithm name.
func TestStudyTaskFixesBehaviour(t *testing.T) {
	before := runStudyArtefact(t, oldHashingCfrBefore, oldHashingXSLBefore, "Hashing")
	after := runStudyArtefact(t, oldHashingCfrAfter, oldHashingXSLAfter, "Hashing")
	if !strings.Contains(before, `NewMessageDigest("SHA256")`) {
		t.Errorf("before artefact should produce the wrong name:\n%s", before)
	}
	if !strings.Contains(after, `NewMessageDigest("SHA-256")`) {
		t.Errorf("after artefact should produce the fixed name:\n%s", after)
	}
}
