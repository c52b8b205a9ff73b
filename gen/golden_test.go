package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cognicryptgen/rules"
	"cognicryptgen/templates"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/pipeline_golden.json from the current pipeline")

const pipelineGoldenFile = "pipeline_golden.json"

// goldenBodies are the template-body variants TestPipelineGolden pins: the
// template as embedded, and the template with a comment appended or
// prepended, which shifts every byte offset the splicer works with.
var goldenBodies = []struct {
	name string
	body func(src string) string
}{
	{"as-is", func(src string) string { return src }},
	{"trailing-comment", func(src string) string { return src + "\n// trailing comment\n" }},
	{"leading-comment", func(src string) string { return "// leading comment\n" + src }},
}

// TestPipelineGolden pins the bytes of the plan-free pipeline: the SHA-256
// of GenerateFile's output for every embedded template, under the
// template's own package and three overrides, with verification off and
// on, over three bodies. The plan tests compare the pipeline with itself;
// this test compares it with recorded output, so an optimisation of the
// pipeline that changes a single byte fails here. Regenerate the file with
// go test ./gen -run TestPipelineGolden -update-golden only when a change
// to the output is intended.
func TestPipelineGolden(t *testing.T) {
	rs := rules.MustLoad()
	paths := NewPathCache()
	got := map[string]string{}
	for _, uc := range allUseCases(t) {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range []string{"", "app", "svc", "vault"} {
			for _, verify := range []bool{false, true} {
				g, err := New(rs, "", Options{PackageName: pkg, Verify: verify, Paths: paths})
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range goldenBodies {
					key := fmt.Sprintf("%s|pkg=%s|verify=%t|%s", uc.File, pkg, verify, b.name)
					res, err := g.GenerateFile(uc.File, b.body(src))
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					got[key] = outputHash(res.Output)
				}
			}
		}
	}

	path := filepath.Join("testdata", pipelineGoldenFile)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := pipelineGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden file holds %d hashes, the pipeline produced %d", len(want), len(got))
	}
	for key, sum := range got {
		if want[key] != sum {
			t.Errorf("%s: output hash %s, golden %s", key, sum, want[key])
		}
	}
}

// pipelineGolden reads the hashes TestPipelineGolden pins, keyed
// "<template>|pkg=<override>|verify=<bool>|<body variant>".
func pipelineGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", pipelineGoldenFile))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// outputHash is the hex SHA-256 the golden file holds for an output.
func outputHash(out string) string {
	sum := sha256.Sum256([]byte(out))
	return hex.EncodeToString(sum[:])
}
