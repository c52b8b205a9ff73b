package gen

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"cognicryptgen/crysl"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
)

func allUseCases(t *testing.T) []templates.UseCase {
	t.Helper()
	return templates.All()
}

// TestPlanByteIdentity is the tentpole's golden gate: for every embedded
// template, the plan fast path must produce byte-identical output to the
// legacy pipeline — on the compiling run, on a cache-hit replay, and on a
// replay under a different template name (the header splice point).
func TestPlanByteIdentity(t *testing.T) {
	rs := rules.MustLoad()
	paths := NewPathCache()
	plans := NewPlanCache(0)
	legacy, err := New(rs, "", Options{Paths: paths})
	if err != nil {
		t.Fatal(err)
	}
	planned, err := New(rs, "", Options{Paths: paths, Plans: plans})
	if err != nil {
		t.Fatal(err)
	}

	cases := allUseCases(t)
	for _, uc := range cases {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := legacy.GenerateFile(uc.File, src)
		if err != nil {
			t.Fatalf("%s: legacy: %v", uc.File, err)
		}
		miss, err := planned.GenerateFile(uc.File, src)
		if err != nil {
			t.Fatalf("%s: plan-compiling run: %v", uc.File, err)
		}
		if miss.Output != want.Output {
			t.Errorf("%s: plan-compiling run diverged from legacy output", uc.File)
		}
		hit, err := planned.GenerateFile(uc.File, src)
		if err != nil {
			t.Fatalf("%s: plan hit: %v", uc.File, err)
		}
		if hit.Output != want.Output {
			t.Errorf("%s: plan-hit output not byte-identical to legacy", uc.File)
		}
		if miss.Report == nil {
			t.Errorf("%s: plan-compiling run returned no report", uc.File)
		}
		if hit.Report != nil {
			t.Errorf("%s: plan hit returned a report; a plan keeps none: %+v", uc.File, hit.Report)
		}

		// The name splice point: a different template name over the same
		// body is a plan hit and must match a legacy run under that name.
		alias := "replay_" + uc.File
		wantAlias, err := legacy.GenerateFile(alias, src)
		if err != nil {
			t.Fatal(err)
		}
		gotAlias, err := planned.GenerateFile(alias, src)
		if err != nil {
			t.Fatal(err)
		}
		if gotAlias.Output != wantAlias.Output {
			t.Errorf("%s: name-spliced plan output diverged from legacy under name %q", uc.File, alias)
		}
	}
	if got := plans.Len(); got != len(cases) {
		t.Errorf("plan cache holds %d plans, want one per template (%d)", got, len(cases))
	}
	if plans.Hits() < int64(2*len(cases)) {
		t.Errorf("plan hits = %d, want >= %d (one replay + one alias per template)", plans.Hits(), 2*len(cases))
	}
	if plans.Bytes() <= 0 {
		t.Errorf("plan bytes = %d, want > 0", plans.Bytes())
	}
}

// TestPlanPackageOverrideIdentity pins the package-clause splice point in
// both directions: a plan compiled without an override must serve
// overridden requests byte-identically to the legacy pipeline, and a plan
// compiled UNDER an override must serve later non-overridden requests
// with the template's own package restored.
func TestPlanPackageOverrideIdentity(t *testing.T) {
	rs := rules.MustLoad()
	paths := NewPathCache()
	uc := allUseCases(t)[2]
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}

	mustNew := func(opts Options) *Generator {
		t.Helper()
		g, err := New(rs, "", opts)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	wantPlain, err := mustNew(Options{Paths: paths}).GenerateFile(uc.File, src)
	if err != nil {
		t.Fatal(err)
	}
	wantRenamed, err := mustNew(Options{Paths: paths, PackageName: "renamed"}).GenerateFile(uc.File, src)
	if err != nil {
		t.Fatal(err)
	}

	// Compile the plan without an override, execute with one. Both
	// generators share the plan cache, as daemon workers do across
	// requests with differing Package fields.
	plans := NewPlanCache(0)
	if _, err := mustNew(Options{Paths: paths, Plans: plans}).GenerateFile(uc.File, src); err != nil {
		t.Fatal(err)
	}
	got, err := mustNew(Options{Paths: paths, Plans: plans, PackageName: "renamed"}).GenerateFile(uc.File, src)
	if err != nil {
		t.Fatal(err)
	}
	if got.Output != wantRenamed.Output {
		t.Error("package override through a plain-compiled plan diverged from legacy")
	}

	// Compile the plan under an override, execute without one.
	plans2 := NewPlanCache(0)
	if _, err := mustNew(Options{Paths: paths, Plans: plans2, PackageName: "renamed"}).GenerateFile(uc.File, src); err != nil {
		t.Fatal(err)
	}
	got2, err := mustNew(Options{Paths: paths, Plans: plans2}).GenerateFile(uc.File, src)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Output != wantPlain.Output {
		t.Error("plain request through an override-compiled plan did not restore the template package")
	}
}

// TestPlanFallbacks: requests the byte splicer cannot serve exactly must
// transparently run the legacy pipeline — same output, no plan entries,
// no errors introduced by the fast path.
func TestPlanFallbacks(t *testing.T) {
	rs := rules.MustLoad()
	paths := NewPathCache()
	plans := NewPlanCache(0)
	legacy, err := New(rs, "", Options{Paths: paths})
	if err != nil {
		t.Fatal(err)
	}
	planned, err := New(rs, "", Options{Paths: paths, Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	// A newline in the name breaks the generated header comment in BOTH
	// pipelines (the second line is not a comment); the plan path must
	// surface the same error instead of splicing garbage or panicking.
	odd := "odd\nname.go"
	if _, err := legacy.GenerateFile(odd, miniTemplate); err == nil {
		t.Fatal("legacy pipeline unexpectedly accepted a newline in the template name")
	}
	if _, err := planned.GenerateFile(odd, miniTemplate); err == nil {
		t.Error("plan path accepted a newline in the template name that legacy rejects")
	}
	if plans.Len() != 0 {
		t.Errorf("failed newline-name request stored %d plans, want 0", plans.Len())
	}
	// A space-padded name generates fine but is ineligible for splicing
	// (the trimmed form would not round-trip); it must fall back to the
	// legacy pipeline byte-identically without storing a plan.
	padded := " mini.go"
	want, err := legacy.GenerateFile(padded, miniTemplate)
	if err != nil {
		t.Fatal(err)
	}
	got, err := planned.GenerateFile(padded, miniTemplate)
	if err != nil {
		t.Fatal(err)
	}
	if got.Output != want.Output {
		t.Error("ineligible padded name: fallback output diverged from legacy")
	}
	if plans.Len() != 0 {
		t.Errorf("ineligible request stored %d plans, want 0", plans.Len())
	}
	// A non-identifier package override is rejected by the legacy pipeline
	// at format time; the plan path must neither mask nor change that.
	bad, err := New(rs, "", Options{Paths: paths, Plans: plans, PackageName: "not an ident"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.GenerateFile("mini.go", miniTemplate); err == nil {
		t.Error("non-identifier package override unexpectedly succeeded")
	}
	if plans.Len() != 0 {
		t.Errorf("failed generation stored %d plans, want 0", plans.Len())
	}
}

// TestPlanConcurrentExecution: many goroutines over one shared PlanCache
// (the daemon's shape: one Generator shared by every goroutine, distinct
// request names, same template body) must all see byte-identical bodies.
// Run under -race by scripts/verify.sh.
func TestPlanConcurrentExecution(t *testing.T) {
	rs := rules.MustLoad()
	paths := NewPathCache()
	plans := NewPlanCache(0)
	base, err := New(rs, "", Options{Paths: paths, Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.GenerateFile("seed.go", miniTemplate)
	if err != nil {
		t.Fatal(err)
	}
	stripHeader := func(s string) string {
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			return s[i+1:]
		}
		return s
	}
	wantBody := stripHeader(want.Output)

	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("c%d_%d.go", w, i)
				res, err := base.GenerateFile(name, miniTemplate)
				if err != nil {
					errs <- err
					return
				}
				if !strings.HasPrefix(res.Output, planHeaderPrefix+name+". DO NOT EDIT.") {
					errs <- fmt.Errorf("%s: header not spliced with request name", name)
					return
				}
				if stripHeader(res.Output) != wantBody {
					errs <- fmt.Errorf("%s: body diverged under concurrency", name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if plans.Len() != 1 {
		t.Errorf("distinct-name stream over one body left %d plans, want 1", plans.Len())
	}
}

// TestAblationBypassesPlans: the plan key holds no ablation switch, so a
// NoDerivation Generator sharing a PlanCache with a warmed plan of the same
// body must neither splice that plan nor touch the cache: it returns the
// pipeline's ablation bytes, and the cache's hit and miss counts and its
// resident plans stay as they were.
func TestAblationBypassesPlans(t *testing.T) {
	rs := rules.MustLoad()
	plans := NewPlanCache(0)
	warm, err := New(rs, "", Options{Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	full, err := warm.GenerateFile("mini.go", miniTemplate)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(rs, "", Options{NoDerivation: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.GenerateFile("mini.go", miniTemplate)
	if err != nil {
		t.Fatal(err)
	}
	if want.Output == full.Output {
		t.Fatal("NoDerivation output equals the full algorithm's; the test cannot tell a splice from a pipeline run")
	}

	hits, misses, n := plans.Hits(), plans.Misses(), plans.Len()
	opts := Options{NoDerivation: true, Plans: plans}
	ablated, err := New(rs, "", opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := ablated.GenerateFile("mini.go", miniTemplate)
		if err != nil {
			t.Fatal(err)
		}
		if got.Output != want.Output {
			t.Errorf("run %d: NoDerivation with a shared PlanCache differs from the plan-free ablation", i)
		}
	}
	if _, ok := plans.Execute(rs.Fingerprint(), "mini.go", miniTemplate, opts); ok {
		t.Error("Execute served a NoDerivation request from the full algorithm's plan")
	}
	if plans.Hits() != hits || plans.Misses() != misses || plans.Len() != n {
		t.Errorf("ablation runs touched the cache: hits %d→%d, misses %d→%d, plans %d→%d",
			hits, plans.Hits(), misses, plans.Misses(), n, plans.Len())
	}
}

// TestPlanCacheLRUAndRetain: the plan cache is bounded (LRU) and Retain
// implements the registry's generation-scoped eviction.
func TestPlanCacheLRUAndRetain(t *testing.T) {
	c := NewPlanCache(2)
	mk := func(fp string, i int) (planKey, *Plan) {
		return newPlanKey(fp, fmt.Sprintf("src%d", i), false),
			&Plan{nameToPkg: "x", afterPkg: "y", defaultPkg: "p", rulesFP: fp}
	}
	k1, p1 := mk("fpA", 1)
	k2, p2 := mk("fpA", 2)
	k3, p3 := mk("fpB", 3)
	c.put(k1, p1)
	c.put(k2, p2)
	c.put(k3, p3) // evicts k1 (LRU)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (LRU bound)", c.Len())
	}
	if _, ok := c.peek(k1); ok {
		t.Error("least-recently-used plan survived past the capacity bound")
	}
	if _, ok := c.peek(k2); !ok {
		t.Error("resident plan missing")
	}
	if dropped := c.Retain(map[string]bool{"fpB": true}); dropped != 1 {
		t.Errorf("Retain dropped %d, want 1", dropped)
	}
	if _, ok := c.peek(k2); ok {
		t.Error("plan of unloaded fingerprint fpA survived Retain")
	}
	if _, ok := c.peek(k3); !ok {
		t.Error("plan of kept fingerprint fpB evicted by Retain")
	}
	if c.Bytes() <= 0 {
		t.Errorf("Bytes = %d, want > 0 while a plan is resident", c.Bytes())
	}
	c.Retain(map[string]bool{})
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("after full Retain: Len=%d Bytes=%d, want 0/0", c.Len(), c.Bytes())
	}
}

// TestPushedParamOnRepeatedEventDeduped is the regression test for the
// duplicate-placeholder bug: a parameter that occurs on several events of
// the selected path (here Update twice) was pushed up once per event, so
// emit declared one TODO placeholder per occurrence, rebound the rule
// variable to the last, and left the earlier declarations unused — which
// fails outright under Options.Verify ("declared and not used").
func TestPushedParamOnRepeatedEventDeduped(t *testing.T) {
	rule, err := crysl.ParseRule("dup.crysl", `SPEC gca.MessageDigest
OBJECTS
    string hashAlg;
    []byte input;
    []byte digest;
EVENTS
    c1: NewMessageDigest(_);
    u1: Update(input);
    u2: Update(input);
    d1: digest := Digest();
ORDER
    c1, u1, u2, d1
`)
	if err != nil {
		t.Fatal(err)
	}
	set := crysl.NewRuleSet()
	if err := set.Add(rule); err != nil {
		t.Fatal(err)
	}
	plans := NewPlanCache(0)
	g, err := New(set, "", Options{Verify: true, Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	// Drop the template's input binding so the parameter is unresolvable
	// and must be pushed up.
	src := strings.Replace(miniTemplate, `.AddParameter(data, "input")`, "", 1)
	res, err := g.GenerateFile("mini.go", src)
	if err != nil {
		t.Fatalf("repeated unresolved parameter broke generation: %v", err)
	}
	if n := strings.Count(res.Output, `unresolved parameter "input"`); n != 1 {
		t.Errorf("placeholder for %q declared %d times, want exactly 1:\n%s", "input", n, res.Output)
	}
	if n := strings.Count(res.Output, "Update(input)"); n != 2 {
		t.Errorf("Update(input) emitted %d times, want 2 (both events share the one placeholder)", n)
	}
	pushes := 0
	for _, p := range res.Report.PushedUp {
		if p == "gca.MessageDigest.input" {
			pushes++
		}
	}
	if pushes != 1 {
		t.Errorf("report lists the pushed parameter %d times, want once: %v", pushes, res.Report.PushedUp)
	}
	// The fix must hold on the plan fast path too: a replay under a new
	// name is served from the compiled plan and must carry the same body.
	replay, err := g.GenerateFile("mini.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Output != res.Output {
		t.Error("plan replay diverged from the deduped legacy output")
	}
	if plans.Hits() == 0 {
		t.Error("replay did not hit the compiled plan")
	}
}

// TestWildcardPlaceholdersDistinctAndReportedOnce: one rule contributing
// several wildcard parameters emits one *distinct* placeholder variable
// per call site (no collision) while the report diagnostic appears once,
// not once per occurrence.
func TestWildcardPlaceholdersDistinctAndReportedOnce(t *testing.T) {
	rule, err := crysl.ParseRule("wild2.crysl", `SPEC gca.MessageDigest
OBJECTS
    string hashAlg;
    []byte input;
    []byte digest;
EVENTS
    c1: NewMessageDigest(_);
    u1: Update(_);
    u2: Update(_);
    d1: digest := Digest();
ORDER
    c1, u1, u2, d1
`)
	if err != nil {
		t.Fatal(err)
	}
	set := crysl.NewRuleSet()
	if err := set.Add(rule); err != nil {
		t.Fatal(err)
	}
	g, err := New(set, "", Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	src := strings.Replace(miniTemplate, `.AddParameter(data, "input")`, "", 1)
	res, err := g.GenerateFile("mini.go", src)
	if err != nil {
		t.Fatalf("multi-wildcard rule broke generation: %v", err)
	}
	if n := strings.Count(res.Output, "TODO(cryptgen): wildcard parameter of Update"); n != 2 {
		t.Errorf("Update wildcard placeholders = %d, want 2 (one per call site)", n)
	}
	// The constructor's wildcard takes the first allocated name; the two
	// Update sites must each get their own fresh variable, not share or
	// shadow one.
	if !strings.Contains(res.Output, "Update(wildcard2)") || !strings.Contains(res.Output, "Update(wildcard3)") {
		t.Errorf("wildcard placeholder variables collided:\n%s", res.Output)
	}
	diag := 0
	for _, p := range res.Report.PushedUp {
		if strings.Contains(p, "wildcard parameter of Update") {
			diag++
		}
	}
	if diag != 1 {
		t.Errorf("wildcard diagnostic reported %d times, want once: %v", diag, res.Report.PushedUp)
	}
}
