package crysl

import (
	"strings"
	"testing"
	"testing/fstest"

	"cognicryptgen/crysl/ast"
	"cognicryptgen/crysl/parser"
	"cognicryptgen/internal/faultinject"
)

const specSrc = `SPEC gca.Widget
OBJECTS
    int size;
    []byte out;
EVENTS
    c1: NewWidget(size);
    u1: Use();
    u2: UseHard();
    use := u1 | u2;
    f1: out := Finish();
ORDER
    c1, use*, f1
CONSTRAINTS
    size in {1, 2};
REQUIRES
    ready[out];
ENSURES
    made[this, size] after c1;
    finished[out] after f1;
NEGATES
    made[this, _] after f1;
`

func compileWidget(t *testing.T) *Rule {
	t.Helper()
	r, err := ParseRule("widget.crysl", specSrc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParseRuleBasics(t *testing.T) {
	r := compileWidget(t)
	if r.SpecType() != "gca.Widget" || r.Name() != "Widget" {
		t.Errorf("names: %s / %s", r.SpecType(), r.Name())
	}
	if len(r.Events) != 4 { // concrete events only
		t.Errorf("concrete events: %d", len(r.Events))
	}
	if _, ok := r.Event("use"); ok {
		t.Error("aggregate must not appear in concrete event table")
	}
}

func TestAggregateExpansion(t *testing.T) {
	r := compileWidget(t)
	got := r.ExpandLabel("use")
	if len(got) != 2 || got[0] != "u1" || got[1] != "u2" {
		t.Errorf("expansion: %v", got)
	}
	if got := r.ExpandLabel("c1"); len(got) != 1 || got[0] != "c1" {
		t.Errorf("concrete label expansion: %v", got)
	}
}

func TestNestedAggregates(t *testing.T) {
	src := `SPEC T
EVENTS
    a: A();
    b: B();
    c: C();
    inner := a | b;
    outer := inner | c;
ORDER
    outer
`
	r, err := ParseRule("t", src)
	if err != nil {
		t.Fatal(err)
	}
	got := r.ExpandLabel("outer")
	if len(got) != 3 {
		t.Fatalf("nested expansion: %v", got)
	}
	for _, l := range []string{"a", "b", "c"} {
		if !r.DFA.Accepts([]string{l}) {
			t.Errorf("DFA should accept %q via nested aggregate", l)
		}
	}
}

func TestDFAAndNFARetained(t *testing.T) {
	r := compileWidget(t)
	seqs := [][]string{{"c1", "f1"}, {"c1", "u1", "f1"}, {"c1", "u2", "u1", "f1"}}
	for _, s := range seqs {
		if !r.DFA.Accepts(s) || !r.NFA.Accepts(s) {
			t.Errorf("sequence %v should be accepted by both automata", s)
		}
	}
	if r.DFA.Accepts([]string{"f1"}) {
		t.Error("f1 without constructor accepted")
	}
}

func TestEnsuredAfterAndUnconditional(t *testing.T) {
	r := compileWidget(t)
	after := r.EnsuredAfter("c1")
	if len(after) != 1 || after[0].Name != "made" {
		t.Errorf("EnsuredAfter(c1): %v", after)
	}
	if got := r.EnsuredAfter("u1"); len(got) != 0 {
		t.Errorf("EnsuredAfter(u1): %v", got)
	}
	if got := r.UnconditionalEnsures(); len(got) != 0 {
		t.Errorf("unconditional: %v", got)
	}
}

// TestEnsuredAfterComputedOnce: a rule's per-label predicate lists are
// built when it is compiled, so a lookup allocates nothing. A label an
// aggregate and its own clause both name gets both predicates, in
// declaration order, and building its list leaves the rule's ENSURES as
// declared.
func TestEnsuredAfterComputedOnce(t *testing.T) {
	r := compileWidget(t)
	if allocs := testing.AllocsPerRun(100, func() { r.EnsuredAfter("c1") }); allocs != 0 {
		t.Errorf("EnsuredAfter allocates %v times per call", allocs)
	}
	src := strings.Replace(specSrc, "    finished[out] after f1;\n",
		"    finished[out] after f1;\n    used[this] after use;\n    easy[this] after u1;\n    twice[this] after use;\n", 1)
	r, err := ParseRule("widget.crysl", src)
	if err != nil {
		t.Fatal(err)
	}
	names := func(preds []*ast.PredicateDef) string {
		var out []string
		for _, p := range preds {
			out = append(out, p.Name)
		}
		return strings.Join(out, " ")
	}
	for label, want := range map[string]string{"u1": "used easy twice", "u2": "used twice", "c1": "made", "f1": "finished"} {
		if got := names(r.EnsuredAfter(label)); got != want {
			t.Errorf("EnsuredAfter(%s) = %q, want %q", label, got, want)
		}
	}
	if got := names(r.AST.Ensures); got != "made finished used easy twice" {
		t.Errorf("ENSURES became %q", got)
	}
}

func TestNegatingLabels(t *testing.T) {
	r := compileWidget(t)
	neg := r.NegatingLabels()
	if !neg["f1"] || len(neg) != 1 {
		t.Errorf("negating labels: %v", neg)
	}
}

func TestLabelsForMethod(t *testing.T) {
	r := compileWidget(t)
	if got := r.LabelsForMethod("Use"); len(got) != 1 || got[0] != "u1" {
		t.Errorf("LabelsForMethod(Use): %v", got)
	}
	if got := r.LabelsForMethod("Nope"); len(got) != 0 {
		t.Errorf("unknown method: %v", got)
	}
}

func TestRuleSetLookups(t *testing.T) {
	set := NewRuleSet()
	r := compileWidget(t)
	if err := set.Add(r); err != nil {
		t.Fatal(err)
	}
	if err := set.Add(r); err == nil {
		t.Error("duplicate Add must fail")
	}
	if _, ok := set.Get("gca.Widget"); !ok {
		t.Error("qualified lookup failed")
	}
	if _, ok := set.Get("Widget"); !ok {
		t.Error("unqualified lookup failed")
	}
	if _, ok := set.Get("Gadget"); ok {
		t.Error("unknown lookup succeeded")
	}
	if set.Len() != 1 || len(set.Types()) != 1 || len(set.Rules()) != 1 {
		t.Error("set accessors inconsistent")
	}
}

func TestProducers(t *testing.T) {
	set := NewRuleSet()
	if err := set.Add(compileWidget(t)); err != nil {
		t.Fatal(err)
	}
	if got := set.Producers("made"); len(got) != 1 {
		t.Errorf("producers of made: %d", len(got))
	}
	if got := set.Producers("unknown"); len(got) != 0 {
		t.Errorf("producers of unknown predicate: %d", len(got))
	}
}

func TestLoadFS(t *testing.T) {
	fsys := fstest.MapFS{
		"rules/a.crysl":     {Data: []byte(specSrc)},
		"rules/b.crysl":     {Data: []byte(strings.Replace(specSrc, "gca.Widget", "gca.Gadget", 1))},
		"rules/ignored.txt": {Data: []byte("not a rule")},
	}
	set, err := LoadFS(fsys, "rules")
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Fatalf("loaded %d rules", set.Len())
	}
	// Deterministic order: sorted by path.
	if types := set.Types(); types[0] != "gca.Widget" || types[1] != "gca.Gadget" {
		t.Errorf("order: %v", types)
	}
}

func TestLoadFSReportsBrokenRule(t *testing.T) {
	fsys := fstest.MapFS{
		"r/bad.crysl":  {Data: []byte("SPEC\n???")},
		"r/good.crysl": {Data: []byte(specSrc)},
	}
	set, err := LoadFS(fsys, "r")
	if err == nil {
		t.Fatal("broken rule must surface an error")
	}
	if set.Len() != 1 {
		t.Errorf("good rule should still load: %d", set.Len())
	}
}

// TestLoadFSAggregatesAllErrors: a load with several independent failures
// — an unparseable file AND a duplicate SPEC — must surface every error
// through errors.Join, not just the first one queued, and must still
// return the loadable remainder of the set.
func TestLoadFSAggregatesAllErrors(t *testing.T) {
	fsys := fstest.MapFS{
		"r/a_bad.crysl":  {Data: []byte("SPEC\n???")},
		"r/b_dup1.crysl": {Data: []byte(specSrc)},
		"r/c_dup2.crysl": {Data: []byte(specSrc)}, // same SPEC gca.Widget again
		"r/d_good.crysl": {Data: []byte(strings.Replace(specSrc, "gca.Widget", "gca.Gadget", 1))},
	}
	set, err := LoadFS(fsys, "r")
	if err == nil {
		t.Fatal("want aggregated errors, got nil")
	}
	msg := err.Error()
	if !strings.Contains(msg, "a_bad.crysl") {
		t.Errorf("parse failure of a_bad.crysl not surfaced: %v", err)
	}
	if !strings.Contains(msg, "duplicate rule for gca.Widget") {
		t.Errorf("duplicate SPEC not surfaced: %v", err)
	}
	// The first duplicate (sorted path order) and the good rule load.
	if set.Len() != 2 {
		t.Errorf("partial set has %d rules, want 2", set.Len())
	}
	if _, ok := set.Get("gca.Widget"); !ok {
		t.Error("first gca.Widget variant missing from partial set")
	}
	if _, ok := set.Get("gca.Gadget"); !ok {
		t.Error("gca.Gadget missing from partial set")
	}
}

// TestLoadFSParallelDeterminism: the fan-out loader must produce exactly
// the set a sequential load would — same insertion order, same
// fingerprint — on every load.
func TestLoadFSParallelDeterminism(t *testing.T) {
	fsys := fstest.MapFS{}
	names := []string{"Widget", "Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta", "Eta", "Theta", "Iota"}
	for _, n := range names {
		fsys["r/"+n+".crysl"] = &fstest.MapFile{
			Data: []byte(strings.Replace(specSrc, "gca.Widget", "gca."+n, 1)),
		}
	}
	first, err := LoadFS(fsys, "r")
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := first.Types()
	wantFP := first.Fingerprint()
	for i := 0; i < 8; i++ {
		set, err := LoadFS(fsys, "r")
		if err != nil {
			t.Fatal(err)
		}
		if got := set.Fingerprint(); got != wantFP {
			t.Fatalf("load %d: fingerprint %s != %s", i, got, wantFP)
		}
		types := set.Types()
		for j := range wantTypes {
			if types[j] != wantTypes[j] {
				t.Fatalf("load %d: order %v != %v", i, types, wantTypes)
			}
		}
	}
}

func TestParseRuleSemanticFailure(t *testing.T) {
	_, err := ParseRule("x", "SPEC T\nEVENTS\n c: New(ghost);\n")
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("semantic failure not propagated: %v", err)
	}
}

// bogusOrderNode embeds a real ORDER node to satisfy the OrderExpr
// interface (isOrder is unexported) while being a kind the fsm compiler
// does not know — the shape a future AST extension would take if the
// compiler were not updated alongside it.
type bogusOrderNode struct{ *ast.OrderRef }

// TestCompileRejectsUnknownOrderNode pins the replacement of the old
// fsm panic: an unknown ORDER node kind must surface as a compile error
// from crysl.Compile — the same error path LoadFS aggregates with
// errors.Join — never as a panic.
func TestCompileRejectsUnknownOrderNode(t *testing.T) {
	a, err := parser.Parse(specSrc)
	if err != nil {
		t.Fatal(err)
	}
	a.Order = &bogusOrderNode{&ast.OrderRef{Label: "c1"}}
	r, err := Compile(a)
	if err == nil {
		t.Fatalf("Compile accepted an unknown ORDER node kind: %+v", r)
	}
	if !strings.Contains(err.Error(), "unknown order expression") {
		t.Errorf("error does not name the unknown node: %v", err)
	}
	if !strings.Contains(err.Error(), "gca.Widget") {
		t.Errorf("error does not name the rule: %v", err)
	}
}

// TestLoadFSRecoversCompilePanic: a panic while compiling one rule file
// (injected at the rule-compile fault point) degrades into that file's
// error in the errors.Join aggregate; sibling files still load.
func TestLoadFSRecoversCompilePanic(t *testing.T) {
	faultinject.Arm(faultinject.PointRuleCompile, faultinject.Fault{Mode: faultinject.ModePanic, Times: 1})
	defer faultinject.Reset()
	fsys := fstest.MapFS{
		"r/a.crysl": {Data: []byte(specSrc)},
		"r/b.crysl": {Data: []byte(strings.Replace(specSrc, "gca.Widget", "gca.Gadget", 1))},
	}
	set, err := LoadFS(fsys, "r")
	if err == nil {
		t.Fatal("injected compile panic did not surface as an error")
	}
	if !strings.Contains(err.Error(), "panic compiling") {
		t.Errorf("panic not converted to a typed per-file error: %v", err)
	}
	if set.Len() != 1 {
		t.Errorf("unaffected sibling rule should still load: %d", set.Len())
	}
}
