// Package gen implements CogniCryptGEN, the CrySL-driven secure code
// generator of the CGO 2020 paper, for Go.
//
// Given a code template (a Go file whose methods contain fluent chains,
// see package cognicryptgen/gen/fluent) and a compiled GoCrySL rule set,
// the generator:
//
//  1. collects the rules and their template bindings from each fluent
//     chain (workflow step ①),
//  2. links rules through ENSURES/REQUIRES predicates (step ②),
//  3. enumerates accepting call paths from each rule's ORDER automaton and
//     selects one per rule — preferring paths that consume predicate links,
//     then the shortest path with the fewest parameters (step ③),
//  4. resolves each call parameter through the paper's cascade: template
//     binding → predicate-carrying generated object → constraint-derived
//     secure value → pushed-up placeholder (step ④), and
//  5. splices the assembled, error-handled Go statements over the fluent
//     chain, appends calls that would NEGATE predicates to the end of the
//     block, and synthesizes a TemplateUsage function (step ⑤).
//
// The output is parsed once and printed as gofmt would and, when
// Options.Verify is set, that same parsed file is type-checked against the
// module with go/types, realising the paper's guarantee that generated code
// is syntactically valid and type-correct.
package gen

import (
	"cmp"
	"context"
	"fmt"
	"go/types"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"cognicryptgen/crysl"
	"cognicryptgen/crysl/ast"
	"cognicryptgen/crysl/constraint"
	"cognicryptgen/internal/faultinject"
	"cognicryptgen/internal/srccheck"
)

// DefaultMaxPaths is the per-rule bound on accepting-path enumeration
// applied when Options.MaxPaths is zero. Long-lived processes that warm a
// PathCache (the service registry) must use the same bound, or the warmed
// entries are never hit by default-option Generators.
const DefaultMaxPaths = 512

// Options configures a Generator.
type Options struct {
	// PackageName overrides the output package name ("" keeps the
	// template's).
	PackageName string
	// Verify type-checks the generated file against the module.
	Verify bool
	// MaxPaths bounds accepting-path enumeration per rule (0 = 512).
	MaxPaths int
	// Paths, when non-nil, memoizes per-rule accepting-path enumeration.
	// A single PathCache may be shared by many Generators over the same
	// immutable rule set (see NewPathCache); the service registry builds
	// one per loaded rule set, so paths are enumerated once per rule set,
	// not once per generation.
	Paths *PathCache
	// Plans, when non-nil, memoizes whole generations as compiled Plans
	// (see PlanCache): the first generation of a (template source, rule
	// set, verify) tuple runs the full pipeline and compiles a byte
	// skeleton; every later one — regardless of template name or package
	// override, which are splice points — executes in a handful of byte
	// copies. One PlanCache is meant to be shared by many Generators, and
	// across rule sets; it is internally synchronized. A plan keeps no
	// generation report, so a plan hit's Result has a nil Report; only the
	// compiling run (and any run without Plans) returns one. A plan keeps
	// no request source either.
	// A Generator with any ablation switch set or a MaxPaths other than
	// DefaultMaxPaths ignores Plans.
	Plans *PlanCache

	// Ablation switches (all default off = full algorithm). They exist for
	// the E7 ablation benchmarks documented in DESIGN.md.
	NoLinkPreference bool // ignore predicate links when ranking paths
	NoDerivation     bool // disable constraint-derived values (cascade step c)
	NoBindingFilter  bool // do not require paths to cover template bindings
}

// Generator turns code templates into secure implementations.
//
// A Generator and its WithOptions derivatives are safe for concurrent use:
// a generation keeps its state (the chain's object pool among it) in
// per-call values, and a Generator is never mutated after New. What it
// reads is safe to share too: a compiled *crysl.RuleSet is immutable after
// loading (rules, events, aggregates, objects, and DFAs are built once and
// only read afterwards), a *PathCache and a *PlanCache are internally
// synchronized, and the type-checked package universe behind its
// srccheck.Checker is a process-wide concurrency-safe cache shared by
// every Generator of the same module root. A server therefore builds one
// Generator per rule set and calls it from every goroutine;
// TestConcurrentGeneration enforces this with the race detector.
type Generator struct {
	rules   *crysl.RuleSet
	checker *srccheck.Checker
	api     *apiModel
	opts    Options
	// rulesFP is rules.Fingerprint(), hashed on first use and shared with
	// every WithOptions derivative: the rule-set half of the plan key.
	rulesFP func() string
}

// New creates a Generator over the rule set. The module is located from
// dir ("" = working directory) so that templates and generated code can be
// type-checked against it.
//
// The first Generator in a process pays the one-time cost of source-
// importing the crypto façade and the API of its standard-library imports
// (~0.11 s on a 2-CPU Xeon, go1.24: BenchmarkUniverseWarm in
// internal/srccheck, and the first New that TestSecondGeneratorReusesUniverse
// logs); the type-checked packages land in srccheck's process-wide shared
// universe, so every subsequent New over the same module constructs in
// well under a millisecond. Daemon workers and repeated single-shot
// constructions share that warm-up instead of each paying it.
func New(ruleSet *crysl.RuleSet, dir string, opts Options) (*Generator, error) {
	checker, err := srccheck.NewChecker(dir)
	if err != nil {
		return nil, err
	}
	gcaPkg, err := checker.ImportPackage(srccheck.ModulePath + "/gca")
	if err != nil {
		return nil, fmt.Errorf("gen: loading crypto façade: %w", err)
	}
	if opts.MaxPaths == 0 {
		opts.MaxPaths = DefaultMaxPaths
	}
	return &Generator{
		rules:   ruleSet,
		checker: checker,
		api:     buildAPIModel(gcaPkg),
		opts:    opts,
		rulesFP: sync.OnceValue(ruleSet.Fingerprint),
	}, nil
}

// Rules returns the generator's rule set.
func (g *Generator) Rules() *crysl.RuleSet { return g.rules }

// WithOptions returns a Generator sharing this one's compiled rule set,
// type-checker, and API model, but running under opts. Construction is
// O(1), which lets a server keep one base Generator per rule set and
// derive per-request variants (package name override, verification on/off)
// for free. Like the base, the derived Generator is safe for concurrent
// use, alongside the base and every other derivative.
func (g *Generator) WithOptions(opts Options) *Generator {
	if opts.MaxPaths == 0 {
		opts.MaxPaths = DefaultMaxPaths
	}
	return &Generator{
		rules:   g.rules,
		checker: g.checker,
		api:     g.api,
		opts:    opts,
		rulesFP: g.rulesFP,
	}
}

// Result is the outcome of generating one template.
type Result struct {
	// Output is the complete generated Go source file.
	Output string
	// Report records the decisions taken during generation. It is nil on
	// a plan hit (see Options.Plans): the splice takes no decisions.
	Report *Report
}

// Report collects diagnostics of a generation run (selected paths,
// parameter resolutions, recorded assumptions, pushed-up parameters).
type Report struct {
	Template    string
	Methods     []*MethodReport
	Assumptions []string
	PushedUp    []string
	Duration    time.Duration
}

// MethodReport records per-method generation decisions.
type MethodReport struct {
	Name  string
	Rules []*RuleReport
}

// RuleReport records the decisions for one rule invocation.
type RuleReport struct {
	Rule        string
	Path        []string
	Resolutions []string
}

// PanicError reports a panic recovered inside the generation pipeline. The
// pipeline walks adversarial inputs (arbitrary template source through
// go/parser, go/types, and the splicer), so a latent indexing bug is a
// per-request failure, not a process failure: GenerateFileCtx converts the
// panic into this typed error carrying the template name, the recovered
// value, and the stack captured at the panic site.
type PanicError struct {
	Template string
	Value    any
	Stack    []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("gen: panic generating %s: %v", e.Template, e.Value)
}

// RefusalError reports a rule invocation the generator declined rather
// than emit code that would not compile: no accepting path covers the
// invocation's template bindings and return object (Path is nil), or,
// under NoBindingFilter, the selected path leaves template bindings unused
// (Path is that path).
type RefusalError struct {
	Rule      string   // spec type of the invoked rule
	Path      []string // selected path, nil when no path was selectable
	Bindings  []string // template bindings left uncovered, sorted
	ReturnObj string   // the invocation's return object, "" when none
}

func (e *RefusalError) Error() string {
	if e.Path == nil {
		return fmt.Sprintf("no accepting path covers the template bindings %v and return object %q", e.Bindings, e.ReturnObj)
	}
	return fmt.Sprintf("selected path %v leaves the template bindings %v unused", e.Path, e.Bindings)
}

// GenerateFile runs the full pipeline on template source text. name is
// used for diagnostics only.
func (g *Generator) GenerateFile(name, src string) (*Result, error) {
	return g.GenerateFileCtx(context.Background(), name, src)
}

// GenerateFileCtx is GenerateFile with cooperative cancellation: ctx is
// checked between workflow steps (before template type-checking, before
// each chain, before usage synthesis, and, once the output is printed,
// before output verification type-checks the tree it was printed from), so
// a request cancelled or expired mid-flight stops consuming its worker at
// the next step boundary instead of running the pipeline to completion. The
// returned error wraps ctx.Err() and satisfies errors.Is against
// context.Canceled / context.DeadlineExceeded.
func (g *Generator) GenerateFileCtx(ctx context.Context, name, src string) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &PanicError{Template: name, Value: r, Stack: debug.Stack()}
		}
	}()
	if ferr := faultinject.Fire(faultinject.PointGenerate); ferr != nil {
		return nil, fmt.Errorf("gen: %s: %w", name, ferr)
	}
	start := time.Now()

	// Plan fast path: one earlier generation of this (template source,
	// rule set, verify) tuple makes this one a byte splice. Requests the
	// splicer cannot serve exactly (see planExecutable) take the
	// pipeline below, whose result then seeds the cache; ablation runs
	// (see planDefault) take it without touching the cache.
	plannable := g.opts.Plans != nil && planDefault(g.opts) && planExecutable(name, g.opts.PackageName)
	var key planKey
	var rulesFP string
	if plannable {
		rulesFP = g.rulesFP()
		key = newPlanKey(rulesFP, src, g.opts.Verify)
		if p, ok := g.opts.Plans.lookup(key); ok {
			return p.Execute(name, g.opts.PackageName), nil
		}
	}

	res, tmplPkg, err := g.generate(ctx, name, src, start)
	if err != nil {
		return nil, err
	}
	if plannable {
		outPkg := g.opts.PackageName
		if outPkg == "" {
			outPkg = tmplPkg
		}
		if p, cerr := compilePlan(res, name, outPkg, tmplPkg, rulesFP); cerr == nil {
			g.opts.Plans.put(key, p)
		}
	}
	return res, nil
}

// generate is the plan-free pipeline: workflow steps ① through ⑤
// plus optional output verification. It additionally returns the
// template's own package name so the caller can compile a Plan.
func (g *Generator) generate(ctx context.Context, name, src string, start time.Time) (*Result, string, error) {
	if err := cancelled(ctx, name, "template type-check"); err != nil {
		return nil, "", err
	}
	file, pkg, info, err := g.checker.CheckSource(name, src)
	if err != nil {
		return nil, "", fmt.Errorf("gen: template %s does not type-check: %w", name, err)
	}
	// The Template reads info until generate returns; the Result keeps
	// only strings, so the Info's maps can go to the next check.
	defer g.checker.Release(file)
	defer g.checker.Recycle(info)
	tmpl, err := scanTemplate(name, src, file, g.checker.Fset, pkg, info)
	if err != nil {
		return nil, "", err
	}
	report := &Report{Template: name}

	replacements := map[int][2]int{} // keyed by start offset -> [end, idx into texts]
	var texts []string
	for _, m := range tmpl.Methods {
		mr := &MethodReport{Name: m.Decl.Name.Name}
		report.Methods = append(report.Methods, mr)
		methodNames := newNames(m) // shared across the method's chains
		for _, chain := range m.Chains {
			if err := cancelled(ctx, name, "chain generation"); err != nil {
				return nil, "", err
			}
			code, err := g.generateChain(tmpl, m, chain, methodNames, mr, report)
			if err != nil {
				return nil, "", fmt.Errorf("gen: %s.%s: %w", tmpl.StructName, m.Decl.Name.Name, err)
			}
			startOff := g.checker.Fset.Position(chain.Stmt.Pos()).Offset
			endOff := g.checker.Fset.Position(chain.Stmt.End()).Offset
			replacements[startOff] = [2]int{endOff, len(texts)}
			texts = append(texts, code)
		}
	}

	if err := cancelled(ctx, name, "usage synthesis"); err != nil {
		return nil, "", err
	}
	usage, err := g.synthesizeUsage(tmpl)
	if err != nil {
		return nil, "", err
	}
	out, outFile, err := g.spliceOutput(tmpl, replacements, texts, usage)
	if err != nil {
		return nil, "", err
	}
	defer g.checker.Release(outFile)
	if g.opts.Verify {
		if err := cancelled(ctx, name, "output verification"); err != nil {
			return nil, "", err
		}
		if err := g.verifyOutput(name, out, outFile); err != nil {
			return nil, "", err
		}
	}
	report.Duration = time.Since(start)
	return &Result{Output: out, Report: report}, tmpl.File.Name.Name, nil
}

// cancelled maps an expired context to a diagnosable error naming the
// workflow step that was about to run.
func cancelled(ctx context.Context, name, step string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("gen: %s: cancelled before %s: %w", name, step, err)
	}
	return nil
}

// link is an ENSURES→REQUIRES connection between two invocations of a
// chain (workflow step ②).
type link struct {
	producer, consumer int
	pred               string
	consumerVar        string // rule variable on the consumer side
}

// computeLinks walks invocation pairs i<j and connects predicates a
// producer can grant to predicates a consumer requires, matching on
// predicate name and declared-type compatibility. A REQUIRES only
// participates when the required object appears on at least one path the
// consumer could feasibly select (given its bindings and return object) —
// CrySL requirements are conditional on the object actually being used.
func (g *Generator) computeLinks(tmpl *Template, m *TemplateMethod, chain *Chain) []link {
	var links []link
	for j, cinv := range chain.Invocations {
		crule, ok := g.rules.Get(cinv.RuleName)
		if !ok {
			continue
		}
		feasibleVars := g.feasibleVars(tmpl, m, crule, cinv)
		for _, req := range crule.AST.Requires {
			if len(req.Params) == 0 {
				continue
			}
			if !req.Params[0].This && !req.Params[0].Wildcard && !feasibleVars[req.Params[0].Name] {
				continue
			}
			// Determine the declared type of the required object.
			var declType ast.Type
			target := req.Params[0]
			switch {
			case target.This:
				declType = ast.Type{Name: crule.SpecType()}
			case target.Wildcard:
				continue
			default:
				obj, ok := crule.Objects[target.Name]
				if !ok {
					continue
				}
				declType = obj.Type
			}
			// Nearest earlier producer that ENSURES the predicate on a
			// compatible object.
			for i := j - 1; i >= 0; i-- {
				pinv := chain.Invocations[i]
				prule, ok := g.rules.Get(pinv.RuleName)
				if !ok {
					continue
				}
				if g.canGrant(prule, req.Name, declType) {
					cv := ""
					if !target.This {
						cv = target.Name
					}
					links = append(links, link{producer: i, consumer: j, pred: req.Name, consumerVar: cv})
					break
				}
			}
		}
	}
	return links
}

// feasibleVars returns the rule variables referenced by at least one
// accepting path that survives the consumer's candidate filter.
func (g *Generator) feasibleVars(tmpl *Template, m *TemplateMethod, rule *crysl.Rule, inv *Invocation) map[string]bool {
	out := map[string]bool{}
	for _, p := range g.acceptingPaths(rule) {
		if !g.candidatePath(tmpl, m, rule, p, inv) {
			continue
		}
		for _, label := range p {
			if ev, ok := rule.Event(label); ok {
				for _, prm := range ev.Params {
					if !prm.Wildcard {
						out[prm.Name] = true
					}
				}
			}
		}
	}
	return out
}

// candidatePath is the one filter on an invocation's accepting paths: the
// path must cover the template's bindings (unless NoBindingFilter) and its
// return object.
func (g *Generator) candidatePath(tmpl *Template, m *TemplateMethod, rule *crysl.Rule, path []string, inv *Invocation) bool {
	if !g.opts.NoBindingFilter && !pathCoversBindings(rule, path, inv) {
		return false
	}
	return g.pathCoversReturn(tmpl, m, rule, path, inv)
}

// pathCoversReturn checks that, when the invocation designates a return
// object, the path produces a value assignable to it (either an event
// result or the constructed object itself).
func (g *Generator) pathCoversReturn(tmpl *Template, m *TemplateMethod, rule *crysl.Rule, path []string, inv *Invocation) bool {
	if inv.ReturnObj == "" {
		return true
	}
	identType, ok := m.VarTypes[inv.ReturnObj]
	if !ok {
		return false
	}
	specName := g.api.unqualify(rule.SpecType())
	for _, label := range path {
		ev, ok := rule.Event(label)
		if !ok {
			continue
		}
		if shape, isCtor := g.api.constructorFor(ev.Method, specName); isCtor {
			if shape.value != nil && types.AssignableTo(shape.value, identType) {
				return true
			}
			continue
		}
		if ev.Result == "" || ev.Result == "this" {
			continue
		}
		if shape, ok := g.api.methodOn(specName, ev.Method); ok && shape.value != nil && types.AssignableTo(shape.value, identType) {
			return true
		}
	}
	return false
}

// canGrant reports whether a rule's ENSURES section can grant pred on an
// object compatible with declType.
func (g *Generator) canGrant(rule *crysl.Rule, pred string, declType ast.Type) bool {
	for _, e := range rule.AST.Ensures {
		if e.Name != pred || len(e.Params) == 0 {
			continue
		}
		var producedType ast.Type
		p := e.Params[0]
		switch {
		case p.This:
			producedType = ast.Type{Name: rule.SpecType()}
		case p.Wildcard:
			return true
		default:
			obj, ok := rule.Objects[p.Name]
			if !ok {
				continue
			}
			producedType = obj.Type
		}
		if g.crySLTypeCompatible(producedType, declType) {
			return true
		}
	}
	return false
}

// crySLTypeCompatible reports whether an object of type 'from' can fill a
// slot declared as type 'to', honouring the gca supertype table.
func (g *Generator) crySLTypeCompatible(from, to ast.Type) bool {
	if from == to {
		return true
	}
	if from.Slice != to.Slice {
		return false
	}
	if from.IsNamed() && to.IsNamed() {
		for _, super := range g.api.supertypes[from.Name] {
			if super == to.Name {
				return true
			}
		}
	}
	return false
}

// sortPaths ranks candidate paths: link score descending (paths that
// consume required predicates and grant predicates later rules rely on,
// workflow steps ②③), then fewest calls, then fewest parameters, then
// lexicographic (stability). Each candidate's sort key is computed once,
// not once per comparison.
func (g *Generator) sortPaths(rule *crysl.Rule, paths [][]string, wantVars, wantGrants map[string]bool) {
	if len(paths) < 2 {
		return
	}
	type ranked struct {
		path          []string
		score, params int
	}
	rs := make([]ranked, len(paths))
	// The variables consumed and predicates granted so far on one path,
	// each counted once: a handful at most, so slices reused per path.
	var varBuf, grantBuf [8]string
	seenVars, seenGrants := varBuf[:0], grantBuf[:0]
	for i, p := range paths {
		r := ranked{path: p}
		seenVars, seenGrants = seenVars[:0], seenGrants[:0]
		for _, label := range p {
			ev, ok := rule.Event(label)
			if ok {
				r.params += len(ev.Params)
			}
			if g.opts.NoLinkPreference {
				continue
			}
			if ok {
				for _, prm := range ev.Params {
					if wantVars[prm.Name] && !slices.Contains(seenVars, prm.Name) {
						seenVars = append(seenVars, prm.Name)
						r.score++
					}
				}
			}
			for _, pd := range rule.EnsuredAfter(label) {
				if wantGrants[pd.Name] && !slices.Contains(seenGrants, pd.Name) {
					seenGrants = append(seenGrants, pd.Name)
					r.score++
				}
			}
		}
		rs[i] = r
	}
	slices.SortStableFunc(rs, func(a, b ranked) int {
		return cmp.Or(
			cmp.Compare(b.score, a.score),
			cmp.Compare(len(a.path), len(b.path)),
			cmp.Compare(a.params, b.params),
			compareJoined(a.path, b.path))
	})
	for i := range rs {
		paths[i] = rs[i].path
	}
}

// compareJoined compares strings.Join(a, ",") with strings.Join(b, ",")
// without building either string, except when one differing label is a
// prefix of the other: then the bytes after it decide, and the joined
// remainders are compared.
func compareJoined(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] == b[i] {
			continue
		}
		if n := min(len(a[i]), len(b[i])); a[i][:n] != b[i][:n] {
			return strings.Compare(a[i][:n], b[i][:n])
		}
		return strings.Compare(strings.Join(a[i:], ","), strings.Join(b[i:], ","))
	}
	return cmp.Compare(len(a), len(b))
}

// pathCoversBindings checks that every bound rule variable that occurs in
// some event pattern is referenced by at least one event on the path.
func pathCoversBindings(rule *crysl.Rule, path []string, inv *Invocation) bool {
	for v := range inv.Bindings {
		if !bindingCovered(rule, path, v) {
			return false
		}
	}
	return true
}

// uncoveredBindings returns, sorted, the bound rule variables that path
// leaves unreferenced (see bindingCovered).
func uncoveredBindings(rule *crysl.Rule, path []string, inv *Invocation) []string {
	var out []string
	for _, v := range bindingVars(inv) {
		if !bindingCovered(rule, path, v) {
			out = append(out, v)
		}
	}
	return out
}

// bindingCovered reports whether an event on path references the bound
// rule variable v. "this" and variables that occur in no event pattern
// (constraint-only ones) need no reference.
func bindingCovered(rule *crysl.Rule, path []string, v string) bool {
	if v == "this" {
		return true
	}
	appearsInRule := false
	for _, ev := range rule.Events {
		for _, p := range ev.Params {
			if p.Name == v {
				appearsInRule = true
			}
		}
		if ev.Result == v {
			appearsInRule = true
		}
	}
	if !appearsInRule {
		return true // constraint-only variable; nothing to cover
	}
	for _, label := range path {
		ev, ok := rule.Event(label)
		if !ok {
			continue
		}
		if ev.Result == v {
			return true
		}
		for _, p := range ev.Params {
			if p.Name == v {
				return true
			}
		}
	}
	return false
}

// evalConstraints evaluates every rule constraint under env (with Called
// reflecting the chosen path) and returns the violated ones.
func evalConstraints(rule *crysl.Rule, env *constraint.Env) []string {
	var violations []string
	for _, c := range rule.AST.Constraints {
		if constraint.Eval(c, env) == constraint.False {
			violations = append(violations, c.String())
		}
	}
	return violations
}

// calledSet expands a path's labels for CallTo evaluation: both the
// concrete labels and any aggregates containing them are marked called.
func calledSet(rule *crysl.Rule, path []string) map[string]bool {
	called := map[string]bool{}
	for _, label := range path {
		called[label] = true
	}
	for agg, members := range rule.Aggregates {
		for _, m := range members {
			if called[m] {
				called[agg] = true
				break
			}
		}
	}
	return called
}
