package gen

import (
	"errors"
	"go/token"
	"strings"

	"cognicryptgen/internal/srchash"
)

// planHeaderPrefix is the very first byte sequence of every generated
// file; the template name is spliced in immediately after it. spliceOutput
// builds the header from this constant so the two cannot drift.
const planHeaderPrefix = "// Code generated by CogniCryptGEN from "

// Plan is a precompiled generation: one full pipeline run — template
// type-check, accepting-path selection, parameter-cascade resolution, AST
// assembly, go/printer — distilled into a byte skeleton with two splice
// points, the template name in the header comment and the identifier in
// the package clause. Those are the only bytes of the output that depend
// on the request once (template source, rule set, options) is fixed:
// everything else is deterministic. Executing a Plan is therefore a
// handful of byte copies, which is what lets the daemon's warm-uncached
// path approach its cached one instead of re-running the pipeline.
//
// The splice points are sound because both sit on dedicated lines that
// gofmt reproduces verbatim: the name lives inside a line comment (whose
// text go/format never rewrites) and the package identifier stands alone
// in the clause, so substituting either cannot perturb the formatting of
// any other byte. Requests whose name or package could break that
// property are rejected by planExecutable and fall back to the pipeline.
//
// A Plan is immutable and safe for concurrent use by any number of
// goroutines.
type Plan struct {
	// Output = planHeaderPrefix + <name> + nameToPkg + <package> + afterPkg.
	nameToPkg string
	afterPkg  string
	// defaultPkg is the template's own package name, spliced when the
	// request does not override the output package.
	defaultPkg string
	// rulesFP identifies the rule-set the plan was compiled against;
	// PlanCache.Retain evicts by it when rule sets are reloaded.
	rulesFP string
}

// errNotPlannable reports an output whose shape the splicer does not
// recognise; the caller simply keeps the pipeline result and compiles no
// plan.
var errNotPlannable = errors.New("gen: output shape not plannable")

// compilePlan distils a pipeline Result into a Plan. name and
// outPkg must be the values the Result was generated under (outPkg is the
// effective output package: the override if one was set, else the
// template's own); tmplPkg is the template's own package name, kept as the
// default splice value.
func compilePlan(res *Result, name, outPkg, tmplPkg, rulesFP string) (*Plan, error) {
	out := res.Output
	if !strings.HasPrefix(out, planHeaderPrefix+name+". DO NOT EDIT.") {
		return nil, errNotPlannable
	}
	nameEnd := len(planHeaderPrefix) + len(name)
	// The first line starting "package " is the clause: every line before
	// it is a comment or blank, so matching the known identifier is exact.
	clause := "\npackage " + outPkg + "\n"
	i := strings.Index(out, clause)
	if i < nameEnd {
		return nil, errNotPlannable
	}
	pkgStart := i + len("\npackage ")
	return &Plan{
		nameToPkg:  out[nameEnd:pkgStart],
		afterPkg:   out[pkgStart+len(outPkg):],
		defaultPkg: tmplPkg,
		rulesFP:    rulesFP,
	}, nil
}

// Parts returns the plan's output for one request as its five pieces: the
// header prefix, the name, the text from the name to the package clause's
// identifier, the package, and the rest of the file. Their concatenation is
// the output; the daemon writes them into its response as they are. name
// and pkg follow GenerateFileCtx semantics: name is the template's
// diagnostic name and pkg overrides the output package ("" keeps the
// template's own). The caller must have vetted the pair with
// planExecutable.
func (p *Plan) Parts(name, pkg string) [5]string {
	if pkg == "" {
		pkg = p.defaultPkg
	}
	return [5]string{planHeaderPrefix, name, p.nameToPkg, pkg, p.afterPkg}
}

// Execute renders the plan for one request: the join of Parts. The Result
// carries the output alone: a plan keeps no generation report.
func (p *Plan) Execute(name, pkg string) *Result {
	parts := p.Parts(name, pkg)
	return &Result{Output: strings.Join(parts[:], "")}
}

// size approximates the plan's resident bytes for the cache's
// plan_bytes metric.
func (p *Plan) size() int64 {
	const overhead = 256 // struct and cache bookkeeping
	return int64(len(p.nameToPkg) + len(p.afterPkg) + len(p.defaultPkg) + overhead)
}

// planExecutable reports whether a request's (name, package override) can
// be served by byte splicing alone. Anything that could change gofmt's
// output beyond the two spliced identifiers — a newline in the name that
// would break the header comment, surrounding whitespace the formatter
// might see at a line boundary, a package override that is not a Go
// identifier (the pipeline rejects those at format time) — falls
// back to the full pipeline instead.
func planExecutable(name, pkg string) bool {
	if name == "" || strings.ContainsAny(name, "\n\r") || strings.TrimSpace(name) != name {
		return false
	}
	if pkg != "" && !token.IsIdentifier(pkg) {
		return false
	}
	return true
}

// planKey identifies one compiled plan: the template source hash, the
// rule-set fingerprint and the verify option, the tuple wire.CacheKey
// hashes. Name and PackageName are deliberately absent: both are plan
// splice points, which is precisely why a stream of distinct-name requests
// over one template body collapses onto a single plan. The other options
// that change the bytes are not in the key because only the default
// algorithm uses the cache (see planDefault).
type planKey struct {
	src    [32]byte
	rules  string
	verify bool
}

func newPlanKey(rulesFP, src string, verify bool) planKey {
	return planKey{src: srchash.Sum(src), rules: rulesFP, verify: verify}
}

// planDefault reports whether o selects the default algorithm: no ablation
// switch and the default path bound. Only such generations read or write a
// PlanCache; an ablation run always takes the pipeline.
func planDefault(o Options) bool {
	return !o.NoLinkPreference && !o.NoDerivation && !o.NoBindingFilter &&
		(o.MaxPaths == 0 || o.MaxPaths == DefaultMaxPaths)
}
