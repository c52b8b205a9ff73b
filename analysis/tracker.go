package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"cognicryptgen/crysl"
	crylAst "cognicryptgen/crysl/ast"
	"cognicryptgen/crysl/constraint"
)

// trackedObject is the typestate of one local specced object.
type trackedObject struct {
	rule    *crysl.Rule
	state   int   // current DFA state (DFA simulation mode)
	nfaSet  []int // current NFA state set (NFA simulation mode)
	dead    bool  // an invalid transition happened; stop reporting more
	escaped bool  // returned / stored / passed out — suppress incompleteness
	fresh   bool  // created locally by a constructor call
	env     *constraint.Env
	labels  map[string]bool // event labels observed
	pos     token.Position  // creation site
}

// funcAnalysis analyses one function body.
type funcAnalysis struct {
	a      *Analyzer
	info   *types.Info
	report *Report
	fn     *ast.FuncDecl

	tracked map[types.Object]*trackedObject
	// preds tracks predicates granted to plain variables (salts, IVs, keys
	// flowing between rule objects).
	preds map[types.Object]map[string]bool
	// lens records known make([]byte, N) lengths per variable.
	lens map[types.Object]int
	// fresh marks variables whose value is a locally created allocation
	// (make, composite literal) or the zero value of a var declaration
	// without one — predicates required on them are definite findings, not
	// assumptions. Assigning a value that is not fresh clears the mark.
	fresh map[types.Object]bool
	// summaries holds the predicates other functions in the file set grant
	// on their results (nil during the summary-computation pass).
	summaries map[types.Object]*funcSummary
	// summaryOut, when non-nil, receives this function's own summary.
	summaryOut *funcSummary
	// returned records (result index, variable) pairs of return statements.
	returned []returnedVar
}

type returnedVar struct {
	index int
	obj   types.Object
}

func (fa *funcAnalysis) run() {
	fa.fresh = map[types.Object]bool{}
	fa.walkStmts(fa.fn.Body.List)
	fa.finish()
}

func (fa *funcAnalysis) findingf(kind Kind, rule string, pos token.Pos, format string, args ...any) {
	fa.report.Findings = append(fa.report.Findings, Finding{
		Kind:     kind,
		Pos:      fa.a.checker.Fset.Position(pos),
		Rule:     rule,
		Function: fa.fn.Name.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (fa *funcAnalysis) assumef(format string, args ...any) {
	fa.report.Assumptions = append(fa.report.Assumptions, fmt.Sprintf(format, args...))
}

// walkStmts processes statements in source order. Branches of conditionals
// and loop bodies are analysed linearly — a deliberate simplification that
// matches the shape of generated code and typical crypto snippets.
func (fa *funcAnalysis) walkStmts(stmts []ast.Stmt) {
	for _, stmt := range stmts {
		fa.walkStmt(stmt)
	}
}

func (fa *funcAnalysis) walkStmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		fa.handleAssign(s)
	case *ast.ExprStmt:
		fa.handleExpr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							fa.recordInit(name, vs.Values[i])
							fa.handleExpr(vs.Values[i])
						} else if len(vs.Values) == 0 {
							// A zero value is as local as an allocation: an
							// all-zero IV, a nil key.
							if obj := fa.info.Defs[name]; obj != nil {
								fa.fresh[obj] = true
							}
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for i, r := range s.Results {
			if obj := fa.varOf(r); obj != nil {
				fa.returned = append(fa.returned, returnedVar{index: i, obj: obj})
			}
			fa.markEscape(r)
			fa.handleExpr(r)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			fa.walkStmt(s.Init)
		}
		fa.handleExpr(s.Cond)
		fa.walkStmts(s.Body.List)
		if s.Else != nil {
			fa.walkStmt(s.Else)
		}
	case *ast.BlockStmt:
		fa.walkStmts(s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			fa.walkStmt(s.Init)
		}
		fa.walkStmts(s.Body.List)
	case *ast.RangeStmt:
		fa.walkStmts(s.Body.List)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				fa.walkStmts(cc.Body)
			}
		}
	case *ast.DeferStmt:
		fa.handleExpr(s.Call)
	case *ast.GoStmt:
		fa.handleExpr(s.Call)
	}
}

// recordInit notes allocation freshness and known byte lengths of a
// variable initialisation.
func (fa *funcAnalysis) recordInit(name *ast.Ident, value ast.Expr) {
	obj := fa.info.Defs[name]
	if obj == nil {
		obj = fa.info.Uses[name]
	}
	if obj == nil {
		return
	}
	switch v := value.(type) {
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) >= 2 {
			fa.fresh[obj] = true
			if tv, ok := fa.info.Types[v.Args[1]]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
				if n, ok := constant.Int64Val(tv.Value); ok {
					fa.lens[obj] = int(n)
				}
			}
		}
	case *ast.CompositeLit:
		fa.fresh[obj] = true
		if _, ok := fa.info.Types[v].Type.Underlying().(*types.Slice); ok {
			fa.lens[obj] = len(v.Elts)
		}
	case *ast.Ident:
		src := fa.info.Uses[v]
		if _, ok := src.(*types.Nil); ok {
			// nil is a zero value, as local as an allocation.
			fa.fresh[obj] = true
			break
		}
		// Alias: inherit freshness, length, predicates.
		if src != nil {
			if fa.fresh[src] {
				fa.fresh[obj] = true
			}
			if n, ok := fa.lens[src]; ok {
				fa.lens[obj] = n
			}
			if p, ok := fa.preds[src]; ok {
				fa.preds[obj] = p
			}
			if t, ok := fa.tracked[src]; ok {
				fa.tracked[obj] = t
			}
		}
	}
}

func (fa *funcAnalysis) handleAssign(s *ast.AssignStmt) {
	for i, rhs := range s.Rhs {
		lhs := s.Lhs
		if len(s.Lhs) == len(s.Rhs) {
			lhs = s.Lhs[i : i+1]
		}
		if call, ok := rhs.(*ast.CallExpr); ok {
			fa.handleCall(call, lhs)
			continue
		}
		fa.handleExpr(rhs)
		fa.forget(lhs)
	}
	// Then record freshness/lengths/aliases: an assigned variable stays
	// fresh only if recordInit finds its new value fresh.
	for _, l := range s.Lhs {
		if obj := fa.varOf(l); obj != nil {
			delete(fa.fresh, obj)
		}
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				fa.recordInit(id, s.Rhs[i])
			}
		}
	}
}

// forget drops the predicates of the plain variables that lhs assigns:
// their old values go, and a reassigned variable carries only what its
// new value is granted.
func (fa *funcAnalysis) forget(lhs []ast.Expr) {
	for _, l := range lhs {
		if obj := fa.varOf(l); obj != nil {
			delete(fa.preds, obj)
		}
	}
}

func (fa *funcAnalysis) handleExpr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fa.handleCall(call, nil)
			return false
		}
		return true
	})
}

// varOf resolves an expression to the variable it denotes, if any.
func (fa *funcAnalysis) varOf(e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := fa.info.Uses[e]; obj != nil {
			return obj
		}
		return fa.info.Defs[e]
	case *ast.ParenExpr:
		return fa.varOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return fa.varOf(e.X)
		}
	}
	return nil
}

// markEscape flags tracked objects leaving the function.
func (fa *funcAnalysis) markEscape(e ast.Expr) {
	if obj := fa.varOf(e); obj != nil {
		if t, ok := fa.tracked[obj]; ok {
			t.escaped = true
		}
	}
}

// isGCAFunc resolves a call to a gca package function, returning its name.
func (fa *funcAnalysis) isGCAFunc(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if pn, ok := fa.info.Uses[id].(*types.PkgName); ok && pn.Imported() == fa.a.gcaPkg {
		return sel.Sel.Name, true
	}
	return "", false
}

// isGCAMethod resolves a call to a method on a gca type, returning the
// receiver expression and method name.
func (fa *funcAnalysis) isGCAMethod(call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	selInfo, found := fa.info.Selections[sel]
	if !found || selInfo.Kind() != types.MethodVal {
		return nil, "", false
	}
	fn, isFn := selInfo.Obj().(*types.Func)
	if !isFn || fn.Pkg() != fa.a.gcaPkg {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

func (fa *funcAnalysis) handleCall(call *ast.CallExpr, lhs []ast.Expr) {
	// Recurse into argument sub-calls first (inner calls execute first).
	for _, arg := range call.Args {
		fa.handleExpr(arg)
	}

	// Each branch checks the call's REQUIRES on its arguments first, then
	// forgets what the assigned variables carried, then grants the call's
	// results to them: `iv = f(iv)` checks the old iv and keeps only what
	// f grants the new one.
	if name, ok := fa.isGCAFunc(call); ok {
		t := fa.handleConstructorCall(call, name)
		fa.forget(lhs)
		if t != nil && len(lhs) > 0 {
			if obj := fa.varOf(lhs[0]); obj != nil {
				fa.tracked[obj] = t
			}
		}
		return
	}
	if recv, method, ok := fa.isGCAMethod(call); ok {
		t, labels := fa.handleMethodCall(call, recv, method)
		fa.forget(lhs)
		if t != nil && len(lhs) > 0 {
			fa.bindResults(t, labels, lhs)
		}
		return
	}
	fa.forget(lhs)
	// clear(x) and copy(x, src) write through x in place: whatever x's
	// old contents were granted is gone, though x itself is not assigned.
	// copy's source is only read and keeps its predicates.
	if b := fa.builtinName(call); (b == "clear" || b == "copy") && len(call.Args) > 0 {
		fa.forget([]ast.Expr{unslice(call.Args[0])})
		return
	}
	// Same-package call with a summary: its result predicates flow to the
	// assigned variables.
	if fa.summaries != nil {
		if sum := fa.summaryFor(call); sum != nil {
			for i, l := range lhs {
				preds, ok := sum.results[i]
				if !ok {
					continue
				}
				if obj := fa.varOf(l); obj != nil {
					for pred := range preds {
						fa.grantVar(obj, pred)
					}
				}
			}
		}
	}
	// Unknown call: arguments escape, and a variable whose address it
	// takes may be overwritten there.
	for _, arg := range call.Args {
		fa.markEscape(arg)
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if obj := fa.varOf(u.X); obj != nil {
				delete(fa.fresh, obj)
			}
		}
	}
}

// builtinName returns the name of the builtin that call calls, or "".
func (fa *funcAnalysis) builtinName(call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := fa.info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// unslice strips slice expressions: x[i:j] writes into x's elements.
func unslice(e ast.Expr) ast.Expr {
	for {
		s, ok := ast.Unparen(e).(*ast.SliceExpr)
		if !ok {
			return e
		}
		e = s.X
	}
}

// summaryFor resolves a call to a summarised function or method of the
// analysed file set.
func (fa *funcAnalysis) summaryFor(call *ast.CallExpr) *funcSummary {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj := fa.info.Uses[fun]; obj != nil {
			return fa.summaries[obj]
		}
	case *ast.SelectorExpr:
		if sel, ok := fa.info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			return fa.summaries[sel.Obj()]
		}
	}
	return nil
}

// handleConstructorCall checks a call to a gca package function and
// returns the object it tracks for the call's result, or nil.
func (fa *funcAnalysis) handleConstructorCall(call *ast.CallExpr, name string) *trackedObject {
	// FORBIDDEN package functions.
	for _, rule := range fa.a.rules.Rules() {
		for _, forb := range rule.AST.Forbidden {
			if forb.Method != name {
				continue
			}
			if forb.HasParams && len(forb.Params) != len(call.Args) {
				continue
			}
			msg := fmt.Sprintf("call to forbidden method %s", name)
			if forb.Replacement != "" {
				if ev, ok := rule.Event(forb.Replacement); ok {
					msg += fmt.Sprintf("; use %s instead", ev.Method)
				}
			}
			fa.findingf(ForbiddenMethodError, rule.SpecType(), call.Pos(), "%s", msg)
			return nil
		}
	}

	// Constructor of a specced type?
	tv, ok := fa.info.Types[call]
	if !ok {
		return nil
	}
	resType := firstValueType(tv.Type)
	rule, ok := fa.a.ruleForType(resType)
	if !ok {
		return nil
	}
	labels := rule.LabelsForMethod(name)
	if len(labels) == 0 {
		return nil
	}
	t := &trackedObject{
		rule:   rule,
		state:  rule.DFA.Start,
		nfaSet: nil,
		fresh:  true,
		env: &constraint.Env{
			Vars:    map[string]constraint.Value{},
			Lengths: map[string]int{},
			Types:   map[string]string{},
		},
		labels: map[string]bool{},
		pos:    fa.a.checker.Fset.Position(call.Pos()),
	}
	fa.advance(t, call, name, labels, call.Args)
	return t
}

func firstValueType(t types.Type) types.Type {
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return nil
		}
		return tuple.At(0).Type()
	}
	return t
}

// handleMethodCall checks a call to a method on a gca type and returns the
// receiver's tracked object and the call's labels, whose result bindings
// grant predicates; t is nil when the receiver is not tracked or the
// method is not specced.
func (fa *funcAnalysis) handleMethodCall(call *ast.CallExpr, recv ast.Expr, method string) (t *trackedObject, labels []string) {
	if obj := fa.varOf(recv); obj != nil {
		t = fa.tracked[obj]
	}
	if t == nil {
		// Receiver from a parameter or unknown flow: analyse what we can.
		recvType := fa.info.Types[recv].Type
		if rule, ok := fa.a.ruleForType(recvType); ok {
			fa.assumef("%s: receiver of %s.%s comes from outside the function; typestate not checked", fa.fn.Name.Name, rule.Name(), method)
		}
		return nil, nil
	}
	labels = t.rule.LabelsForMethod(method)
	if len(labels) == 0 {
		return nil, nil // unspecced method
	}
	fa.advance(t, call, method, labels, call.Args)
	return t, labels
}

// advance steps the automaton, binds arguments, applies predicate effects,
// and checks REQUIRES for one event call.
func (fa *funcAnalysis) advance(t *trackedObject, call *ast.CallExpr, method string, labels []string, args []ast.Expr) {
	// Disambiguate by arity when several labels share the method.
	var label string
	var pattern *crylAst.EventPattern
	for _, l := range labels {
		ev, _ := t.rule.Event(l)
		if len(ev.Params) == len(args) {
			label, pattern = l, ev
			break
		}
	}
	if pattern == nil {
		label = labels[0]
		pattern, _ = t.rule.Event(label)
	}

	if !t.dead {
		if next, ok := fa.step(t, label); ok {
			t.state = next
		} else {
			fa.findingf(TypestateError, t.rule.SpecType(), call.Pos(),
				"call to %s not allowed here by ORDER %s", method, orderString(t.rule))
			t.dead = true
		}
	}
	t.labels[label] = true

	// Bind arguments to rule objects.
	for i, prm := range pattern.Params {
		if i >= len(args) || prm.Wildcard {
			continue
		}
		arg := args[i]
		if v, ok := constValueOf(fa.info, arg); ok {
			t.env.Vars[prm.Name] = v
		}
		if obj := fa.varOf(arg); obj != nil {
			if n, ok := fa.lens[obj]; ok {
				t.env.Lengths[prm.Name] = n
			}
		}
		if tv, ok := fa.info.Types[arg]; ok {
			if name := namedTypeName(tv.Type); name != "" {
				t.env.Types[prm.Name] = fa.a.gcaPkg.Name() + "." + name
			}
		}
		if origin := conversionOrigin(fa.info, arg); origin != "" {
			if t.env.Origins == nil {
				t.env.Origins = map[string]string{}
			}
			t.env.Origins[prm.Name] = origin
		}
		fa.checkRequires(t, prm.Name, arg, call)
	}

	// ENSURES ... after label: grant predicates.
	for _, pd := range t.rule.EnsuredAfter(label) {
		fa.grant(t, pd, pattern, args, nil)
	}
}

// step advances the automaton on label, in DFA or NFA-simulation mode
// (ablation E7; the two are equivalent, cf. the fsm property tests).
func (fa *funcAnalysis) step(t *trackedObject, label string) (int, bool) {
	if !fa.a.opts.NFASimulation {
		return t.rule.DFA.Step(t.state, label)
	}
	if t.nfaSet == nil {
		t.nfaSet = t.rule.NFA.StartSet()
	}
	next := t.rule.NFA.StepSet(t.nfaSet, label)
	if next == nil {
		return 0, false
	}
	t.nfaSet = next
	return 0, true
}

// accepting reports whether the object's current state is accepting.
func (fa *funcAnalysis) accepting(t *trackedObject) bool {
	if fa.a.opts.NFASimulation {
		if t.nfaSet == nil {
			t.nfaSet = t.rule.NFA.StartSet()
		}
		return t.rule.NFA.AcceptingSet(t.nfaSet)
	}
	return t.rule.DFA.Accepting[t.state]
}

// conversionOrigin reports the source type name when arg is a type
// conversion, e.g. []rune(s) where s is a string yields "string". This is
// what the neverTypeOf constraint inspects: the paper's §2.1 discusses why
// passwords must never have lived in immutable strings.
func conversionOrigin(info *types.Info, arg ast.Expr) string {
	call, ok := arg.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return ""
	}
	funTV, ok := info.Types[call.Fun]
	if !ok || !funTV.IsType() {
		return ""
	}
	srcTV, ok := info.Types[call.Args[0]]
	if !ok || srcTV.Type == nil {
		return ""
	}
	if b, ok := srcTV.Type.Underlying().(*types.Basic); ok {
		return b.Name()
	}
	return types.TypeString(srcTV.Type, func(p *types.Package) string { return p.Name() })
}

// checkRequires verifies REQUIRES predicates on an argument object.
func (fa *funcAnalysis) checkRequires(t *trackedObject, ruleVar string, arg ast.Expr, call *ast.CallExpr) {
	for _, req := range t.rule.AST.Requires {
		if len(req.Params) == 0 || req.Params[0].This || req.Params[0].Wildcard || req.Params[0].Name != ruleVar {
			continue
		}
		obj := fa.varOf(arg)
		if obj == nil {
			fa.assumef("%s: %s requires %s[%s]; argument is a complex expression, not verified", fa.fn.Name.Name, t.rule.Name(), req.Name, ruleVar)
			continue
		}
		if fa.preds[obj][req.Name] {
			continue
		}
		if tr, ok := fa.tracked[obj]; ok && tr.hasPred(req.Name) {
			continue
		}
		if fa.fresh[obj] {
			fa.findingf(RequiredPredicateError, t.rule.SpecType(), call.Pos(),
				"argument %q must carry predicate %s (e.g. produced by %s), but it is a plain local allocation",
				exprString(arg), req.Name, producerHint(fa.a.rules, req.Name))
			continue
		}
		fa.assumef("%s: %s requires %s on %q; value flows in from outside the function", fa.fn.Name.Name, t.rule.Name(), req.Name, exprString(arg))
	}
}

func (t *trackedObject) hasPred(name string) bool {
	if t.env == nil {
		return false
	}
	return t.selfPreds()[name]
}

// selfPreds stores predicates granted to the tracked object itself; kept
// in the env's Called map under a reserved prefix to avoid another field.
func (t *trackedObject) selfPreds() map[string]bool {
	if t.env.Called == nil {
		t.env.Called = map[string]bool{}
	}
	return t.env.Called
}

// grant applies an ENSURES predicate: to the receiver ("this"), to an
// argument variable, or to result variables (lhs non-nil).
func (fa *funcAnalysis) grant(t *trackedObject, pd *crylAst.PredicateDef, pattern *crylAst.EventPattern, args []ast.Expr, lhs []ast.Expr) {
	if len(pd.Params) == 0 {
		return
	}
	target := pd.Params[0]
	switch {
	case target.This:
		t.selfPreds()[pd.Name] = true
	case target.Wildcard:
	default:
		// Result object of the pattern?
		if pattern.Result == target.Name && lhs != nil {
			for _, l := range lhs {
				if obj := fa.varOf(l); obj != nil {
					fa.grantVar(obj, pd.Name)
				}
			}
			return
		}
		// Argument position?
		for i, prm := range pattern.Params {
			if prm.Name == target.Name && i < len(args) {
				if obj := fa.varOf(args[i]); obj != nil {
					fa.grantVar(obj, pd.Name)
				}
				return
			}
		}
	}
}

func (fa *funcAnalysis) grantVar(obj types.Object, pred string) {
	if fa.preds[obj] == nil {
		fa.preds[obj] = map[string]bool{}
	}
	fa.preds[obj][pred] = true
	if t, ok := fa.tracked[obj]; ok {
		t.selfPreds()[pred] = true
	}
}

// bindResults grants result-targeted predicates after a method call whose
// results are assigned.
func (fa *funcAnalysis) bindResults(t *trackedObject, labels []string, lhs []ast.Expr) {
	for _, label := range labels {
		if !t.labels[label] {
			continue
		}
		ev, _ := t.rule.Event(label)
		if ev.Result == "" || ev.Result == "this" {
			continue
		}
		for _, pd := range t.rule.EnsuredAfter(label) {
			if len(pd.Params) > 0 && pd.Params[0].Name == ev.Result {
				if obj := fa.varOf(lhs[0]); obj != nil {
					fa.grantVar(obj, pd.Name)
				}
			}
		}
	}
}

// finish reports incomplete operations and constraint violations at
// function exit, and materialises the function's summary.
func (fa *funcAnalysis) finish() {
	if fa.summaryOut != nil {
		for _, rv := range fa.returned {
			preds := map[string]bool{}
			for p := range fa.preds[rv.obj] {
				preds[p] = true
			}
			if t, ok := fa.tracked[rv.obj]; ok {
				for p := range t.selfPreds() {
					preds[p] = true
				}
			}
			if len(preds) > 0 {
				if existing, ok := fa.summaryOut.results[rv.index]; ok {
					// Multiple return sites: intersect (a predicate only
					// holds if every path grants it).
					for p := range existing {
						if !preds[p] {
							delete(existing, p)
						}
					}
				} else {
					fa.summaryOut.results[rv.index] = preds
				}
			}
		}
	}
	seen := map[*trackedObject]bool{}
	for _, t := range fa.tracked {
		if seen[t] {
			continue
		}
		seen[t] = true
		if t.dead {
			continue
		}
		if !t.escaped && !fa.accepting(t) {
			fa.findingAt(IncompleteOperationError, t.rule.SpecType(), t.pos,
				"object use is incomplete: ORDER %s not finished (missing e.g. %s)",
				orderString(t.rule), nextEventHint(t))
		}
		env := *t.env
		selfPreds := env.Called // reserved for self-predicates during tracking
		_ = selfPreds
		env.Called = t.labels
		for _, c := range t.rule.AST.Constraints {
			if constraint.Eval(c, &env) == constraint.False {
				fa.findingAt(ConstraintError, t.rule.SpecType(), t.pos,
					"constraint violated: %s", c.String())
			}
		}
	}
}

// findingAt is findingf with a pre-resolved position.
func (fa *funcAnalysis) findingAt(kind Kind, rule string, pos token.Position, format string, args ...any) {
	fa.report.Findings = append(fa.report.Findings, Finding{
		Kind:     kind,
		Pos:      pos,
		Rule:     rule,
		Function: fa.fn.Name.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func orderString(rule *crysl.Rule) string {
	if rule.AST.Order == nil {
		return "(empty)"
	}
	return rule.AST.Order.String()
}

// nextEventHint names the first event on a shortest path from the current
// state to an accepting one, breaking ties by the rule's EVENTS declaration
// order, so the same source always yields the same finding text.
func nextEventHint(t *trackedObject) string {
	dfa := t.rule.DFA
	// dist[s] is the length of the shortest path from s to acceptance
	// (-1 = none); the automata are a handful of states, so relax to a
	// fixpoint.
	dist := make([]int, dfa.NumStates)
	for s := range dist {
		dist[s] = -1
		if dfa.Accepting[s] {
			dist[s] = 0
		}
	}
	for changed := true; changed; {
		changed = false
		for s, trans := range dfa.Trans {
			for _, next := range trans {
				if d := dist[next]; d >= 0 && (dist[s] < 0 || d+1 < dist[s]) {
					dist[s], changed = d+1, true
				}
			}
		}
	}
	if dist[t.state] <= 0 {
		return "?"
	}
	for _, decl := range t.rule.AST.Events {
		if decl.IsAggregate() {
			continue
		}
		if next, ok := dfa.Trans[t.state][decl.Label]; ok && dist[next] == dist[t.state]-1 {
			return decl.Pattern.Method
		}
	}
	return "?"
}

// producerHint names a type that can grant the predicate.
func producerHint(rs *crysl.RuleSet, pred string) string {
	producers := rs.Producers(pred)
	if len(producers) == 0 {
		return "an unknown producer"
	}
	return producers[0].SpecType()
}

func exprString(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return fmt.Sprintf("%T", e)
}
