package gen

import (
	"fmt"
	"go/types"
	"strings"

	"cognicryptgen/crysl"
	"cognicryptgen/crysl/ast"
)

// addToPool appends obj to the chain pool unless it is already present.
func (st *chainState) addToPool(obj *genObject) {
	for _, o := range st.pool {
		if o == obj {
			return
		}
	}
	st.pool = append(st.pool, obj)
}

// emit renders the resolved plan of one rule invocation into Go statements
// (workflow step ⑤), updating the chain pool with produced objects and
// their predicates.
func (g *Generator) emit(tmpl *Template, m *TemplateMethod, inv *Invocation, idx int, rule *crysl.Rule, path []string, res *resolved, st *chainState, rr *RuleReport, report *Report) error {
	rr.Path = path
	specName := g.api.unqualify(rule.SpecType())
	report.Assumptions = append(report.Assumptions, res.assumptions...)

	// Pushed-up parameters become clearly marked placeholder declarations,
	// the paper's compilability-over-completeness fallback.
	for _, p := range res.pushed {
		decl, ok := rule.Objects[p]
		if !ok {
			report.PushedUp = append(report.PushedUp, rule.SpecType()+": "+p)
			continue
		}
		if _, done := res.objects[p]; done {
			// Defensive: resolvePath dedupes pushed entries, but a second
			// placeholder for an already-materialized variable would shadow
			// the first and leave it unused — never emit one.
			continue
		}
		name := st.names.alloc(p)
		st.lines = append(st.lines, fmt.Sprintf(
			"var %s %s // TODO(cryptgen): unresolved parameter %q of rule %s — supply a value",
			name, g.api.goTypeStringFor(decl.Type), p, rule.SpecType()))
		res.objects[p] = &genObject{expr: name, producedBy: idx}
		report.PushedUp = append(report.PushedUp, rule.SpecType()+"."+p)
	}

	receiverName := res.receiver
	receiverObj := res.objects["this"]
	if receiverObj == nil && receiverName != "" {
		// Template-supplied receiver: wrap it so predicates can attach.
		receiverObj = &genObject{expr: receiverName, fromTemplate: true, producedBy: -1}
		if t, ok := m.VarTypes[receiverName]; ok {
			receiverObj.goType = t
		}
		res.objects["this"] = receiverObj
		st.addToPool(receiverObj)
	}

	var produced []*genObject
	for _, pe := range res.plan {
		var args []string
		for i, prm := range pe.pattern.Params {
			switch {
			case prm.Name == "this":
				args = append(args, receiverName)
			case prm.Wildcard:
				// A wildcard parameter carries no rule object to resolve;
				// emit a typed placeholder (compilability over
				// completeness, paper §3.3).
				name := st.names.alloc("wildcard")
				typeStr := "any"
				if i < len(pe.shape.params) {
					typeStr = typeSourceString(pe.shape.params[i])
				}
				st.lines = append(st.lines, fmt.Sprintf(
					"var %s %s // TODO(cryptgen): wildcard parameter of %s — supply a value",
					name, typeStr, pe.pattern.Method))
				args = append(args, name)
			default:
				obj := res.objects[prm.Name]
				if obj == nil {
					return fmt.Errorf("internal: unresolved parameter %q survived planning", prm.Name)
				}
				args = append(args, obj.expr)
				rr.Resolutions = append(rr.Resolutions, fmt.Sprintf("%s(%s) ← %s", pe.pattern.Method, prm.Name, obj.expr))
			}
		}

		var lines []string
		switch {
		case pe.isCtor:
			name := st.names.alloc(lowerFirst(specName))
			st.declared = append(st.declared, name)
			receiverName = name
			receiverObj = &genObject{expr: name, goType: pe.shape.value, producedBy: idx}
			res.objects["this"] = receiverObj
			if pe.pattern.Result != "" && pe.pattern.Result != "this" {
				res.objects[pe.pattern.Result] = receiverObj
			}
			st.addToPool(receiverObj)
			produced = append(produced, receiverObj)
			call := fmt.Sprintf("%s.%s(%s)", g.api.pkg.Name(), pe.pattern.Method, strings.Join(args, ", "))
			if pe.shape.returnsErr {
				lines = append(lines, fmt.Sprintf("%s, err := %s", name, call), "if err != nil {", "\t"+st.errRet, "}")
			} else {
				lines = append(lines, fmt.Sprintf("%s := %s", name, call))
			}

		default:
			if receiverName == "" {
				return fmt.Errorf("internal: method event %s has no receiver", pe.pattern.Method)
			}
			call := fmt.Sprintf("%s.%s(%s)", receiverName, pe.pattern.Method, strings.Join(args, ", "))
			bind := pe.pattern.Result
			if bind != "" && bind != "this" && pe.shape.value != nil {
				name := st.names.alloc(bind)
				st.declared = append(st.declared, name)
				obj := &genObject{expr: name, goType: pe.shape.value, producedBy: idx}
				res.objects[bind] = obj
				st.addToPool(obj)
				produced = append(produced, obj)
				if pe.shape.returnsErr {
					lines = append(lines, fmt.Sprintf("%s, err := %s", name, call), "if err != nil {", "\t"+st.errRet, "}")
				} else {
					lines = append(lines, fmt.Sprintf("%s := %s", name, call))
				}
			} else {
				switch {
				case pe.shape.returnsErr && pe.shape.value != nil:
					lines = append(lines, fmt.Sprintf("if _, err := %s; err != nil {", call), "\t"+st.errRet, "}")
				case pe.shape.returnsErr:
					lines = append(lines, fmt.Sprintf("if err := %s; err != nil {", call), "\t"+st.errRet, "}")
				default:
					lines = append(lines, call)
				}
			}
		}

		if pe.deferred {
			st.deferred = append(st.deferred, lines...)
		} else {
			st.lines = append(st.lines, lines...)
		}

		for _, pd := range rule.EnsuredAfter(pe.label) {
			st.grantPredicate(pd, receiverObj, res)
		}
	}
	for _, pd := range rule.UnconditionalEnsures() {
		st.grantPredicate(pd, receiverObj, res)
	}

	if inv.ReturnObj != "" {
		if err := g.assignReturnObject(tmpl, m, inv, produced, st); err != nil {
			return err
		}
	}
	return nil
}

// grantPredicate attaches an ENSURES predicate to the object it names.
func (st *chainState) grantPredicate(pd *ast.PredicateDef, receiver *genObject, res *resolved) {
	if len(pd.Params) == 0 {
		if receiver != nil {
			receiver.grant(pd.Name)
		}
		return
	}
	target := pd.Params[0]
	switch {
	case target.This:
		if receiver != nil {
			receiver.grant(pd.Name)
			st.addToPool(receiver)
		}
	case target.Wildcard:
		// Nothing concrete to attach to.
	default:
		if obj := res.objects[target.Name]; obj != nil {
			obj.grant(pd.Name)
			st.addToPool(obj)
		}
	}
}

// assignReturnObject implements addReturnObject: the template variable is
// assigned the last produced object whose type it can hold (the paper's
// "last method of that class that needs to be called" selection).
func (g *Generator) assignReturnObject(tmpl *Template, m *TemplateMethod, inv *Invocation, produced []*genObject, st *chainState) error {
	identType, ok := m.VarTypes[inv.ReturnObj]
	if !ok {
		return fmt.Errorf("return object %q is not a local variable or parameter", inv.ReturnObj)
	}
	for i := len(produced) - 1; i >= 0; i-- {
		obj := produced[i]
		if obj.goType != nil && types.AssignableTo(obj.goType, identType) {
			st.lines = append(st.lines, fmt.Sprintf("%s = %s", inv.ReturnObj, obj.expr))
			return nil
		}
	}
	return fmt.Errorf("rule %s produced no value assignable to return object %q (%s)",
		inv.RuleName, inv.ReturnObj, typeSourceString(identType))
}
