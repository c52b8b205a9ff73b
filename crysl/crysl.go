// Package crysl is the public entry point to the GoCrySL specification
// language: it parses, semantically checks, and compiles rules into a form
// ready for code generation and static analysis.
//
// A compiled Rule bundles the parsed AST with the resolved event table, the
// aggregate expansion, and the deterministic finite automaton derived from
// the rule's ORDER pattern. A RuleSet is a named collection of compiled
// rules with cross-rule predicate lookup, mirroring the artefact layout of
// CogniCrypt's JCA rule repository.
package crysl

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cognicryptgen/crysl/ast"
	"cognicryptgen/crysl/fsm"
	"cognicryptgen/crysl/parser"
	"cognicryptgen/crysl/sem"
	"cognicryptgen/internal/faultinject"
)

// Rule is a compiled GoCrySL rule.
type Rule struct {
	AST *ast.Rule
	// Events maps concrete (non-aggregate) labels to their patterns.
	Events map[string]*ast.EventPattern
	// Aggregates maps aggregate labels to fully expanded concrete labels.
	Aggregates map[string][]string
	// DFA is the order automaton over concrete labels; nil-ORDER rules get
	// an automaton accepting only the empty sequence.
	DFA *fsm.DFA
	// NFA is the epsilon-NFA the DFA was determinized from; the analyzer's
	// NFA-simulation ablation mode uses it directly.
	NFA *fsm.NFA
	// Objects maps object names to their declarations.
	Objects map[string]*ast.Object

	// ensured lists, for each concrete label an "after" clause names, the
	// ENSURES predicates it grants, in declaration order (EnsuredAfter).
	ensured []labelPreds
}

// labelPreds is one label's ENSURES predicates. A single predicate is a
// window on AST.Ensures, so it costs no array of its own.
type labelPreds struct {
	label string
	preds []*ast.PredicateDef
}

// SpecType returns the fully qualified specified type, e.g. "gca.Cipher".
func (r *Rule) SpecType() string { return r.AST.SpecType }

// Name returns the unqualified name of the specified type.
func (r *Rule) Name() string { return r.AST.Name() }

// Event returns the pattern for a concrete label.
func (r *Rule) Event(label string) (*ast.EventPattern, bool) {
	p, ok := r.Events[label]
	return p, ok
}

// ExpandLabel resolves a label to its concrete labels: an aggregate expands
// to its members, a concrete label expands to itself.
func (r *Rule) ExpandLabel(label string) []string {
	if members, ok := r.Aggregates[label]; ok {
		return members
	}
	return []string{label}
}

// LabelsForMethod returns the concrete event labels whose pattern invokes
// the given method name, in declaration order.
func (r *Rule) LabelsForMethod(method string) []string {
	var out []string
	for _, e := range r.AST.Events {
		if !e.IsAggregate() && e.Pattern.Method == method {
			out = append(out, e.Label)
		}
	}
	return out
}

// NegatingLabels returns the concrete labels after which a NEGATES
// predicate fires (used by the generator to defer such calls to the end of
// the generated block, §3.3).
func (r *Rule) NegatingLabels() map[string]bool {
	out := map[string]bool{}
	for _, n := range r.AST.Negates {
		if n.AfterLabel != "" {
			for _, l := range r.ExpandLabel(n.AfterLabel) {
				out[l] = true
			}
			continue
		}
		// A NEGATES without an "after" clause invalidates the predicate on
		// any event that re-enters the negated state; the generator treats
		// the events that do NOT appear in any ENSURES "after" clause and
		// whose pattern has no result binding as candidates. Conservatively
		// no label is marked here; rule authors are expected to use "after".
	}
	return out
}

// EnsuredAfter returns the predicates guaranteed once the given concrete
// label has executed. Predicates without an "after" clause are guaranteed
// after any accepting sequence and are returned for every accepting-path
// final label by the caller instead. The list is computed once, when the
// rule is compiled, and shared: callers must not modify it.
func (r *Rule) EnsuredAfter(label string) []*ast.PredicateDef {
	for _, lp := range r.ensured {
		if lp.label == label {
			return lp.preds
		}
	}
	return nil
}

// UnconditionalEnsures returns predicates guaranteed after a complete,
// conforming use of the object (no "after" clause).
func (r *Rule) UnconditionalEnsures() []*ast.PredicateDef {
	var out []*ast.PredicateDef
	for _, e := range r.AST.Ensures {
		if e.AfterLabel == "" {
			out = append(out, e)
		}
	}
	return out
}

// Compile semantically checks an AST rule and builds its automaton.
func Compile(a *ast.Rule) (*Rule, error) {
	if err := sem.Check(a); err != nil {
		return nil, err
	}
	r := &Rule{
		AST:        a,
		Events:     map[string]*ast.EventPattern{},
		Aggregates: map[string][]string{},
		Objects:    map[string]*ast.Object{},
	}
	for _, o := range a.Objects {
		r.Objects[o.Name] = o
	}
	for _, e := range a.Events {
		if !e.IsAggregate() {
			r.Events[e.Label] = e.Pattern
		}
	}
	// Expand aggregates transitively (sem guarantees acyclicity).
	var expand func(label string, seen map[string]bool) []string
	expand = func(label string, seen map[string]bool) []string {
		if seen[label] {
			return nil
		}
		seen[label] = true
		var decl *ast.EventDecl
		for _, e := range a.Events {
			if e.Label == label {
				decl = e
				break
			}
		}
		if decl == nil || !decl.IsAggregate() {
			return []string{label}
		}
		var out []string
		for _, m := range decl.Aggregate {
			out = append(out, expand(m, seen)...)
		}
		return out
	}
	for _, e := range a.Events {
		if e.IsAggregate() {
			r.Aggregates[e.Label] = expand(e.Label, map[string]bool{})
		}
	}
	for i, e := range a.Ensures {
		if e.AfterLabel != "" {
			for _, l := range r.ExpandLabel(e.AfterLabel) {
				r.addEnsured(l, a.Ensures[i:i+1:i+1])
			}
		}
	}
	nfa, err := fsm.CompileNFA(a.Order, r.Aggregates)
	if err != nil {
		return nil, fmt.Errorf("compiling ORDER automaton for %s: %w", a.SpecType, err)
	}
	r.NFA = nfa
	r.DFA = fsm.Minimize(fsm.Determinize(r.NFA))
	return r, nil
}

// addEnsured adds one, a one-predicate window on AST.Ensures, to label's
// list unless it ends the list already (an aggregate that names the label
// twice). The window's capacity is its length, so a second predicate is
// appended to a copy, never into AST.Ensures.
func (r *Rule) addEnsured(label string, one []*ast.PredicateDef) {
	for k := range r.ensured {
		if lp := &r.ensured[k]; lp.label == label {
			if lp.preds[len(lp.preds)-1] != one[0] {
				lp.preds = append(lp.preds, one[0])
			}
			return
		}
	}
	r.ensured = append(r.ensured, labelPreds{label, one})
}

// ParseRule parses and compiles a single rule from source text. name is used
// in error messages only.
func ParseRule(name, src string) (*Rule, error) {
	a, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", name, err)
	}
	r, err := Compile(a)
	if err != nil {
		return nil, fmt.Errorf("checking %s: %w", name, err)
	}
	return r, nil
}

// RuleSet is a collection of compiled rules indexed by specified type.
type RuleSet struct {
	byType map[string]*Rule
	order  []string // insertion order of spec types
}

// NewRuleSet returns an empty rule set.
func NewRuleSet() *RuleSet {
	return &RuleSet{byType: map[string]*Rule{}}
}

// Add inserts a rule; a second rule for the same type is an error.
func (s *RuleSet) Add(r *Rule) error {
	if _, ok := s.byType[r.SpecType()]; ok {
		return fmt.Errorf("crysl: duplicate rule for %s", r.SpecType())
	}
	s.byType[r.SpecType()] = r
	s.order = append(s.order, r.SpecType())
	return nil
}

// Get returns the rule for a fully qualified or unqualified type name.
func (s *RuleSet) Get(name string) (*Rule, bool) {
	if r, ok := s.byType[name]; ok {
		return r, true
	}
	// Fall back to unqualified lookup if unambiguous.
	var found *Rule
	for _, r := range s.byType {
		if r.Name() == name {
			if found != nil {
				return nil, false // ambiguous
			}
			found = r
		}
	}
	return found, found != nil
}

// Len returns the number of rules.
func (s *RuleSet) Len() int { return len(s.byType) }

// Types returns the specified types in insertion order.
func (s *RuleSet) Types() []string {
	return append([]string(nil), s.order...)
}

// Rules returns the compiled rules in insertion order.
func (s *RuleSet) Rules() []*Rule {
	out := make([]*Rule, 0, len(s.order))
	for _, t := range s.order {
		out = append(out, s.byType[t])
	}
	return out
}

// Producers returns the rules whose ENSURES section can grant the named
// predicate, in insertion order.
func (s *RuleSet) Producers(predicate string) []*Rule {
	var out []*Rule
	for _, t := range s.order {
		r := s.byType[t]
		for _, e := range r.AST.Ensures {
			if e.Name == predicate {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// LoadFS parses and compiles every *.crysl file in fsys (recursively),
// returning a rule set.
//
// Per-file work — read, lex, parse, semantic check, NFA construction,
// determinization, minimization — is independent across files, so it is
// fanned across GOMAXPROCS goroutines and the loaded set is only as slow
// as its slowest single rule, not the sum of all rules. The merge runs
// sequentially over the sorted path order, so rule-set construction
// (insertion order, duplicate detection, error aggregation via
// errors.Join) is byte-for-byte deterministic and identical to the old
// sequential loader.
func LoadFS(fsys fs.FS, root string) (*RuleSet, error) {
	var paths []string
	err := fs.WalkDir(fsys, root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".crysl") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)

	rulesByFile := make([]*Rule, len(paths))
	errsByFile := make([]error, len(paths))
	compile := func(i int) {
		// A panic while compiling one rule — a lexer/parser/automaton bug
		// driven by an adversarial file, or an injected chaos fault — must
		// degrade into that file's error, not kill the process (the compile
		// fans across goroutines, where an unrecovered panic is fatal).
		defer func() {
			if r := recover(); r != nil {
				errsByFile[i] = fmt.Errorf("crysl: panic compiling %s: %v", paths[i], r)
			}
		}()
		if err := faultinject.Fire(faultinject.PointRuleCompile); err != nil {
			errsByFile[i] = fmt.Errorf("crysl: compiling %s: %w", paths[i], err)
			return
		}
		data, err := fs.ReadFile(fsys, paths[i])
		if err != nil {
			errsByFile[i] = err
			return
		}
		rulesByFile[i], errsByFile[i] = ParseRule(paths[i], string(data))
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(paths) {
		workers = len(paths)
	}
	if workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(paths) {
						return
					}
					compile(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range paths {
			compile(i)
		}
	}

	set := NewRuleSet()
	var errs []error
	for i := range paths {
		if errsByFile[i] != nil {
			errs = append(errs, errsByFile[i])
			continue
		}
		if err := set.Add(rulesByFile[i]); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return set, errors.Join(errs...)
	}
	return set, nil
}

// LoadDir parses and compiles every *.crysl file under dir on the local
// filesystem.
func LoadDir(dir string) (*RuleSet, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return LoadFS(os.DirFS(abs), ".")
}
