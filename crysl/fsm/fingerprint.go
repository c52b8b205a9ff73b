package fsm

import (
	"fmt"
	"io"
	"sort"
)

// WriteCanonical writes a canonical rendering of the DFA to w: start state,
// accepting set, and the full transition table with symbols in sorted
// order. Two structurally identical automata produce identical output, so
// the rendering is a stable basis for fingerprinting compiled rules.
func (d *DFA) WriteCanonical(w io.Writer) {
	fmt.Fprintf(w, "dfa;start=%d;states=%d;alphabet=%v\n", d.Start, d.NumStates, d.Alphabet)
	for s := 0; s < d.NumStates; s++ {
		fmt.Fprintf(w, "%d;accept=%t", s, d.Accepting[s])
		syms := make([]string, 0, len(d.Trans[s]))
		for sym := range d.Trans[s] {
			syms = append(syms, sym)
		}
		sort.Strings(syms)
		for _, sym := range syms {
			fmt.Fprintf(w, ";%s->%d", sym, d.Trans[s][sym])
		}
		fmt.Fprintln(w)
	}
}
