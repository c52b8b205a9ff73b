package srchash

import (
	"crypto/sha256"
	"strings"
	"testing"
)

// TestSumMatchesSum256: Sum is sha256.Sum256 of the string's bytes at every
// length around the staging buffer's boundaries, so no key value changes.
func TestSumMatchesSum256(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, chunk - 1, chunk, chunk + 1, 3*chunk + 7, 4096} {
		s := strings.Repeat("x", n)
		if got, want := Sum(s), sha256.Sum256([]byte(s)); got != want {
			t.Errorf("len %d: Sum = %x, want %x", n, got, want)
		}
	}
}

// TestSumDoesNotCopySource: hashing a template-sized source allocates
// nothing — no []byte(src) copy, and the digest and staging buffer stay on
// the stack.
func TestSumDoesNotCopySource(t *testing.T) {
	src := strings.Repeat("func f() {}\n", 400) // ~4.7 KiB, a template's size
	var sink [sha256.Size]byte
	if allocs := testing.AllocsPerRun(100, func() { sink = Sum(src) }); allocs != 0 {
		t.Errorf("Sum of a %d-byte source makes %.0f allocations, want 0", len(src), allocs)
	}
	_ = sink
}
