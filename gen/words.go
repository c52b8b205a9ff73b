package gen

import "strings"

// The generator asks two questions of generated source text: is a
// variable referenced (suppressUnused), and is the crypto façade used by
// name (generatedUsesGCA). The names vary per call, so a regexp would be
// compiled per call; these scans answer with strings.Index and the exact
// semantics of RE2's ASCII word boundary \b, and allocate nothing.
// FuzzWordMatches holds them to the regexps.

// isWordByte reports whether b is an ASCII word character [0-9A-Za-z_].
func isWordByte(b byte) bool {
	return b == '_' || '0' <= b && b <= '9' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z'
}

// atWordBoundary reports whether \b matches at byte offset i of text. RE2
// decides it on the runes either side, but a byte is an ASCII word
// character exactly when the rune it belongs to is one (a byte of a
// multi-byte or invalid sequence is >= 0x80 and decodes to a non-word
// rune), so comparing the bytes either side is exact.
func atWordBoundary(text string, i int) bool {
	before := i > 0 && isWordByte(text[i-1])
	after := i < len(text) && isWordByte(text[i])
	return before != after
}

// indexWord returns the offset of the first match of
// `\b`+regexp.QuoteMeta(word)+`\b` in text at or after from, or -1. word
// must be a non-empty Go identifier, so it never starts with a UTF-8
// continuation byte and a match found by byte search starts at a rune the
// regexp would also try.
func indexWord(text, word string, from int) int {
	for from <= len(text) {
		i := strings.Index(text[from:], word)
		if i < 0 {
			return -1
		}
		i += from
		if atWordBoundary(text, i) && atWordBoundary(text, i+len(word)) {
			return i
		}
		from = i + 1
	}
	return -1
}

// usesQualifier reports whether text matches
// `\b`+regexp.QuoteMeta(pkg)+`\.`: pkg used as a package qualifier.
func usesQualifier(text, pkg string) bool {
	for from := 0; from <= len(text); {
		i := strings.Index(text[from:], pkg)
		if i < 0 {
			return false
		}
		i += from
		if atWordBoundary(text, i) && strings.HasPrefix(text[i+len(pkg):], ".") {
			return true
		}
		from = i + 1
	}
	return false
}
