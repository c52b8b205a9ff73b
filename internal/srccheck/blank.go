package srccheck

import (
	"bytes"
	"strconv"
)

// blankBodies overwrites, in place, the contents of every outermost brace
// pair of the Go source src with spaces: function bodies, function-literal
// bodies and composite-literal contents. The universe type-checks a
// dependency with IgnoreFuncBodies and only needs the types of its
// declarations, which none of those contents change; parsing them was
// most of the cost of a cold start. The braces themselves stay, so a
// function keeps a (now empty) body and a literal keeps its type.
//
// Newlines are kept and nothing moves, so every offset, the file's line
// table and every token.Position are those of the unblanked file; //line
// and /*line directives inside a blanked region are kept verbatim for the
// same reason. The braces of a struct or interface type are kept whole,
// and a [...]T{…} literal keeps the count of its elements, which is the
// array's length (ellipsisLiteral).
//
// The lexer knows comments, interpreted and raw strings and runes, so a
// brace inside one of them never counts. An unclosed region runs to the
// end of the file and its opening brace stays, so unbalanced braces remain
// a parse error; other syntax errors inside a blanked region are gone with
// it.
func blankBodies(src []byte) {
	typeBrace := false // the last token is struct or interface
	arr := 0           // progress through "[...]": 1 after [, 2 after [..., armed after [...]
	const armed = 3
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
			continue
		case c == '/' && i+1 < len(src) && (src[i+1] == '/' || src[i+1] == '*'):
			i = skipLiteral(src, i)
			continue
		case c == '{':
			switch {
			case typeBrace:
				i = region(src, i, false)
			case arr == armed:
				i = ellipsisLiteral(src, i)
			default:
				i = region(src, i, true)
			}
			if !typeBrace {
				arr = 0
			}
			typeBrace = false
			continue
		}
		// Any other token. Once "[...]" is seen, everything up to the
		// literal's opening brace is the element type.
		end, next := i+1, 0
		typeBrace = false
		switch {
		case isWordByte(c):
			for end < len(src) && isWordByte(src[end]) {
				end++
			}
			w := src[i:end]
			typeBrace = string(w) == "struct" || string(w) == "interface"
		case c == '"' || c == '`' || c == '\'':
			end = skipLiteral(src, i)
		case c == '[':
			next = 1
		case c == '.' && bytes.HasPrefix(src[i:], []byte("...")):
			end = i + 3
			if arr == 1 {
				next = 2
			}
		case c == ']' && arr == 2:
			next = armed
		}
		if arr != armed {
			arr = next
		}
		i = end
	}
}

// region scans the brace pair opening at src[open] and returns the offset
// just past its closing brace, or len(src) when it never closes. With
// blank set, every byte between the braces except newlines and line
// directives becomes a space.
func region(src []byte, open int, blank bool) int {
	depth := 0
	for i := open; i < len(src); {
		start := i
		switch src[i] {
		case '{':
			depth++
			i++
		case '}':
			if depth--; depth == 0 {
				return i + 1
			}
			i++
		case '/', '"', '`', '\'':
			if i = skipLiteral(src, i); isLineDirective(src[start:i]) {
				continue
			}
		default:
			i++
		}
		if blank && start > open {
			for j := start; j < i; j++ {
				if src[j] != '\n' {
					src[j] = ' '
				}
			}
		}
	}
	return len(src)
}

// ellipsisLiteral handles the [...]T{…} literal whose elements open at
// src[open], returning the offset just past its closing brace, or len(src)
// when it never closes. The literal's element count is its array's
// length, so when no element has a key it keeps only its last element,
// keyed with its index: {a, b, c} becomes {2:      c}, an array of the
// same type. A literal with a key (any ':' among its elements), a line
// directive or no line with room for the key before its last element is
// kept whole.
func ellipsisLiteral(src []byte, open int) int {
	depth, nest := 0, 0 // brace depth; paren and bracket depth among the elements
	n := 0              // elements before the current one
	cur, prev := -1, -1 // offsets of the current and the previous element, -1 before a first token
	keep := false
	for i := open; i < len(src); {
		start, c := i, src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
			continue
		case c == '/' || c == '"' || c == '`' || c == '\'':
			i = skipLiteral(src, i)
			if c == '/' && i > start+1 { // a comment
				keep = keep || isLineDirective(src[start:i])
				continue
			}
		case c == '{':
			if depth++; depth == 1 {
				i++
				continue
			}
			i++
		case c == '}':
			if depth--; depth == 0 {
				if cur >= 0 {
					n, prev = n+1, cur
				}
				if !keep && n > 1 && prev >= 0 {
					keyLast(src, open, prev, n-1)
				}
				return i + 1
			}
			i++
		case isWordByte(c):
			for i++; i < len(src) && isWordByte(src[i]); i++ {
			}
		default:
			i++
			if depth > 1 {
				break
			}
			switch c {
			case '(', '[':
				nest++
			case ')', ']':
				nest--
			case ':':
				keep = true
			case ',':
				if nest == 0 {
					n, prev, cur = n+1, cur, -1
					continue
				}
			}
		}
		if cur < 0 {
			cur = start
		}
	}
	return len(src)
}

// keyLast rewrites the unkeyed elements between src[open], a literal's
// opening brace, and its last element at src[last] as the key index
// followed by spaces, keeping newlines. It writes nothing when no line of
// that span has room for the key.
func keyLast(src []byte, open, last, index int) {
	var buf [24]byte
	key := append(strconv.AppendInt(buf[:0], int64(index), 10), ':')
	at := -1
	for s := open + 1; s < last; {
		e := bytes.IndexByte(src[s:last], '\n')
		if e < 0 {
			e = last - s
		}
		if e >= len(key) {
			at = s
			break
		}
		s += e + 1
	}
	if at < 0 {
		return
	}
	for j := open + 1; j < last; j++ {
		if src[j] != '\n' {
			src[j] = ' '
		}
	}
	copy(src[at:], key)
}

// skipLiteral returns the offset just past the comment, interpreted or raw
// string or rune starting at src[i], or i+1 when src[i] starts none of
// them (a '/' operator). A line comment ends before its newline; an
// interpreted string or rune that a newline or the end of the file cuts
// short ends there, as the Go scanner ends it.
func skipLiteral(src []byte, i int) int {
	j := i + 1
	switch c := src[i]; {
	case c == '/' && j < len(src) && src[j] == '/':
		if n := bytes.IndexByte(src[j:], '\n'); n >= 0 {
			return j + n
		}
		return len(src)
	case c == '/' && j < len(src) && src[j] == '*':
		if n := bytes.Index(src[j+1:], []byte("*/")); n >= 0 {
			return j + 1 + n + 2
		}
		return len(src)
	case c == '`':
		if n := bytes.IndexByte(src[j:], '`'); n >= 0 {
			return j + n + 1
		}
		return len(src)
	case c == '"' || c == '\'':
		for j < len(src) {
			switch src[j] {
			case c:
				return j + 1
			case '\n':
				return j
			case '\\':
				j++
				if j < len(src) && src[j] != '\n' {
					j++
				}
			default:
				j++
			}
		}
		return len(src)
	}
	return j
}

// isLineDirective reports whether lit, a token skipLiteral delimited, is a
// //line or /*line comment, which moves the positions after it.
func isLineDirective(lit []byte) bool {
	return bytes.HasPrefix(lit, []byte("//line")) || bytes.HasPrefix(lit, []byte("/*line"))
}

// isWordByte reports whether c can be part of an identifier, keyword or
// number; bytes of multi-byte UTF-8 letters count.
func isWordByte(c byte) bool {
	return c == '_' || c >= 0x80 || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}
