package wire

import (
	"encoding/json"
	"errors"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Unmarshal decodes the JSON body data into v exactly as json.Unmarshal
// does, except that the three large text fields — GenerateRequest.Source,
// AnalyzeRequest.Source and GenerateResponse.Output — are decoded with one
// allocation each. encoding/json unquotes an escaped string into a scratch
// buffer and then copies that into the string, and Go source always takes
// that path: every quote, newline and tab is escaped.
//
// Each of the three types is decoded through an unexported struct that
// embeds it and shadows its text field with a json.Unmarshaler. The types
// themselves carry no UnmarshalJSON: encoding/json would then skip the
// whole object, re-validate it and hand it over to be decoded a second
// time.
func Unmarshal(data []byte, v any) error {
	switch v := v.(type) {
	case *GenerateRequest:
		w := generateRequest{GenerateRequest: v, Source: text(v.Source)}
		if json.Unmarshal(data, &w) == nil {
			v.Source = string(w.Source)
			return nil
		}
	case *AnalyzeRequest:
		w := analyzeRequest{AnalyzeRequest: v, Source: text(v.Source)}
		if json.Unmarshal(data, &w) == nil {
			v.Source = string(w.Source)
			return nil
		}
	case *GenerateResponse:
		w := generateResponse{GenerateResponse: v, Output: text(v.Output)}
		if json.Unmarshal(data, &w) == nil {
			v.Output = string(w.Output)
			return nil
		}
	}
	// Any other type, or a body the text fields' path refused: decoded by
	// encoding/json alone, so the value and the error are its own in every
	// case. Redoing a refused body is safe: the first pass set no field to
	// a value other than the one this pass sets it to.
	return json.Unmarshal(data, v)
}

// The embedded pointers point at the caller's value, so every other field
// is decoded in place. The shadowing field sits at depth 0 and wins over
// the embedded one of the same JSON name.
type (
	generateRequest struct {
		*GenerateRequest
		Source text `json:"source,omitempty"`
	}
	analyzeRequest struct {
		*AnalyzeRequest
		Source text `json:"source"`
	}
	generateResponse struct {
		*GenerateResponse
		Output text `json:"output"`
	}
)

var errNotString = errors.New("text field is not a JSON string")

// text is a string field decoded by unquote.
type text string

func (t *text) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil // as for a string: null leaves the value alone
	}
	s, ok := unquote(data)
	if !ok {
		return errNotString // Unmarshal redoes the body with encoding/json
	}
	*t = text(s)
	return nil
}

// unquote decodes the JSON string literal s (quotes included) into the
// string encoding/json would produce, with one allocation of exactly its
// length: the first pass sizes it, the second writes it into a
// strings.Builder grown to that size. ok is false when s is not a valid
// string literal.
func unquote(s []byte) (string, bool) {
	n, ok := walk(s, nil)
	if !ok {
		return "", false
	}
	var b strings.Builder
	b.Grow(n)
	walk(s, &b)
	return b.String(), true
}

// walk decodes the JSON string literal s as encoding/json does, writing the
// result into b unless b is nil, and returns its length. Invalid UTF-8 and
// lone or reversed UTF-16 surrogates decode to U+FFFD, one per bad byte or
// escape.
func walk(s []byte, b *strings.Builder) (n int, ok bool) {
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return 0, false
	}
	s = s[1 : len(s)-1]
	for i := 0; i < len(s); {
		// A run of bytes copied as they are.
		j := i
		for j < len(s) {
			if c := s[j]; c == '\\' || c == '"' || c < ' ' || c >= utf8.RuneSelf {
				break
			}
			j++
		}
		if b != nil {
			b.Write(s[i:j])
		}
		n += j - i
		if i = j; i == len(s) {
			break
		}
		switch c := s[i]; {
		case c == '\\':
			if i+1 == len(s) {
				return 0, false
			}
			var e byte
			switch s[i+1] {
			case '"', '\\', '/':
				e = s[i+1]
			case 'b':
				e = '\b'
			case 'f':
				e = '\f'
			case 'n':
				e = '\n'
			case 'r':
				e = '\r'
			case 't':
				e = '\t'
			case 'u':
				r := getu4(s[i:])
				if r < 0 {
					return 0, false
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, getu4(s[i:])); dec != unicode.ReplacementChar {
						r = dec
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				n += utf8.RuneLen(r)
				if b != nil {
					b.WriteRune(r)
				}
				continue
			default:
				return 0, false
			}
			n++
			if b != nil {
				b.WriteByte(e)
			}
			i += 2
		case c == '"' || c < ' ':
			return 0, false
		default:
			r, size := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && size == 1 {
				n += utf8.RuneLen(unicode.ReplacementChar)
				if b != nil {
					b.WriteRune(unicode.ReplacementChar)
				}
			} else {
				n += size
				if b != nil {
					b.Write(s[i : i+size])
				}
			}
			i += size
		}
	}
	return n, true
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}
