package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// Encode encodes v as one line of compact JSON, newline-terminated, into a
// pooled buffer: the bytes of json.NewEncoder(buf).Encode(v). A
// GenerateResponse, by value or pointer, goes through EncodeGenerate. The
// returned bytes stay valid until release is called. On error nothing is
// held and release is nil.
func Encode(v any) (data []byte, release func(), err error) {
	switch r := v.(type) {
	case GenerateResponse:
		return EncodeGenerate(&r, r.Output)
	case *GenerateResponse:
		if r != nil {
			return EncodeGenerate(r, r.Output)
		}
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		putBuffer(buf)
		return nil, nil, err
	}
	return buf.Bytes(), func() { putBuffer(buf) }, nil
}

// EncodeGenerate encodes resp into a pooled buffer with its output given
// as pieces, whose concatenation stands for resp.Output (which is not
// read): a plan hit passes the plan's pieces, so the output is never
// joined into a string before it is escaped into the body. The bytes are
// those encoding/json writes for the joined value: the fields in
// declaration order, forwarded omitted when false, HTML-escaped strings,
// U+FFFD for invalid UTF-8, and encoding/json's float format; a NaN or
// infinite duration is encoding/json's *json.UnsupportedValueError. A rune
// split across two pieces is encoded as the joined string's rune. The
// returned bytes stay valid until release is called. On error nothing is
// held and release is nil.
func EncodeGenerate(resp *GenerateResponse, output ...string) (data []byte, release func(), err error) {
	if f := resp.DurationMS; math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	// Room for the fields plus an eighth for escapes (a generated file's
	// newlines, tabs and quotes), so the body is written in place.
	size := len(resp.Name) + len(resp.Fingerprint) + 128
	for _, p := range output {
		size += len(p)
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Grow(size + size/8)
	b := append(buf.AvailableBuffer(), `{"name":`...)
	b = appendString(b, resp.Name)
	b = append(b, `,"output":`...)
	b = appendString(b, output...)
	b = append(b, `,"ruleset_fingerprint":`...)
	b = appendString(b, resp.Fingerprint)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, resp.Cached)
	if resp.Forwarded {
		b = append(b, `,"forwarded":true`...)
	}
	b = append(b, `,"duration_ms":`...)
	b = appendFloat(b, resp.DurationMS)
	b = append(b, "}\n"...)
	buf.Write(b)
	return buf.Bytes(), func() { putBuffer(buf) }, nil
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json copies into a string as
// they are when it escapes HTML: everything printable but '"', '\\', '<',
// '>' and '&'.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

// appendString appends the JSON string literal of the concatenation of
// pieces, escaped as encoding/json escapes it.
func appendString(b []byte, pieces ...string) []byte {
	b = append(b, '"')
	// skip counts the bytes at the head of the next pieces that were
	// already written as the tail of a rune begun in an earlier piece.
	skip := 0
	for k, s := range pieces {
		i := min(skip, len(s))
		skip -= i
		start := i
		for i < len(s) {
			if c := s[i]; c < utf8.RuneSelf {
				if htmlSafe[c] {
					i++
					continue
				}
				b = append(b, s[start:i]...)
				switch c {
				case '\\', '"':
					b = append(b, '\\', c)
				case '\b':
					b = append(b, '\\', 'b')
				case '\f':
					b = append(b, '\\', 'f')
				case '\n':
					b = append(b, '\\', 'n')
				case '\r':
					b = append(b, '\\', 'r')
				case '\t':
					b = append(b, '\\', 't')
				default:
					b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
				}
				i++
				start = i
				continue
			}
			var r rune
			var size int
			if utf8.FullRuneInString(s[i:]) {
				r, size = utf8.DecodeRuneInString(s[i:])
			} else {
				// A valid prefix at the piece's end: decode the rune from
				// the bytes that follow it in the later pieces.
				var tmp [utf8.UTFMax]byte
				n := copy(tmp[:], s[i:])
				for _, t := range pieces[k+1:] {
					n += copy(tmp[n:], t)
				}
				r, size = utf8.DecodeRune(tmp[:n])
				if size > len(s)-i {
					b = append(b, s[start:i]...)
					b = appendRune(b, r, tmp[:size])
					skip = size - (len(s) - i)
					i = len(s)
					start = i
					continue
				}
			}
			if r == utf8.RuneError && size == 1 {
				b = append(b, s[start:i]...)
				b = append(b, `\ufffd`...)
				i++
				start = i
				continue
			}
			if r == '\u2028' || r == '\u2029' {
				b = append(b, s[start:i]...)
				b = appendRune(b, r, nil)
				i += size
				start = i
				continue
			}
			i += size
		}
		b = append(b, s[start:]...)
	}
	return append(b, '"')
}

// appendRune appends a valid non-ASCII rune whose bytes are enc: escaped
// if it is U+2028 or U+2029 (which JavaScript reads as line ends), as
// enc otherwise.
func appendRune(b []byte, r rune, enc []byte) []byte {
	if r == '\u2028' || r == '\u2029' {
		return append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
	}
	return append(b, enc...)
}

// appendFloat appends f as encoding/json formats a float64: like
// strconv's shortest 'f' format, but 'e' below 1e-6 and from 1e21 up,
// with a one-digit negative exponent unpadded (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
