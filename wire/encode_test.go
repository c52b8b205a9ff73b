package wire

import (
	"encoding/json"
	"math"
	"slices"
	"testing"
)

// cutAt splits s at the byte offsets cuts (each taken modulo len(s)+1,
// then sorted), so pieces may be empty and may split a rune.
func cutAt(s string, cuts []byte) []string {
	offs := make([]int, len(cuts))
	for i, c := range cuts {
		offs[i] = int(c) % (len(s) + 1)
	}
	slices.Sort(offs)
	pieces := make([]string, 0, len(offs)+1)
	prev := 0
	for _, o := range offs {
		pieces = append(pieces, s[prev:o])
		prev = o
	}
	return append(pieces, s[prev:])
}

// FuzzEncodeGenerate holds EncodeGenerate to encoding/json: for any
// fields and any split of the output into pieces, including splits inside
// a multi-byte rune and inside invalid UTF-8, the body is json.Marshal of
// the response with the joined output, plus a newline, and it fails
// exactly when encoding/json does. Encode of the joined value, by value
// and by pointer, gives the same bytes.
func FuzzEncodeGenerate(f *testing.F) {
	texts := mustCorpus(f)
	for i := 1; i < len(texts); i += 2 {
		f.Add("uc.go", texts[i], "fp", true, false, 0.25, []byte{38, 39, 40, 41, 200})
	}
	for _, name := range []string{"<a>&b.go", "line\u2028sep\u2029.go", "bad\xffbyte.go", "app"} {
		f.Add(name, "// from "+name+". DO NOT EDIT.\n\npackage "+name+"\n", "<fp>", false, true, 1e-7, []byte{9, 10, 11})
	}
	for _, tc := range []struct {
		out  string
		cuts []byte
	}{
		{"é\u2028€😀", []byte{1, 3, 4, 6, 8, 10}},
		{"\u2028\u2029", []byte{1, 2, 4, 5}},
		{"\xe2\x80", []byte{1}},
		{"\xe2\x80(x\xf0\x9f\x98", []byte{1, 2, 3, 6}},
		{"\xed\xa0\x80 surrogate \xc3", []byte{1, 2, 14}},
		{"nul \x00 del \x7f <&> \"\\\b\f\n\r\t", []byte{5, 12}},
		{"", []byte{0, 0}},
	} {
		f.Add("x.go", tc.out, "f", true, true, 12.5, tc.cuts)
	}
	for _, d := range []float64{0, math.Copysign(0, -1), 1e21, 123456789e-20, -5e-324, math.MaxFloat64, math.NaN(), math.Inf(-1)} {
		f.Add("d.go", "package p\n", "f", false, false, d, []byte{})
	}
	f.Fuzz(func(t *testing.T, name, output, fp string, cached, forwarded bool, dur float64, cuts []byte) {
		resp := GenerateResponse{Name: name, Output: output, Fingerprint: fp, Cached: cached, Forwarded: forwarded, DurationMS: dur}
		want, wantErr := json.Marshal(resp)
		pieces := cutAt(output, cuts)
		check := func(how string, data []byte, release func(), err error) {
			t.Helper()
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: err = %v, encoding/json gives %v", how, err, wantErr)
			}
			if err != nil {
				if data != nil || release != nil {
					t.Fatalf("%s: returned %q with the error", how, data)
				}
				return
			}
			defer release()
			if string(data) != string(want)+"\n" {
				t.Fatalf("%s of %q:\n got %q\nwant %q", how, pieces, data, want)
			}
		}
		hit := resp
		hit.Output = ""
		data, release, err := EncodeGenerate(&hit, pieces...)
		check("EncodeGenerate", data, release, err)
		data, release, err = Encode(resp)
		check("Encode", data, release, err)
		data, release, err = Encode(&resp)
		check("Encode of a pointer", data, release, err)
	})
}
