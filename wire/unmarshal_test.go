package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cognicryptgen/gen"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
)

// corpus returns the 13 embedded template sources and their 13 generated
// outputs: the text the three one-copy fields carry in practice.
var corpus = sync.OnceValues(func() ([]string, error) {
	g, err := gen.New(rules.MustLoad(), "", gen.Options{})
	if err != nil {
		return nil, err
	}
	var texts []string
	for _, uc := range templates.All() {
		src, err := templates.Source(uc)
		if err != nil {
			return nil, err
		}
		res, err := g.GenerateFile(uc.File, src)
		if err != nil {
			return nil, err
		}
		texts = append(texts, src, res.Output)
	}
	return texts, nil
})

func mustCorpus(tb testing.TB) []string {
	tb.Helper()
	texts, err := corpus()
	if err != nil {
		tb.Fatal(err)
	}
	return texts
}

// FuzzUnquote holds unquote to encoding/json: for every input json.Unmarshal
// accepts as a string, unquote of the trimmed literal returns the same
// string, and its sizing pass (walk with no builder) its length.
func FuzzUnquote(f *testing.F) {
	for _, s := range mustCorpus(f) {
		lit, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(lit)
	}
	for _, s := range []string{
		`""`,
		"\"bad \xff utf-8 \xed\xa0\x80 surrogate \xc3\"",
		`"lone \ud800 high, lone \udc00 low, reversed \udc00\ud800"`,
		`"paired 😀, high then escape \ud800\n"`,
		`"nul \u0000 and \/ slash"`,
		`"all escapes \" \\ \/ \b \f \n \r \t é €"`,
		` "padded" `,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want string
		if json.Unmarshal(data, &want) != nil {
			return
		}
		lit := bytes.Trim(data, " \t\r\n")
		got, ok := unquote(lit)
		if !ok || got != want {
			t.Fatalf("unquote(%q) = %q, %t; encoding/json gives %q", lit, got, ok, want)
		}
		if n, ok := walk(lit, nil); !ok || n != len(want) {
			t.Fatalf("walk(%q, nil) = %d, %t; want %d", lit, n, ok, len(want))
		}
	})
}

// TestUnmarshalMatchesEncodingJSON: Unmarshal fills every wire type it
// special-cases exactly as json.Unmarshal does, value and error alike,
// including merging into a non-zero value, an explicit null, trailing
// data, a syntax error, and a field of the wrong JSON type (encoding/json
// goes on decoding the fields after it).
func TestUnmarshalMatchesEncodingJSON(t *testing.T) {
	out := mustCorpus(t)[1]
	for _, tc := range []struct {
		name string
		body string
		into func() any
	}{
		{"generate request", `{"name":"a.go","source":` + quote(t, out) + `,"package":"app","verify":true}`, func() any { return &GenerateRequest{} }},
		{"generate request by use case", `{"usecase":3}`, func() any { return &GenerateRequest{Source: "kept"} }},
		{"analyze request", `{"name":"b.go","source":"package p\n\tx := \"é\""}`, func() any { return &AnalyzeRequest{} }},
		{"generate response", `{"name":"c.go","output":` + quote(t, out) + `,"ruleset_fingerprint":"f","cached":true,"report":{"template":"t"}}`, func() any { return &GenerateResponse{} }},
		{"older daemon's report tree", `{"name":"c.go","output":` + quote(t, out) + `,"report":{"template":"t","methods":[{"name":"Hash","rules":[{"rule":"gca.MessageDigest","path":["c1","u1"],"resolutions":["alg: derived \"SHA-256\""]}]}],"assumptions":["a"],"pushed_up":null},"ruleset_fingerprint":"f","cached":true}`, func() any { return &GenerateResponse{} }},
		{"older peer's coalesced flag", `{"name":"c.go","output":` + quote(t, out) + `,"ruleset_fingerprint":"f","cached":false,"coalesced":true}`, func() any { return &GenerateResponse{} }},
		{"null output", `{"output":null,"name":"d.go"}`, func() any { return &GenerateResponse{Output: "kept"} }},
		{"case-insensitive key", `{"OUTPUT":"x\ty"}`, func() any { return &GenerateResponse{} }},
		{"duplicate key", `{"source":"a","source":"b\n"}`, func() any { return &AnalyzeRequest{} }},
		{"error envelope", `{"code":"overloaded","message":"m","retryable":true,"status":429}`, func() any { return &Error{} }},
		{"trailing data", `{"usecase":1} junk`, func() any { return &GenerateRequest{} }},
		{"second value", `{"usecase":1}{"usecase":2}`, func() any { return &GenerateRequest{} }},
		{"number source", `{"source":5}`, func() any { return &GenerateRequest{} }},
		{"object output", `{"output":{}}`, func() any { return &GenerateResponse{} }},
		{"wrong type after source", `{"source":"x\ty","verify":"no","name":"e.go"}`, func() any { return &GenerateRequest{Source: "old"} }},
		{"wrong type source then name", `{"source":5,"name":"f.go"}`, func() any { return &AnalyzeRequest{Source: "old"} }},
		{"wrong type output then name", `{"output":[1],"name":"g.go","cached":true}`, func() any { return &GenerateResponse{Output: "old"} }},
		{"syntax error", `{"output":"x","name":`, func() any { return &GenerateResponse{Output: "old"} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, got := tc.into(), tc.into()
			wantErr := json.Unmarshal([]byte(tc.body), want)
			gotErr := Unmarshal([]byte(tc.body), got)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("err = %v, encoding/json gives %v", gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %+v, encoding/json gives %+v", got, want)
			}
		})
	}
}

func quote(t *testing.T, s string) string {
	t.Helper()
	lit, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(lit)
}

// TestUnmarshalOutputOneAllocation: decoding a ~5 KiB GenerateResponse
// costs exactly one allocation more than the same response with an empty
// output — the output string itself, where encoding/json makes a scratch
// buffer and a copy.
func TestUnmarshalOutputOneAllocation(t *testing.T) {
	var out string
	for _, s := range mustCorpus(t) {
		if len(s) > len(out) {
			out = s
		}
	}
	for len(out) < 5<<10 {
		out += out
	}
	out = out[:5<<10]
	if !strings.Contains(out, "\n") || !strings.Contains(out, `"`) {
		t.Fatal("the output must exercise escapes")
	}
	full := GenerateResponse{Name: "x.go", Output: out, Fingerprint: "f", Cached: true}
	empty := full
	empty.Output = ""
	allocs := func(r GenerateResponse) float64 {
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			var v GenerateResponse
			if err := Unmarshal(body, &v); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got, base := allocs(full), allocs(empty); got != base+1 {
		t.Fatalf("decoding a %d-byte output took %v allocations against %v with none; want exactly one more", len(out), got, base)
	}
}
