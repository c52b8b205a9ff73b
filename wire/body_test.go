package wire

import (
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// untouchable is a body that fails the test if anything reads it.
type untouchable struct{ t *testing.T }

func (u untouchable) Read([]byte) (int, error) {
	u.t.Error("body read although its advertised length is over the limit")
	return 0, io.EOF
}

// TestReadBody covers the reader's four framings: an exact Content-Length,
// a body ending short of its length, an advertised length over the limit,
// and an unknown length.
func TestReadBody(t *testing.T) {
	const limit = 64
	body := `{"output":"package p"}`
	for _, tc := range []struct {
		name    string
		body    io.Reader
		length  int64
		want    string
		wantErr error // nil: success; else errors.Is target
	}{
		{"exact length", strings.NewReader(body), int64(len(body)), body, nil},
		{"empty", strings.NewReader(""), 0, "", nil},
		{"short of its length", strings.NewReader(body[:10]), int64(len(body)), "", io.ErrUnexpectedEOF},
		{"advertised over the limit", untouchable{t}, limit + 1, "", ErrBodyTooLarge},
		{"unknown length", strings.NewReader(body), -1, body, nil},
		{"unknown length over the limit", strings.NewReader(strings.Repeat("x", limit+1)), -1, "", ErrBodyTooLarge},
		{"unknown length at the limit", strings.NewReader(strings.Repeat("x", limit)), -1, strings.Repeat("x", limit), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := &http.Response{Body: io.NopCloser(tc.body), ContentLength: tc.length}
			data, err := ReadBody(resp, limit)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				if data != nil {
					t.Fatalf("returned %q with the error; a failed read must yield no bytes", data)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != tc.want {
				t.Fatalf("read %q, want %q", data, tc.want)
			}
			if tc.length >= 0 && int64(cap(data)) != tc.length {
				t.Errorf("cap %d for a %d-byte body: an exact length must be read into exactly that many bytes", cap(data), tc.length)
			}
		})
	}
}

// TestReadBodyRefusesBeforeAllocating: a huge advertised length is refused
// up front, not after allocating a buffer for it.
func TestReadBodyRefusesBeforeAllocating(t *testing.T) {
	const limit = 8 << 20
	resp := &http.Response{Body: io.NopCloser(untouchable{t}), ContentLength: limit + 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBody(resp, limit)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("err = %v, want ErrBodyTooLarge", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= limit/8 {
		t.Errorf("refusing a %d-byte advertised body allocated %d bytes", limit+1, grew)
	}
}
