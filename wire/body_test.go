package wire

import (
	"errors"
	"io"
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
// and an unknown length. The limit lies past the pooled size, so an exact
// length there is read in two parts, its tail grown as it arrives.
func TestReadBody(t *testing.T) {
	const limit = 3*maxPooledBody + 5
	body := `{"output":"package p"}`
	long := strings.Repeat("x", limit)
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
		{"exact length past the pooled size", strings.NewReader(long), limit, long, nil},
		{"short past the pooled size", strings.NewReader(long[:limit-1]), limit, "", io.ErrUnexpectedEOF},
		{"advertised over the limit", untouchable{t}, limit + 1, "", ErrBodyTooLarge},
		{"unknown length", strings.NewReader(body), -1, body, nil},
		{"unknown length over the limit", strings.NewReader(long + "x"), -1, "", ErrBodyTooLarge},
		{"unknown length at the limit", strings.NewReader(long), -1, long, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, release, err := ReadBody(tc.body, tc.length, limit)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				if data != nil || release != nil {
					t.Fatalf("returned %q with the error; a failed read must yield no bytes and hold no buffer", data)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer release()
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadBody(untouchable{t}, limit+1, limit)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("err = %v, want ErrBodyTooLarge", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= limit/8 {
		t.Errorf("refusing a %d-byte advertised body allocated %d bytes", limit+1, grew)
	}
}
