package wire

import (
	"errors"
	"fmt"
	"io"
	"net/http"
)

// ErrBodyTooLarge reports a response body over the reader's limit, whether
// advertised by Content-Length or found while reading.
var ErrBodyTooLarge = errors.New("response body too large")

// ReadBody reads resp.Body whole, refusing more than limit bytes. It is the
// one response reader of the SDK and the daemon's peer forwarder, each
// passing its own limit.
//
// The daemon frames every response with an explicit Content-Length, so the
// common case allocates exactly that many bytes and reads them in place. A
// larger advertised length is refused before anything is allocated, and a
// body that ends short of its length is an error (io.ErrUnexpectedEOF),
// never a prefix handed to a decoder. When the length is unknown (-1: a
// proxy re-chunking, transparent gzip, a severed connection) it falls back
// to a growing read capped at limit.
func ReadBody(resp *http.Response, limit int64) ([]byte, error) {
	n := resp.ContentLength
	if n > limit {
		return nil, fmt.Errorf("%w: Content-Length %d exceeds %d bytes", ErrBodyTooLarge, n, limit)
	}
	if n >= 0 {
		data := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, data); err != nil {
			return nil, fmt.Errorf("reading %d-byte body: %w", n, err)
		}
		return data, nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("%w: exceeds %d bytes", ErrBodyTooLarge, limit)
	}
	return data, nil
}
