package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrBodyTooLarge reports a body over the reader's limit, whether
// advertised by its length or found while reading.
var ErrBodyTooLarge = errors.New("body too large")

// maxPooledBody bounds the buffers kept for reuse: a buffer grown past it
// (a full batch body) goes back to the GC, not the pool.
const maxPooledBody = 64 << 10

// bodyPool holds the buffers of every body read (ReadBody) and every
// response encoded (Encode), in both directions of every hop.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putBuffer(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// ReadBody reads body whole into a pooled buffer, refusing more than limit
// bytes. It is the one HTTP body reader of the module: the daemon reads
// requests with it (passing r.Body and r.ContentLength), and the SDK and
// the daemon's peer forwarder and prober read responses with it (passing
// resp.Body and resp.ContentLength), each under its own limit.
//
// The returned bytes stay valid until release is called, which hands the
// buffer back for reuse; call it once the bytes are decoded (Unmarshal
// copies every value out). On error nothing is held and release is nil.
//
// The daemon frames every response with an explicit Content-Length, and
// the SDK and the forwarder send every request with one, so the common
// case reads exactly that many bytes in place. A length over the limit is
// refused before anything is allocated or read. Below it, no more than
// 64 KiB is allocated ahead of the bytes that arrive, so a peer that
// advertises the limit and then stalls does not pin the limit's worth of
// memory. A body that ends short of its length is an error
// (io.ErrUnexpectedEOF), never a prefix handed to a decoder. When the length is unknown (-1: chunked encoding, a
// proxy re-chunking, transparent gzip, a severed connection) it falls back
// to a growing read capped at limit.
func ReadBody(body io.Reader, length, limit int64) (data []byte, release func(), err error) {
	if length > limit {
		return nil, nil, fmt.Errorf("%w: length %d exceeds %d bytes", ErrBodyTooLarge, length, limit)
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if length >= 0 {
		// A body up to the pooled size is read in place into exactly its
		// length; the rest of a larger one grows as it arrives.
		head := min(length, maxPooledBody)
		buf.Grow(int(head))
		data = buf.AvailableBuffer()[:head:head]
		_, err := io.ReadFull(body, data)
		if err == nil && length > head {
			buf.Write(data)
			_, err = buf.ReadFrom(io.LimitReader(body, length-head))
			if data = buf.Bytes(); err == nil && int64(len(data)) < length {
				err = io.ErrUnexpectedEOF
			}
			data = data[:len(data):len(data)]
		}
		if err != nil {
			putBuffer(buf)
			return nil, nil, fmt.Errorf("reading %d-byte body: %w", length, err)
		}
	} else {
		if _, err := buf.ReadFrom(io.LimitReader(body, limit+1)); err != nil {
			putBuffer(buf)
			return nil, nil, err
		}
		if int64(buf.Len()) > limit {
			putBuffer(buf)
			return nil, nil, fmt.Errorf("%w: exceeds %d bytes", ErrBodyTooLarge, limit)
		}
		data = buf.Bytes()
	}
	return data, func() { putBuffer(buf) }, nil
}
