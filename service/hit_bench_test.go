package service

import (
	"context"
	"net/http/httptest"
	"testing"

	"cognicryptgen/client"
	"cognicryptgen/wire"
)

// BenchmarkCatalogueHit is one catalogue hit end to end on one node: the
// SDK asks an httptest daemon for use case 3, and the daemon answers by
// splicing the plan its boot warm compiled. It is the request path of the
// catalogue_hits workload, so B/op and allocs/op count what one hit costs
// the SDK and the daemon together (both run in this process): request
// encoding, HTTP, the splice, response encoding and decoding. The daemon
// writes the plan's pieces into the response body without joining them,
// so the output is built as a string once, by the SDK's decode.
func BenchmarkCatalogueHit(b *testing.B) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	waitWarm(b, srv)
	c, err := client.New(client.Config{Nodes: []string{ts.URL}})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	req := wire.GenerateRequest{UseCase: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Generate(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("use case 3 missed the warmed plan")
		}
	}
}
