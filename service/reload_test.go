package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// stripHeaderLine drops the "// Code generated ... from <name>" first line:
// the cache-busting unique request names land there, and only there.
func stripHeaderLine(out string) string {
	if i := strings.IndexByte(out, '\n'); i >= 0 {
		return out[i+1:]
	}
	return out
}

// TestReloadUnderLoad is the registry's snapshot-swap contract under fire:
// /v1/reload racing concurrent /v1/generate requests must keep serving a
// complete, consistent rule set at every instant — a request sees either
// the pre-reload snapshot or the post-reload one, never a torn mix — and
// every generation must stay byte-identical to the single-threaded result.
// scripts/verify.sh runs this under -race.
func TestReloadUnderLoad(t *testing.T) {
	srv, err := New(Config{Workers: 2, CacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	cases := templates.All()
	want := make(map[int]string, len(cases))
	for _, uc := range cases {
		resp, err := srv.Generate(ctx, wire.GenerateRequest{UseCase: uc.ID})
		if err != nil {
			t.Fatalf("use case %d: %v", uc.ID, err)
		}
		want[uc.ID] = resp.Output
	}

	const (
		generators = 8
		perG       = 6
		reloads    = 5
	)
	var wg sync.WaitGroup
	var failures atomic.Int64
	errc := make(chan error, generators*perG+reloads)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			if _, err := srv.Registry().Reload(); err != nil {
				failures.Add(1)
				errc <- fmt.Errorf("reload %d: %w", i, err)
			}
		}
	}()
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				uc := cases[(g+i)%len(cases)]
				src, err := templates.Source(uc)
				if err != nil {
					failures.Add(1)
					errc <- err
					return
				}
				// A unique name per request: each is spliced from, or
				// compiles, the plan of whichever snapshot it sees
				// mid-reload, and its bytes must not depend on which.
				name := fmt.Sprintf("reload_g%d_i%d_%s", g, i, uc.File)
				resp, err := srv.Generate(ctx, wire.GenerateRequest{Name: name, Source: src})
				if err != nil {
					failures.Add(1)
					errc <- fmt.Errorf("goroutine %d iter %d (%s): %w", g, i, uc.Name, err)
					return
				}
				if stripHeaderLine(resp.Output) != stripHeaderLine(want[uc.ID]) {
					failures.Add(1)
					errc <- fmt.Errorf("goroutine %d iter %d (%s): output diverged mid-reload", g, i, uc.Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if failures.Load() == 0 {
		// Sanity: the reloads actually happened while generations ran.
		snap := srv.Registry().Snapshot()
		if snap.Version < uint64(reloads) {
			t.Errorf("only %d snapshot versions, want >= %d", snap.Version, reloads)
		}
	}
}
