package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"cognicryptgen/wire"
)

// maxBatchItems bounds one POST /v1/generate/batch request; the limit is
// part of the wire contract (the SDK's batch splitter sizes its per-node
// slices against it), so the constant lives there.
const maxBatchItems = wire.MaxBatchItems

// GenerateBatch fans req.Requests out across the worker pool and collects
// per-item results (used by POST /v1/generate/batch, the benchmark
// harness, and embedders). Each item takes the same path as a single
// request: a splice from its body's resident plan, else one attempt.
func (s *Server) GenerateBatch(ctx context.Context, req wire.BatchRequest) (wire.BatchResponse, error) {
	if len(req.Requests) == 0 {
		return wire.BatchResponse{}, errors.New("service: batch needs at least one request")
	}
	if len(req.Requests) > maxBatchItems {
		return wire.BatchResponse{}, fmt.Errorf("service: batch of %d requests exceeds the %d-item limit", len(req.Requests), maxBatchItems)
	}
	results := make([]wire.BatchItem, len(req.Requests))
	var wg sync.WaitGroup
	for i, r := range req.Requests {
		wg.Add(1)
		go func(i int, r wire.GenerateRequest) {
			defer wg.Done()
			// A panic in one item's slot must fail that item alone, not
			// unwind this goroutine (which would kill the process) or strand
			// wg.Wait.
			defer func() {
				if rec := recover(); rec != nil {
					s.recordPanic("batch-item", rec, debug.Stack())
					results[i] = wire.BatchItem{
						Index:  i,
						Error:  fmt.Sprintf("internal error: %v", rec),
						Status: http.StatusInternalServerError,
					}
				}
			}()
			itemCtx, cancel := ctx, context.CancelFunc(func() {})
			if req.ItemTimeoutMS > 0 {
				itemCtx, cancel = context.WithTimeout(ctx, time.Duration(req.ItemTimeoutMS)*time.Millisecond)
			}
			defer cancel()
			resp, err := s.Generate(itemCtx, r)
			if err != nil {
				results[i] = wire.BatchItem{Index: i, Error: err.Error(), Status: s.failStatus(err)}
				return
			}
			results[i] = wire.BatchItem{Index: i, OK: true, Response: &resp}
		}(i, r)
	}
	wg.Wait()
	out := wire.BatchResponse{Results: results}
	for _, r := range results {
		if r.OK {
			out.Succeeded++
		} else {
			out.Failed++
		}
	}
	return out, nil
}
