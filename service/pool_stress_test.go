package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolSubmitCloseStress races Submit against Close and asserts the
// shutdown contract: every submission either completes or fails with
// ErrClosed — never hangs. The submitters use context.Background(), so a
// submission Close neither waited for nor rejected would go unaccounted,
// and one stranded waiting for a slot would trip the watchdog. Run under
// -race in CI (scripts/verify.sh).
func TestPoolSubmitCloseStress(t *testing.T) {
	const (
		rounds       = 4
		submitters   = 16
		perSubmitter = 25
	)
	for round := 0; round < rounds; round++ {
		// The queue covers every submitter, so admission control
		// cannot shed and each outcome is a completion or ErrClosed.
		pool := NewPool(2, submitters)
		var completed, rejected atomic.Int64
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := 0; k < perSubmitter; k++ {
					err := pool.Submit(context.Background(), func() error { return nil })
					switch err {
					case nil:
						completed.Add(1)
					case ErrClosed:
						rejected.Add(1)
					default:
						t.Errorf("submit: %v", err)
					}
				}
			}()
		}
		closeDone := make(chan struct{})
		go func() {
			defer close(closeDone)
			<-start
			// Vary the shutdown point across rounds so Close lands in
			// different phases of the submission storm.
			time.Sleep(time.Duration(round) * 500 * time.Microsecond)
			pool.Close()
		}()
		close(start)

		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(60 * time.Second):
			t.Fatalf("round %d: submitters hung — a job was lost in the Submit/Close race (completed=%d rejected=%d)",
				round, completed.Load(), rejected.Load())
		}
		<-closeDone
		if got := completed.Load() + rejected.Load(); got != submitters*perSubmitter {
			t.Fatalf("round %d: %d outcomes for %d submissions", round, got, submitters*perSubmitter)
		}
	}
}
