package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDisarmedFireIsNil(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("fresh state reports enabled")
	}
	if err := Fire("anything"); err != nil {
		t.Fatalf("disarmed Fire = %v, want nil", err)
	}
}

func TestErrorModeIsTyped(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p", Fault{Mode: ModeError})
	err := Fire("p")
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("Fire = %v, want *Error", err)
	}
	if fe.Point != "p" || fe.Mode != ModeError {
		t.Fatalf("injected error = %+v", fe)
	}
	// Other points stay disarmed.
	if err := Fire("q"); err != nil {
		t.Fatalf("unarmed sibling point fired: %v", err)
	}
	Disarm("p")
	if err := Fire("p"); err != nil {
		t.Fatalf("disarmed point still fires: %v", err)
	}
}

func TestPanicMode(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p", Fault{Mode: ModePanic})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic mode did not panic")
		}
		if fe, ok := r.(*Error); !ok || fe.Mode != ModePanic {
			t.Fatalf("panic value = %v, want *Error in panic mode", r)
		}
	}()
	_ = Fire("p")
}

func TestLatencyMode(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p", Fault{Mode: ModeLatency, Latency: 30 * time.Millisecond})
	start := time.Now()
	if err := Fire("p"); err != nil {
		t.Fatalf("latency mode returned error: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("latency fault slept only %v", d)
	}
}

// TestTimesBoundSelfDisarms: a fault armed with Times=N fires exactly N
// times even under concurrent firing, then the point disarms itself.
func TestTimesBoundSelfDisarms(t *testing.T) {
	Reset()
	defer Reset()
	Arm("p", Fault{Mode: ModeError, Times: 3})
	var mu sync.Mutex
	fired := 0
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if Fire("p") != nil {
				mu.Lock()
				fired++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if fired != 3 {
		t.Fatalf("fault fired %d times, want exactly 3", fired)
	}
	if err := Fire("p"); err != nil {
		t.Fatalf("exhausted point still fires: %v", err)
	}
	if Enabled() {
		t.Fatal("exhausted point left the package enabled")
	}
}
