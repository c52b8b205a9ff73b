package clustertest

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// TestDrills runs every row of the drill table. Each row compares the
// process's goroutine count with its own baseline, so the rows run one at
// a time and no test in this package may call t.Parallel.
func TestDrills(t *testing.T) {
	for _, d := range Drills {
		t.Run(d.Name, func(t *testing.T) {
			r, err := Run(context.Background(), d)
			if err != nil {
				t.Fatalf("%v\nreport: %+v", err, r)
			}
			t.Logf("%+v", r)
		})
	}
}

// TestVictimOwnsTraffic: whatever ports the cluster draws, the victim a
// drill faults owns at least one working-set key. A fixed node index owned
// none of a 6-key working set in about 9% of port draws, and the node-kill
// drill then saw no retries and failed.
func TestVictimOwnsTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const fp = "454454de8452ad3c3e9d7cc5a056dc5ffed53bf23a124802b1e4856a21f62e6a"
	for _, d := range Drills {
		for draw := 0; draw < 500; draw++ {
			urls := make([]string, d.Nodes)
			for i := range urls {
				urls[i] = fmt.Sprintf("http://127.0.0.1:%d", 1024+rng.Intn(64511))
			}
			if victim, keys := victimFor(fp, d.Work, urls); keys < 1 {
				t.Fatalf("%s: victim %d of %v owns no key", d.Name, victim, urls)
			}
		}
	}
}
