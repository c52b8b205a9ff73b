package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// TestCacheKeySensitivity: the key is body-level. Fingerprint, source and
// verify change it; name and package are plan splice points and must not.
func TestCacheKeySensitivity(t *testing.T) {
	base := CacheKey("fp", "n.go", "src", "", false)
	for name, other := range map[string]string{
		"fingerprint": CacheKey("fp2", "n.go", "src", "", false),
		"source":      CacheKey("fp", "n.go", "src2", "", false),
		"verify":      CacheKey("fp", "n.go", "src", "", true),
	} {
		if other == base {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
	for name, other := range map[string]string{
		"name":    CacheKey("fp", "m.go", "src", "", false),
		"package": CacheKey("fp", "n.go", "src", "p", false),
		"both":    CacheKey("fp", "", "src", "vault", false),
	} {
		if other != base {
			t.Errorf("changing %s changed the cache key; it is a splice point", name)
		}
	}
}

// TestCacheKeyValue pins the key's derivation: SHA-256 over the
// fingerprint, the hex SHA-256 of the source and the verify flag, NUL
// separated. Daemons and SDKs of different builds route by this value, so
// it must not change when the way the source is digested does.
func TestCacheKeyValue(t *testing.T) {
	for _, tc := range []struct {
		fp, src string
		verify  bool
	}{
		{"fp", "src", false},
		{"", "", true},
		{"fp", strings.Repeat("package p\n", 500), false},
	} {
		src := sha256.Sum256([]byte(tc.src))
		sum := sha256.Sum256(fmt.Appendf(nil, "%s\x00%x\x00%t", tc.fp, src, tc.verify))
		want := hex.EncodeToString(sum[:])
		if got := CacheKey(tc.fp, "n.go", tc.src, "", tc.verify); got != want {
			t.Errorf("CacheKey(fp len %d, src len %d, %t) = %s, want %s", len(tc.fp), len(tc.src), tc.verify, got, want)
		}
	}
}

// TestRouteKeyResolvesUseCase: a use-case reference and the equivalent
// explicit (name, source) request route identically, so a client sending
// {"usecase": N} and a daemon hashing the resolved template agree on the
// owner.
func TestRouteKeyResolvesUseCase(t *testing.T) {
	byID := RouteKey("fp", GenerateRequest{UseCase: 3})
	if byID == RouteKey("fp", GenerateRequest{UseCase: 4}) {
		t.Fatal("different use cases share a route key")
	}
	// Unknown use case still yields a deterministic key.
	if RouteKey("fp", GenerateRequest{UseCase: 99}) != RouteKey("fp", GenerateRequest{UseCase: 99}) {
		t.Fatal("unknown use case key is not deterministic")
	}
	// A package override is a splice point: same body, same owner.
	if byID != RouteKey("fp", GenerateRequest{UseCase: 3, Package: "app"}) {
		t.Fatal("a package override moved a use case to another route key")
	}
	if RouteKey("fp", GenerateRequest{Source: "package p"}) != CacheKey("fp", "template.go", "package p", "", false) {
		t.Fatal("an explicit source does not route on its own body key")
	}
}

func clusterNodes(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://127.0.0.1:%d", 9000+i)
	}
	return nodes
}

// TestRendezvousDistribution: across 4 nodes, keys spread within ±20% of
// the uniform share (the satellite contract for the routing layer).
func TestRendezvousDistribution(t *testing.T) {
	nodes := clusterNodes(4)
	const keys = 8000
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		key := CacheKey("fp", "t.go", fmt.Sprintf("package p // %05d", i), "", false)
		counts[RendezvousOwner(key, nodes)]++
	}
	share := keys / len(nodes)
	lo, hi := int(float64(share)*0.8), int(float64(share)*1.2)
	for _, n := range nodes {
		if counts[n] < lo || counts[n] > hi {
			t.Errorf("node %s owns %d keys, want within [%d, %d] (±20%% of %d)", n, counts[n], lo, hi, share)
		}
	}
}

// TestRendezvousMinimalReshuffle: removing one node moves only the keys it
// owned; every key whose owner survives keeps that owner.
func TestRendezvousMinimalReshuffle(t *testing.T) {
	nodes := clusterNodes(4)
	const keys = 4000
	before := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		key := CacheKey("fp", "t.go", fmt.Sprintf("package p // %05d", i), "", false)
		before[key] = RendezvousOwner(key, nodes)
	}
	lost := nodes[2]
	survivors := append(append([]string(nil), nodes[:2]...), nodes[3])
	moved := 0
	for key, owner := range before {
		after := RendezvousOwner(key, survivors)
		if owner == lost {
			moved++
			continue
		}
		if after != owner {
			t.Fatalf("key owned by surviving node %s reshuffled to %s after losing %s", owner, after, lost)
		}
	}
	// The lost node's share (~1/4) is the only set that moves.
	if share := keys / len(nodes); moved < share*8/10 || moved > share*12/10 {
		t.Errorf("lost node owned %d keys, want roughly the uniform share %d", moved, share)
	}
}

// TestRendezvousRank: the rank order is consistent with ownership — the
// first entry is the owner, and dropping it promotes the second.
func TestRendezvousRank(t *testing.T) {
	nodes := clusterNodes(4)
	key := CacheKey("fp", "rank.go", "package p", "", false)
	ranked := RendezvousRank(key, nodes)
	if len(ranked) != len(nodes) {
		t.Fatalf("rank returned %d nodes, want %d", len(ranked), len(nodes))
	}
	if ranked[0] != RendezvousOwner(key, nodes) {
		t.Errorf("rank[0] = %s, owner = %s", ranked[0], RendezvousOwner(key, nodes))
	}
	rest := make([]string, 0, 3)
	for _, n := range nodes {
		if n != ranked[0] {
			rest = append(rest, n)
		}
	}
	if ranked[1] != RendezvousOwner(key, rest) {
		t.Errorf("rank[1] = %s, want the owner among survivors %s", ranked[1], RendezvousOwner(key, rest))
	}
	if RendezvousOwner(key, nil) != "" {
		t.Error("owner of empty node list should be empty")
	}
}
