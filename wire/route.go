package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"

	"cognicryptgen/internal/srchash"
	"cognicryptgen/templates"
)

// CacheKey derives the body-level generation key: the rule-set fingerprint
// (so a reload with different rules invalidates everything), a hash of the
// template source, and the verify option. It is the cluster routing key,
// so the peer forwarder and the client SDK's rendezvous router send every
// request over one body to the node holding that body's compiled plan;
// gen keys that plan on the same tuple.
//
// name and pkg are the plan's two splice points and never enter the key:
// requests that differ only in them share one plan and one owner. The
// parameters stay so every caller passes the full request tuple.
func CacheKey(fingerprint, name, source, pkg string, verify bool) string {
	src := srchash.Sum(source)
	sum := sha256.Sum256(fmt.Appendf(nil, "%s\x00%x\x00%t", fingerprint, src, verify))
	return hex.EncodeToString(sum[:])
}

// RouteKey computes the routing key for a GenerateRequest as the daemon
// will see it: a UseCase reference is resolved to its embedded template
// source first, so a client routing {"usecase": 3} and a daemon hashing
// the resolved template agree on the owner. fingerprint may be ""
// when the client has not yet observed the cluster's rule-set fingerprint;
// the key is then still deterministic, merely in a different (equally
// consistent) shard layout, and the owning daemon's one-hop forward
// corrects any disagreement.
func RouteKey(fingerprint string, req GenerateRequest) string {
	src := req.Source
	if req.UseCase != 0 {
		if uc, err := templates.ByID(req.UseCase); err == nil {
			if s, serr := templates.Source(uc); serr == nil {
				src = s
			}
		}
	}
	return CacheKey(fingerprint, req.Name, src, req.Package, req.Verify)
}

// rendezvousScore is the highest-random-weight score of (node, key).
// FNV-1a is plenty: the keys are already SHA-256 hex strings, so the
// score's input entropy is high, and the hash only has to spread it.
func rendezvousScore(node, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}

// RendezvousOwner returns the node owning key under rendezvous
// (highest-random-weight) hashing: the node whose score for the key is
// highest. Rendezvous hashing gives the two properties the cluster needs
// with no ring state: keys spread near-uniformly across nodes, and
// removing a node moves only the keys it owned (every other key keeps its
// owner — minimal reshuffle). Returns "" for an empty node list. Ties
// break toward the lexically smaller node so every caller agrees.
func RendezvousOwner(key string, nodes []string) string {
	var owner string
	var best uint64
	for _, n := range nodes {
		s := rendezvousScore(n, key)
		if owner == "" || s > best || (s == best && n < owner) {
			owner, best = n, s
		}
	}
	return owner
}

// RendezvousRank returns nodes ordered by descending rendezvous score for
// key: the owner first, then the node that would own the key if the owner
// vanished, and so on. Clients walk this order on failover so a dead
// owner's keys migrate consistently to the same runner-up everywhere.
func RendezvousRank(key string, nodes []string) []string {
	ranked := append([]string(nil), nodes...)
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := rendezvousScore(ranked[i], key), rendezvousScore(ranked[j], key)
		if si != sj {
			return si > sj
		}
		return ranked[i] < ranked[j]
	})
	return ranked
}
