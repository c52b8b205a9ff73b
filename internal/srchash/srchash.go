// Package srchash digests template sources. The daemon hashes one source
// per request twice over — once for the body-level cache key
// (wire.CacheKey) and once for the plan cache's key (gen's planKey) — and
// sha256.Sum256([]byte(src)) would copy the whole ~4 KiB template to the
// heap each time. Sum feeds the string through a small fixed buffer
// instead, so both keys hash a source without copying it.
package srchash

import "crypto/sha256"

// chunk is the staging buffer's size: a whole number of SHA-256 blocks.
const chunk = 8 * sha256.BlockSize

// Sum returns sha256.Sum256 of s without converting s to a []byte.
func Sum(s string) [sha256.Size]byte {
	h := sha256.New()
	var buf [chunk]byte
	for len(s) > 0 {
		n := copy(buf[:], s)
		h.Write(buf[:n])
		s = s[n:]
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
