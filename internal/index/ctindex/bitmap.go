package ctindex

import "hash/fnv"

// Bitmap is a fixed-width bit fingerprint (the paper's CT-Index uses
// 4096-bit bitmaps per graph; Fig 18 also evaluates 8192).
type Bitmap []uint64

// NewBitmap returns an all-zero bitmap of the given width in bits (rounded
// up to a multiple of 64).
func NewBitmap(bitWidth int) Bitmap {
	if bitWidth < 64 {
		bitWidth = 64
	}
	return make(Bitmap, (bitWidth+63)/64)
}

// Bits returns the bitmap width in bits.
func (b Bitmap) Bits() int { return len(b) * 64 }

// Set sets bit i (mod width).
func (b Bitmap) Set(i uint64) {
	i %= uint64(b.Bits())
	b[i/64] |= 1 << (i % 64)
}

// SubsetOf reports whether every set bit of b is also set in other — the
// CT-Index filtering test: supergraphs must contain all features of a
// subgraph, so bitmap(q) ⊆ bitmap(G) is necessary for q ⊆ G.
func (b Bitmap) SubsetOf(other Bitmap) bool {
	for i := range b {
		if b[i]&^other[i] != 0 {
			return false
		}
	}
	return true
}

// Saturate sets every bit. A saturated fingerprint passes every filter —
// the sound fallback when feature enumeration exceeds its budget on a
// dataset graph (over-approximation can only add false positives).
func (b Bitmap) Saturate() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

// AddFeature hashes a canonical feature key into k bit positions
// (double hashing over two FNV variants, the standard Bloom construction).
func (b Bitmap) AddFeature(key string, k int) {
	h1 := fnv64a(key)
	h2 := fnv64(key) | 1 // odd stride
	for i := 0; i < k; i++ {
		b.Set(h1 + uint64(i)*h2)
	}
}

func fnv64a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func fnv64(s string) uint64 {
	h := fnv.New64()
	h.Write([]byte(s))
	return h.Sum64()
}
