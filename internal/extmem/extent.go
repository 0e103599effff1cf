package extmem

import "fmt"

// Extent is a contiguous region of external memory, the unit algorithms
// operate on (an edge file, a bucket, a scratch buffer). Extents are cheap
// values; sub-slicing does not copy.
type Extent struct {
	sp   *Space
	base int64
	n    int64
}

// Len returns the extent length in words.
func (e Extent) Len() int64 { return e.n }

// Base returns the starting address of the extent in its Space.
func (e Extent) Base() int64 { return e.base }

// Space returns the Space the extent lives in.
func (e Extent) Space() *Space { return e.sp }

// Read returns word i of the extent.
func (e Extent) Read(i int64) Word {
	if i < 0 || i >= e.n {
		panic(fmt.Sprintf("extmem: extent read out of range: %d not in [0,%d)", i, e.n))
	}
	return e.sp.Read(e.base + i)
}

// Span returns a read-only view of the extent's words from i onward: the
// rest of i's block on a simulated Space, the rest of the extent on a
// native one (or the rest of the core, for an extent that straddles a
// session's core and its scratch). The block is fetched exactly as Read(i)
// would fetch it, but no word read is counted: the caller charges the words
// it consumes with Space.CountReads, which keeps the accounting exact even
// when it re-takes a span before consuming the previous one.
//
// The view is valid only until the next access to the Space: a later
// access may evict the block and reuse its frame. A scan that hands words
// to code which may touch the Space must re-take the span afterwards.
func (e Extent) Span(i int64) []Word {
	if i < 0 || i >= e.n {
		panic(fmt.Sprintf("extmem: extent span out of range: %d not in [0,%d)", i, e.n))
	}
	return e.sp.span(e.base+i, e.base+e.n)
}

// Write stores v at word i of the extent.
func (e Extent) Write(i int64, v Word) {
	if i < 0 || i >= e.n {
		panic(fmt.Sprintf("extmem: extent write out of range: %d not in [0,%d)", i, e.n))
	}
	e.sp.Write(e.base+i, v)
}

// Slice returns the sub-extent [lo, hi).
func (e Extent) Slice(lo, hi int64) Extent {
	if lo < 0 || hi < lo || hi > e.n {
		panic(fmt.Sprintf("extmem: bad extent slice [%d,%d) of %d", lo, hi, e.n))
	}
	return Extent{sp: e.sp, base: e.base + lo, n: hi - lo}
}

// Prefix returns the sub-extent [0, n).
func (e Extent) Prefix(n int64) Extent { return e.Slice(0, n) }

// Load copies the extent into the native slice dst (which must be at least
// Len words). The words pass through the cache, so the copy is charged the
// usual scan cost; the caller is responsible for leasing space for dst.
func (e Extent) Load(dst []Word) {
	if int64(len(dst)) < e.n {
		panic("extmem: Load destination too small")
	}
	// dst is native memory, so nothing touches the Space between spans.
	for i := int64(0); i < e.n; {
		i += int64(copy(dst[i:], e.Span(i)))
	}
	e.sp.CountReads(e.n)
}

// Store copies the native slice src into the extent (charged as a scan).
func (e Extent) Store(src []Word) {
	if int64(len(src)) > e.n {
		panic("extmem: Store source too large")
	}
	for i, w := range src {
		e.sp.Write(e.base+int64(i), w)
	}
}

// CopyTo copies the extent into dst, which must be at least as long.
func (e Extent) CopyTo(dst Extent) {
	if dst.n < e.n {
		panic("extmem: CopyTo destination too small")
	}
	for i := int64(0); i < e.n; i++ {
		dst.sp.Write(dst.base+i, e.sp.Read(e.base+i))
	}
}

// Fill sets every word of the extent to v.
func (e Extent) Fill(v Word) {
	for i := int64(0); i < e.n; i++ {
		e.sp.Write(e.base+i, v)
	}
}
