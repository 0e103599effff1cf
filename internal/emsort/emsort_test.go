package emsort

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/extmem"
)

func newSpace() *extmem.Space {
	return extmem.NewSpace(extmem.Config{M: 1 << 12, B: 1 << 6})
}

func fillRandom(ext extmem.Extent, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	ref := make([]uint64, ext.Len())
	for i := range ref {
		ref[i] = rng.Uint64()
		ext.Write(int64(i), ref[i])
	}
	return ref
}

type sorter struct {
	name string
	fn   func(extmem.Extent, int, Key)
}

var sorters = []sorter{
	{"multiway", SortRecords},
	{"oblivious", ObliviousSortRecords},
	{"funnel", FunnelSortRecords},
}

func TestSortersAgainstReference(t *testing.T) {
	sizes := []int64{0, 1, 2, 3, 7, 64, 65, 1000, 4096, 10000, 50000}
	for _, s := range sorters {
		for _, n := range sizes {
			sp := newSpace()
			ext := sp.Alloc(n)
			ref := fillRandom(ext, n+17)
			sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			s.fn(ext, 1, Identity)
			for i := int64(0); i < n; i++ {
				if got := ext.Read(i); got != ref[i] {
					t.Fatalf("%s n=%d: word %d = %d, want %d", s.name, n, i, got, ref[i])
				}
			}
		}
	}
}

func TestSortWithCustomKey(t *testing.T) {
	// Sort descending by using the complement as key.
	for _, s := range sorters {
		sp := newSpace()
		n := int64(5000)
		ext := sp.Alloc(n)
		fillRandom(ext, 3)
		s.fn(ext, 1, func(w extmem.Word) uint64 { return ^w })
		for i := int64(1); i < n; i++ {
			if ext.Read(i-1) < ext.Read(i) {
				t.Fatalf("%s: not descending at %d", s.name, i)
			}
		}
	}
}

func TestSortRecordsStride2(t *testing.T) {
	for _, s := range sorters {
		sp := newSpace()
		nRec := 4000
		ext := sp.Alloc(int64(2 * nRec))
		rng := rand.New(rand.NewSource(9))
		type rec struct{ k, v uint64 }
		ref := make([]rec, nRec)
		for i := range ref {
			ref[i] = rec{uint64(rng.Intn(500)), uint64(i)} // many duplicate keys
			ext.Write(int64(2*i), ref[i].k)
			ext.Write(int64(2*i+1), ref[i].v)
		}
		s.fn(ext, 2, Identity)
		// Keys nondecreasing and payloads still paired with their keys.
		pair := make(map[uint64]uint64, nRec)
		for i := range ref {
			pair[ref[i].v] = ref[i].k
		}
		var prev uint64
		for i := 0; i < nRec; i++ {
			k, v := ext.Read(int64(2*i)), ext.Read(int64(2*i+1))
			if k < prev {
				t.Fatalf("%s: keys not sorted at record %d", s.name, i)
			}
			prev = k
			if pair[v] != k {
				t.Fatalf("%s: record %d payload %d has key %d, want %d", s.name, i, v, k, pair[v])
			}
		}
	}
}

func TestSortPreservesMultiset(t *testing.T) {
	prop := func(vals []uint16, which uint8) bool {
		sp := newSpace()
		ext := sp.Alloc(int64(len(vals)))
		counts := map[uint64]int{}
		for i, v := range vals {
			ext.Write(int64(i), uint64(v))
			counts[uint64(v)]++
		}
		s := sorters[int(which)%len(sorters)]
		s.fn(ext, 1, Identity)
		for i := int64(0); i < ext.Len(); i++ {
			counts[ext.Read(i)]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return IsSorted(ext, 1, Identity)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStrideValidation(t *testing.T) {
	sp := newSpace()
	ext := sp.Alloc(7)
	for _, s := range sorters {
		func() {
			defer func() { recover() }()
			s.fn(ext, 2, Identity)
			t.Errorf("%s: odd length with stride 2 should panic", s.name)
		}()
	}
}

func TestMultiwaySortIOComplexity(t *testing.T) {
	// For n in the single-merge-pass regime, multiway mergesort should use
	// roughly 4n/B I/Os (read+write runs, read+write merge). Allow 3x slack
	// for copy-back and partial blocks.
	cfg := extmem.Config{M: 1 << 12, B: 1 << 6}
	for _, n := range []int64{1 << 14, 1 << 16} {
		sp := extmem.NewSpace(cfg)
		ext := sp.Alloc(n)
		fillRandom(ext, 1)
		sp.DropCache()
		sp.ResetStats()
		Sort(ext, Identity)
		sp.Flush()
		ios := sp.Stats().IOs()
		ideal := uint64(4 * n / int64(cfg.B))
		if ios > 3*ideal {
			t.Errorf("n=%d: multiway sort used %d I/Os, ideal ~%d", n, ios, ideal)
		}
	}
}

func TestObliviousSortIOScaling(t *testing.T) {
	// Oblivious binary mergesort is O((n/B) log2 n); check the measured
	// I/Os stay within a small constant of (n/B)·log2(n/base).
	cfg := extmem.Config{M: 1 << 12, B: 1 << 6}
	n := int64(1 << 16)
	sp := extmem.NewSpace(cfg)
	ext := sp.Alloc(n)
	fillRandom(ext, 2)
	sp.DropCache()
	sp.ResetStats()
	ObliviousSort(ext, Identity)
	sp.Flush()
	ios := float64(sp.Stats().IOs())
	passes := math.Ceil(math.Log2(float64(n) / float64(obliviousBaseRecords)))
	bound := 4 * (passes + 2) * float64(n) / float64(cfg.B)
	if ios > bound {
		t.Errorf("oblivious sort: %d I/Os exceeds bound %.0f", uint64(ios), bound)
	}
	if !IsSorted(ext, 1, Identity) {
		t.Error("not sorted")
	}
}

func TestFunnelBeatsBinaryOblivious(t *testing.T) {
	// Funnelsort's recursion saves I/Os versus log2-pass binary mergesort
	// once n/M is large. This is the whole point of implementing it; make
	// sure it holds on at least one configuration.
	cfg := extmem.Config{M: 1 << 10, B: 1 << 5}
	n := int64(1 << 17)
	run := func(fn func(extmem.Extent, int, Key)) uint64 {
		sp := extmem.NewSpace(cfg)
		ext := sp.Alloc(n)
		fillRandom(ext, 5)
		sp.DropCache()
		sp.ResetStats()
		fn(ext, 1, Identity)
		sp.Flush()
		if !IsSorted(ext, 1, Identity) {
			t.Fatal("not sorted")
		}
		return sp.Stats().IOs()
	}
	funnel := run(FunnelSortRecords)
	binary := run(ObliviousSortRecords)
	if funnel >= binary {
		t.Errorf("funnelsort used %d I/Os, binary oblivious %d; expected funnel < binary", funnel, binary)
	}
	t.Logf("funnel=%d binary=%d (%.2fx)", funnel, binary, float64(binary)/float64(funnel))
}

func TestSortAllEqual(t *testing.T) {
	for _, s := range sorters {
		sp := newSpace()
		ext := sp.Alloc(3000)
		ext.Fill(42)
		s.fn(ext, 1, Identity)
		for i := int64(0); i < ext.Len(); i++ {
			if ext.Read(i) != 42 {
				t.Fatalf("%s: constant input corrupted", s.name)
			}
		}
	}
}

func TestSortAlreadySortedAndReversed(t *testing.T) {
	for _, s := range sorters {
		for _, reversed := range []bool{false, true} {
			sp := newSpace()
			n := int64(10000)
			ext := sp.Alloc(n)
			for i := int64(0); i < n; i++ {
				if reversed {
					ext.Write(i, uint64(n-i))
				} else {
					ext.Write(i, uint64(i))
				}
			}
			s.fn(ext, 1, Identity)
			if !IsSorted(ext, 1, Identity) {
				t.Fatalf("%s reversed=%v: not sorted", s.name, reversed)
			}
		}
	}
}

func TestIsSorted(t *testing.T) {
	sp := newSpace()
	ext := sp.Alloc(4)
	for i, v := range []uint64{1, 2, 2, 3} {
		ext.Write(int64(i), v)
	}
	if !IsSorted(ext, 1, Identity) {
		t.Error("sorted input reported unsorted")
	}
	ext.Write(3, 0)
	if IsSorted(ext, 1, Identity) {
		t.Error("unsorted input reported sorted")
	}
}

// refSortNative is the comparator sort sortNative replaced: the key is
// evaluated on both sides of every comparison.
func refSortNative(buf []extmem.Word, stride int, key Key) {
	if stride == 1 {
		sort.Slice(buf, func(i, j int) bool {
			ki, kj := key(buf[i]), key(buf[j])
			return ki < kj || (ki == kj && buf[i] < buf[j])
		})
		return
	}
	sort.Sort(&refRecSorter{buf: buf, stride: stride, key: key})
}

type refRecSorter struct {
	buf    []extmem.Word
	stride int
	key    Key
}

func (r *refRecSorter) Len() int { return len(r.buf) / r.stride }

func (r *refRecSorter) Less(i, j int) bool {
	a, b := r.buf[i*r.stride], r.buf[j*r.stride]
	ka, kb := r.key(a), r.key(b)
	return ka < kb || (ka == kb && a < b)
}

func (r *refRecSorter) Swap(i, j int) {
	for s := 0; s < r.stride; s++ {
		r.buf[i*r.stride+s], r.buf[j*r.stride+s] = r.buf[j*r.stride+s], r.buf[i*r.stride+s]
	}
}

// TestSortNativeMatchesComparatorSort checks the decorated run sort
// against the comparator sort on inputs with heavy key ties and duplicate
// first words — at stride 3 the records sharing a first word differ in
// their tails, so any change in tie order shows — and counts key
// evaluations: at most one per record.
func TestSortNativeMatchesComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, stride := range []int{1, 3} {
		for _, n := range []int{0, 1, 2, 5, 12, 13, 100, 1000, 4096} {
			for _, distinct := range []int{1, 3, 40} {
				buf := make([]extmem.Word, n*stride)
				for i := range buf {
					if i%stride == 0 {
						buf[i] = extmem.Word(rng.Intn(distinct)) << 20
					} else {
						buf[i] = rng.Uint64()
					}
				}
				want := append([]extmem.Word(nil), buf...)
				// Few distinct keys over many distinct words: key ties
				// between different words and between equal ones.
				key := func(w extmem.Word) uint64 { return (w >> 20) % 2 }
				refSortNative(want, stride, key)
				calls := 0
				sortNative(buf, stride, func(w extmem.Word) uint64 { calls++; return key(w) })
				if !slices.Equal(buf, want) {
					t.Errorf("stride %d, %d records, %d words: decorated sort differs from comparator sort", stride, n, distinct)
				}
				if calls > n {
					t.Errorf("stride %d, %d records: %d key evaluations", stride, n, calls)
				}
			}
		}
	}
}
