package extmem

import (
	"math/bits"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func testConfig() Config { return Config{M: 1 << 12, B: 1 << 6} }

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{M: 4096, B: 64}, true},
		{Config{M: 4096, B: 63}, false}, // not a power of two
		{Config{M: 4096, B: 0}, false},  // zero block
		{Config{M: 64, B: 64}, false},   // fewer than two blocks
		{Config{M: 1024, B: 64}, false}, // tall-cache violated
		{Config{M: 1024, B: 64, AllowShortCache: true}, true},
		{Config{M: 4096, B: -64}, false},
	}
	for _, c := range cases {
		_, err := newSpace(c.cfg, newMemBackend())
		if (err == nil) != c.ok {
			t.Errorf("config %+v: err=%v, want ok=%v", c.cfg, err, c.ok)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	sp := NewSpace(testConfig())
	ext := sp.Alloc(10000)
	for i := int64(0); i < ext.Len(); i++ {
		ext.Write(i, uint64(i*i+1))
	}
	for i := int64(0); i < ext.Len(); i++ {
		if got := ext.Read(i); got != uint64(i*i+1) {
			t.Fatalf("word %d: got %d want %d", i, got, i*i+1)
		}
	}
}

func TestFreshMemoryReadsZero(t *testing.T) {
	sp := NewSpace(testConfig())
	ext := sp.Alloc(1000)
	for i := int64(0); i < ext.Len(); i++ {
		if got := ext.Read(i); got != 0 {
			t.Fatalf("fresh word %d: got %d want 0", i, got)
		}
	}
}

func TestSequentialScanCost(t *testing.T) {
	cfg := testConfig()
	sp := NewSpace(cfg)
	n := int64(100 * cfg.B)
	ext := sp.Alloc(n)
	for i := int64(0); i < n; i++ {
		ext.Write(i, uint64(i))
	}
	sp.DropCache()
	sp.ResetStats()
	for i := int64(0); i < n; i++ {
		ext.Read(i)
	}
	st := sp.Stats()
	wantReads := uint64(n) / uint64(cfg.B)
	if st.BlockReads != wantReads {
		t.Errorf("sequential scan of %d words: %d block reads, want %d", n, st.BlockReads, wantReads)
	}
	if st.BlockWrites != 0 {
		t.Errorf("read-only scan caused %d block writes", st.BlockWrites)
	}
}

func TestWriteOnlyScanCostsNoReads(t *testing.T) {
	cfg := testConfig()
	sp := NewSpace(cfg)
	n := int64(64 * cfg.B)
	ext := sp.Alloc(n)
	sp.ResetStats()
	for i := int64(0); i < n; i++ {
		ext.Write(i, uint64(i))
	}
	sp.Flush()
	st := sp.Stats()
	if st.BlockReads != 0 {
		t.Errorf("writing fresh extent caused %d block reads (virgin blocks should not be fetched)", st.BlockReads)
	}
	wantWrites := uint64(n) / uint64(cfg.B)
	if st.BlockWrites != wantWrites {
		t.Errorf("flush wrote %d blocks, want %d", st.BlockWrites, wantWrites)
	}
}

func TestWorkingSetWithinMemoryIsFreeAfterLoad(t *testing.T) {
	cfg := testConfig()
	sp := NewSpace(cfg)
	n := int64(cfg.M / 2)
	ext := sp.Alloc(n)
	for i := int64(0); i < n; i++ {
		ext.Write(i, uint64(i))
	}
	sp.DropCache()
	sp.ResetStats()
	rng := rand.New(rand.NewSource(7))
	// Random access within a working set smaller than M: after the first
	// pass, everything is resident and misses stop.
	for pass := 0; pass < 20; pass++ {
		for k := 0; k < 1000; k++ {
			ext.Read(rng.Int63n(n))
		}
	}
	st := sp.Stats()
	maxReads := uint64(n)/uint64(cfg.B) + 1
	if st.BlockReads > maxReads {
		t.Errorf("working set < M incurred %d reads, want <= %d", st.BlockReads, maxReads)
	}
}

func TestThrashingBeyondMemory(t *testing.T) {
	cfg := Config{M: 1 << 12, B: 1 << 6}
	sp := NewSpace(cfg)
	n := int64(4 * cfg.M)
	ext := sp.Alloc(n)
	for i := int64(0); i < n; i++ {
		ext.Write(i, 1)
	}
	sp.DropCache()
	sp.ResetStats()
	// Cyclic scans over 4M words under LRU miss on every block, every pass.
	passes := 5
	for p := 0; p < passes; p++ {
		for i := int64(0); i < n; i += int64(cfg.B) {
			ext.Read(i)
		}
	}
	st := sp.Stats()
	want := uint64(passes) * uint64(n) / uint64(cfg.B)
	if st.BlockReads != want {
		t.Errorf("cyclic thrash: %d reads, want %d", st.BlockReads, want)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	cfg := Config{M: 4 * 64, B: 64, AllowShortCache: true} // 4 frames
	sp := NewSpace(cfg)
	ext := sp.Alloc(int64(10 * cfg.B))
	for i := int64(0); i < ext.Len(); i++ {
		ext.Write(i, 1)
	}
	sp.DropCache()
	sp.ResetStats()
	b := int64(cfg.B)
	ext.Read(0 * b) // blocks 0..3 resident
	ext.Read(1 * b)
	ext.Read(2 * b)
	ext.Read(3 * b)
	ext.Read(0 * b) // touch 0: LRU order now 1,2,3,0
	ext.Read(4 * b) // evicts 1
	if !sp.Resident(ext.Base() + 0*b) {
		t.Error("block 0 should be resident (recently touched)")
	}
	if sp.Resident(ext.Base() + 1*b) {
		t.Error("block 1 should have been evicted as LRU")
	}
	ext.Read(1 * b) // miss
	st := sp.Stats()
	if st.BlockReads != 6 {
		t.Errorf("got %d block reads, want 6", st.BlockReads)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := Config{M: 2 * 64, B: 64, AllowShortCache: true} // 2 frames
	sp := NewSpace(cfg)
	ext := sp.Alloc(int64(8 * cfg.B))
	ext.Write(0, 42)
	// Touch enough other blocks to evict block 0.
	for blk := int64(1); blk < 8; blk++ {
		ext.Write(blk*int64(cfg.B), uint64(blk))
	}
	if got := ext.Read(0); got != 42 {
		t.Fatalf("after eviction round trip got %d want 42", got)
	}
	st := sp.Stats()
	if st.BlockWrites == 0 {
		t.Error("dirty evictions should count block writes")
	}
}

func TestLeaseShrinksCache(t *testing.T) {
	cfg := Config{M: 8 * 64, B: 64, AllowShortCache: true} // 8 frames
	sp := NewSpace(cfg)
	n := int64(8 * cfg.B)
	ext := sp.Alloc(n)
	for i := int64(0); i < n; i++ {
		ext.Write(i, 1)
	}
	sp.DropCache()
	// Lease 6 blocks worth: only 2 frames remain.
	release := sp.Lease(6 * cfg.B)
	sp.ResetStats()
	b := int64(cfg.B)
	ext.Read(0)
	ext.Read(1 * b)
	ext.Read(2 * b) // evicts 0
	ext.Read(0)     // miss again
	if st := sp.Stats(); st.BlockReads != 4 {
		t.Errorf("with shrunken cache got %d reads, want 4", st.BlockReads)
	}
	release()
	if sp.Leased() != 0 {
		t.Errorf("lease not returned: %d", sp.Leased())
	}
	// Double release is a no-op.
	release()
	if sp.Leased() != 0 {
		t.Errorf("double release changed lease: %d", sp.Leased())
	}
}

func TestLeaseOverflowPanics(t *testing.T) {
	sp := NewSpace(testConfig())
	defer func() {
		if recover() == nil {
			t.Error("expected panic when leasing more than M")
		}
	}()
	sp.Lease(sp.Config().M)
}

func TestPeakLeaseTracking(t *testing.T) {
	sp := NewSpace(testConfig())
	r1 := sp.Lease(100)
	r2 := sp.Lease(200)
	r2()
	r1()
	if got := sp.Stats().PeakLease; got != 300 {
		t.Errorf("PeakLease = %d, want 300", got)
	}
}

func TestMarkRelease(t *testing.T) {
	sp := NewSpace(testConfig())
	a := sp.Alloc(1000)
	a.Fill(7)
	mark := sp.Mark()
	b := sp.Alloc(5000)
	b.Fill(9)
	sp.Release(mark)
	if sp.Size() != mark {
		t.Fatalf("size after release = %d, want %d", sp.Size(), mark)
	}
	c := sp.Alloc(5000)
	for i := int64(0); i < c.Len(); i++ {
		if got := c.Read(i); got != 0 {
			t.Fatalf("reallocated word %d = %d, want 0 (fresh)", i, got)
		}
	}
	for i := int64(0); i < a.Len(); i++ {
		if got := a.Read(i); got != 7 {
			t.Fatalf("surviving extent word %d = %d, want 7", i, got)
		}
	}
}

func TestExtentSliceBounds(t *testing.T) {
	sp := NewSpace(testConfig())
	ext := sp.Alloc(100)
	s := ext.Slice(10, 60)
	if s.Len() != 50 {
		t.Fatalf("slice len %d want 50", s.Len())
	}
	s.Write(0, 5)
	if ext.Read(10) != 5 {
		t.Error("slice write did not alias parent")
	}
	for _, bad := range [][2]int64{{-1, 10}, {5, 101}, {60, 50}} {
		func() {
			defer func() { recover() }()
			ext.Slice(bad[0], bad[1])
			t.Errorf("Slice(%d,%d) should panic", bad[0], bad[1])
		}()
	}
}

func TestExtentOutOfRangePanics(t *testing.T) {
	sp := NewSpace(testConfig())
	ext := sp.Alloc(10)
	for _, i := range []int64{-1, 10, 100} {
		func() {
			defer func() { recover() }()
			ext.Read(i)
			t.Errorf("Read(%d) should panic", i)
		}()
	}
}

func TestLoadStoreCopy(t *testing.T) {
	sp := NewSpace(testConfig())
	src := sp.Alloc(256)
	for i := int64(0); i < 256; i++ {
		src.Write(i, uint64(i)*3)
	}
	buf := make([]Word, 256)
	src.Load(buf)
	for i, w := range buf {
		if w != uint64(i)*3 {
			t.Fatalf("Load[%d]=%d", i, w)
		}
	}
	dst := sp.Alloc(256)
	src.CopyTo(dst)
	for i := int64(0); i < 256; i++ {
		if dst.Read(i) != uint64(i)*3 {
			t.Fatalf("CopyTo[%d]", i)
		}
	}
	dst2 := sp.Alloc(300)
	dst2.Store(buf)
	if dst2.Read(255) != 255*3 {
		t.Error("Store mismatch")
	}
}

func TestFileBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.bin")
	sp, err := NewFileSpace(Config{M: 1 << 10, B: 1 << 5}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	n := int64(10000)
	ext := sp.Alloc(n)
	for i := int64(0); i < n; i++ {
		ext.Write(i, uint64(i)^0xdeadbeef)
	}
	sp.DropCache() // forces write-back through the file
	for i := int64(0); i < n; i += 97 {
		if got := ext.Read(i); got != uint64(i)^0xdeadbeef {
			t.Fatalf("file round trip word %d: got %d", i, got)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestStatsReset(t *testing.T) {
	sp := NewSpace(testConfig())
	ext := sp.Alloc(int64(10 * sp.Config().B))
	ext.Fill(1)
	sp.ResetStats()
	if io := sp.Stats().IOs(); io != 0 {
		t.Errorf("after reset IOs=%d", io)
	}
}

// Property: the simulated space behaves exactly like a flat array under any
// mix of word accesses, Mark/Release/re-Alloc, Lease, DropCache and Flush
// (the cache is transparent). After every operation the whole allocated
// region matches the reference — so words re-allocated after a Release
// read zero — the blocks Resident reports are exactly the occupied frames,
// never more than the frame budget, and a write to a block of a fresh
// extent that nothing has touched yet costs no block read.
func TestQuickTransparency(t *testing.T) {
	prop := func(ops []uint32, seed int64) bool {
		cfg := Config{M: 1 << 9, B: 1 << 4, AllowShortCache: true} // 32 frames
		sp := NewSpace(cfg)
		b := int64(cfg.B)
		var (
			ref       []Word  // ref[a] is the word at address a, for a < sp.Size()
			marks     []int64 // open Mark()s, innermost last
			top       Extent  // the most recent allocation
			leases    []func()
			untouched = map[int64]bool{} // blocks of fresh extents no access has reached
			maxBlocks int64
		)
		alloc := func(n int64) {
			top = sp.Alloc(n)
			ref = append(ref, make([]Word, sp.Size()-int64(len(ref)))...)
			for blk := top.Base() / b; blk*b < sp.Size(); blk++ {
				untouched[blk] = true
			}
			maxBlocks = max(maxBlocks, (sp.Size()+b-1)/b)
		}
		alloc(2048)
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			arg := int64(op >> 5)
			addr := arg % sp.Size()
			if op&16 != 0 && top.Len() > 0 {
				addr = top.Base() + arg%top.Len()
			}
			switch op % 10 {
			case 0, 1, 2:
				reads := sp.Stats().BlockReads
				v := rng.Uint64()
				sp.Write(addr, v)
				ref[addr] = v
				if untouched[addr/b] && sp.Stats().BlockReads != reads {
					t.Logf("first write to fresh block %d cost a block read", addr/b)
					return false
				}
				delete(untouched, addr/b)
			case 3, 4:
				if got := sp.Read(addr); got != ref[addr] {
					t.Logf("Read(%d) = %d, want %d", addr, got, ref[addr])
					return false
				}
				delete(untouched, addr/b)
			case 5:
				marks = append(marks, sp.Mark())
				alloc(arg%300 + 1)
			case 6:
				if len(marks) == 0 {
					continue
				}
				mark := marks[len(marks)-1]
				marks = marks[:len(marks)-1]
				sp.Release(mark)
				// The block holding the mark survives, alignment padding
				// above the mark included.
				ref = ref[:min(int64(len(ref)), (mark+b-1)/b*b)]
				for blk := range untouched {
					if blk*b >= mark {
						delete(untouched, blk)
					}
				}
				top = Extent{}
			case 7:
				if arg&1 == 0 || len(leases) == 0 {
					leases = append(leases, sp.LeaseAtMost(int(arg%int64(cfg.M/2))))
				} else {
					leases[len(leases)-1]()
					leases = leases[:len(leases)-1]
				}
			case 8:
				if arg&1 == 0 {
					sp.DropCache()
				} else {
					sp.Flush()
				}
			case 9:
				for a := int64(0); a < sp.Size(); a++ {
					if got := sp.Read(a); got != ref[a] {
						t.Logf("scan: Read(%d) = %d, want %d", a, got, ref[a])
						return false
					}
				}
				clear(untouched)
			}
			if !checkSpace(t, sp, ref, maxBlocks) {
				return false
			}
		}
		for a := int64(0); a < sp.Size(); a++ {
			if sp.Read(a) != ref[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// checkSpace compares every allocated word of sp with ref without
// touching the cache, the LRU order or the counters, and checks that the
// blocks Resident reports are exactly the occupied frames, within the
// frame budget and below the allocation watermark.
func checkSpace(t *testing.T, sp *Space, ref []Word, maxBlocks int64) bool {
	t.Helper()
	b := int64(sp.cfg.B)
	buf := make([]Word, b)
	for blk := int64(0); blk*b < sp.Size(); blk++ {
		switch e := sp.entry(blk); {
		case e >= 0:
			copy(buf, sp.data[int64(e)*b:])
		case e == virginBlock || e == zeroBlock:
			clear(buf)
		default:
			if err := sp.backend.ReadBlock(blk, buf); err != nil {
				t.Logf("backend read %d: %v", blk, err)
				return false
			}
		}
		for i, w := range buf {
			if a := blk*b + int64(i); a < sp.Size() && w != ref[a] {
				t.Logf("word %d holds %d, want %d", a, w, ref[a])
				return false
			}
		}
	}
	occupied := 0
	for _, fr := range sp.frames {
		if fr.block >= 0 {
			occupied++
			if !sp.Resident(fr.block * b) {
				t.Logf("frame holds block %d but Resident denies it", fr.block)
				return false
			}
		}
	}
	resident := 0
	for blk := int64(0); blk < maxBlocks; blk++ {
		if sp.Resident(blk * b) {
			resident++
			if blk*b >= sp.Size() {
				t.Logf("block %d resident above the watermark %d", blk, sp.Size())
				return false
			}
		}
	}
	if resident != occupied || resident > sp.capFrames {
		t.Logf("Resident counts %d blocks, frames hold %d, budget %d", resident, occupied, sp.capFrames)
		return false
	}
	return true
}

// Writing N consecutive blocks through a memory-backed Space grows the
// store O(log N) times, not once per block, and a gap below a far write
// reads as zero.
func TestMemBackendGrowsGeometrically(t *testing.T) {
	cfg := Config{M: 4 * 16, B: 16, AllowShortCache: true} // 4 frames
	sp := NewSpace(cfg)
	be := sp.backend.(*memBackend)
	b := int64(cfg.B)
	const blocks = 1 << 12
	ext := sp.Alloc(blocks * b)
	reallocs, lastCap := 0, cap(be.words)
	for blk := int64(0); blk < blocks; blk++ {
		ext.Write(blk*b, Word(blk)+1) // evicts, and writes back, a dirty block
		if c := cap(be.words); c != lastCap {
			reallocs++
			lastCap = c
		}
	}
	sp.Flush()
	if c := cap(be.words); c != lastCap {
		reallocs++
	}
	if limit := 4 * bits.Len(blocks); reallocs > limit {
		t.Errorf("writing %d blocks reallocated the store %d times, want <= %d", blocks, reallocs, limit)
	}
	sp.DropCache()
	for blk := int64(0); blk < blocks; blk++ {
		if got := ext.Read(blk * b); got != Word(blk)+1 {
			t.Fatalf("block %d reads %d after write-back, want %d", blk, got, blk+1)
		}
	}

	// A far write leaves a gap of never-written blocks in the store.
	far := sp.Alloc(64 * b)
	far.Write(far.Len()-1, 7)
	sp.Flush()
	buf := make([]Word, b)
	for blk := ext.Len() / b; blk < (far.Base()+far.Len())/b-1; blk++ {
		buf[0] = 1
		if err := be.ReadBlock(blk, buf); err != nil {
			t.Fatal(err)
		}
		for i, w := range buf {
			if w != 0 {
				t.Fatalf("gap block %d word %d reads %d, want 0", blk, i, w)
			}
		}
	}
}

// Property: LRU miss counts match a straightforward reference simulation.
func TestQuickLRUMatchesReference(t *testing.T) {
	prop := func(accesses []uint16) bool {
		cfg := Config{M: 8 * 16, B: 16, AllowShortCache: true} // 8 frames
		sp := NewSpace(cfg)
		const n = 64 * 16
		ext := sp.Alloc(n)
		for i := int64(0); i < n; i++ {
			ext.Write(i, 1)
		}
		sp.DropCache()
		sp.ResetStats()
		// Reference LRU.
		type ref struct{ blocks []int64 }
		var r ref
		misses := uint64(0)
		touch := func(b int64) {
			for i, x := range r.blocks {
				if x == b {
					r.blocks = append(append(append([]int64{}, r.blocks[:i]...), r.blocks[i+1:]...), b)
					return
				}
			}
			misses++
			r.blocks = append(r.blocks, b)
			if len(r.blocks) > 8 {
				r.blocks = r.blocks[1:]
			}
		}
		for _, a := range accesses {
			addr := int64(a) % n
			ext.Read(addr)
			touch(addr / 16)
		}
		return sp.Stats().BlockReads == misses
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
