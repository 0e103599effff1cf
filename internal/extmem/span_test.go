package extmem

import (
	"fmt"
	"slices"
	"testing"
)

// spanScan reads ext through Span, charging the words it consumes, and
// returns them.
func spanScan(ext Extent) []Word {
	var out []Word
	for i := int64(0); i < ext.Len(); {
		s := ext.Span(i)
		out = append(out, s...)
		i += int64(len(s))
	}
	ext.Space().CountReads(ext.Len())
	return out
}

// loadScan reads ext with Load.
func loadScan(ext Extent) []Word {
	out := make([]Word, ext.Len())
	ext.Load(out)
	return out
}

// readScan reads ext one word at a time.
func readScan(ext Extent) []Word {
	out := make([]Word, ext.Len())
	for i := range out {
		out[i] = ext.Read(int64(i))
	}
	return out
}

// spanLayout builds a Space and an extent on it, from a cold cache with
// zeroed stats. Called twice per case, it must build the same state.
type spanLayout func(cfg Config) (*Space, Extent)

// spanLayouts are the extents TestSpanMatchesReads scans: unaligned bases
// and lengths over a plain Space, and session extents that lie in the
// core, in the scratch, or straddle the boundary between them.
func spanLayouts(t *testing.T) map[string]spanLayout {
	out := map[string]spanLayout{}
	for _, lo := range []int64{0, 1, 15, 16, 17, 40} {
		for _, n := range []int64{1, 15, 16, 17, 100, 700} {
			out[fmt.Sprintf("plain/lo=%d/n=%d", lo, n)] = func(cfg Config) (*Space, Extent) {
				sp := NewSpace(cfg)
				ext := sp.Alloc(800)
				for i := int64(0); i < ext.Len(); i++ {
					ext.Write(i, Word(i)*2654435761+3)
				}
				sp.Flush()
				sp.DropCache()
				sp.ResetStats()
				return sp, ext.Slice(lo, lo+n)
			}
		}
	}
	session := func(lo, n int64) spanLayout {
		return func(cfg Config) (*Space, Extent) {
			core := make([]Word, 8*cfg.B)
			for i := range core {
				core[i] = Word(i)*40503 + 11
			}
			sp, err := NewSessionSpace(cfg, WordsCore(core), int64(len(core)), "")
			if err != nil {
				t.Fatal(err)
			}
			scratch := sp.Alloc(300)
			for i := int64(0); i < scratch.Len(); i++ {
				scratch.Write(i, ^Word(i))
			}
			sp.Flush()
			sp.DropCache()
			sp.ResetStats()
			return sp, sp.ExtentAt(lo, n)
		}
	}
	// The core is 8 blocks of 16 words: [0, 128).
	out["session/core"] = session(5, 100)
	out["session/scratch"] = session(130, 250)
	out["session/straddle"] = session(100, 200)
	out["session/straddle-aligned"] = session(112, 32)
	return out
}

// TestSpanMatchesReads checks Extent.Span, and Load which reads through
// it, against per-word Read: the spans of an extent, concatenated, are its
// words, simulated and native; and on a simulated Space a span scan
// charged with CountReads leaves the same Stats and the same resident
// blocks as the per-word loop.
func TestSpanMatchesReads(t *testing.T) {
	sim := Config{M: 1 << 8, B: 1 << 4}
	nat := sim
	nat.Native = true
	scans := map[string]func(Extent) []Word{"span": spanScan, "load": loadScan}
	for name, layout := range spanLayouts(t) {
		for _, cfg := range []Config{sim, nat} {
			for scan, fn := range scans {
				label := fmt.Sprintf("%s/%s/native=%v", name, scan, cfg.Native)
				spS, extS := layout(cfg)
				spR, extR := layout(cfg)
				got, want := fn(extS), readScan(extR)
				if !slices.Equal(got, want) {
					t.Errorf("%s: scan differs from per-word reads", label)
					continue
				}
				if st, ref := spS.Stats(), spR.Stats(); st != ref {
					t.Errorf("%s: stats %+v, per-word %+v", label, st, ref)
				}
				for a := int64(0); a < spR.Size(); a += int64(cfg.B) {
					if spS.Resident(a) != spR.Resident(a) {
						t.Errorf("%s: block at %d resident=%v, per-word %v", label, a, spS.Resident(a), spR.Resident(a))
					}
				}
			}
		}
	}
}

// TestSpanBlockBounded pins the span lengths: on a simulated Space a span
// ends at its block boundary or at the end of the extent, and on a native
// Space it runs to the end of the extent.
func TestSpanBlockBounded(t *testing.T) {
	sim := Config{M: 1 << 8, B: 1 << 4}
	sp := NewSpace(sim)
	ext := sp.Alloc(100).Slice(3, 90)
	if n := len(ext.Span(0)); n != 13 {
		t.Errorf("simulated span at 0 has %d words, want 13", n)
	}
	if n := len(ext.Span(80)); n != 7 {
		t.Errorf("simulated span at 80 has %d words, want 7", n)
	}
	nat := sim
	nat.Native = true
	sp = NewSpace(nat)
	ext = sp.Alloc(100).Slice(3, 90)
	if n := len(ext.Span(10)); n != 77 {
		t.Errorf("native span at 10 has %d words, want 77", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("span past the extent did not panic")
		}
	}()
	ext.Span(ext.Len())
}
