package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/emsort"
	"repro/internal/extmem"
)

// probeReps is how often each layer probe repeats; it reports the median.
const probeReps = 3

// fillProbe writes n words into a fresh Space at (M, B) and reads them
// back, returning the wall time in ms. With path empty the Space is
// memory-backed, otherwise file-backed at path.
func fillProbe(m, b int, n int64, path string) (float64, error) {
	cfg := extmem.Config{M: m, B: b}
	t := time.Now()
	var sp *extmem.Space
	if path == "" {
		sp = extmem.NewSpace(cfg)
	} else {
		var err error
		if sp, err = extmem.NewFileSpace(cfg, path); err != nil {
			return 0, err
		}
		defer os.Remove(path)
	}
	ext := sp.Alloc(n)
	for i := int64(0); i < n; i++ {
		ext.Write(i, extmem.Word(i)*0x9e3779b97f4a7c15)
	}
	for i := int64(0); i < n; i++ {
		if ext.Read(i) != extmem.Word(i)*0x9e3779b97f4a7c15 {
			sp.Close()
			return 0, fmt.Errorf("extmem fill probe: word %d read back wrong", i)
		}
	}
	d := time.Since(t)
	return float64(d) / 1e6, sp.Close()
}

// sortProbe sorts n seeded random words with the parallel external sort
// at (M, B, workers) and returns its wall time in ms and its block I/Os.
func sortProbe(m, b, workers int, n int64, seed uint64) (float64, uint64, error) {
	sp := extmem.NewSpace(extmem.Config{M: m, B: b})
	defer sp.Close()
	ext := sp.Alloc(n)
	x := seed | 1
	for i := int64(0); i < n; i++ {
		x = mix64(x + uint64(i))
		ext.Write(i, x)
	}
	sp.Flush()
	sp.ResetStats()
	t := time.Now()
	ws := emsort.ParallelSortRecords(ext, 1, emsort.Identity, workers)
	d := time.Since(t)
	ios := sp.Stats().IOs()
	for _, w := range ws {
		ios += w.IOs()
	}
	if !emsort.IsSorted(ext, 1, emsort.Identity) {
		return 0, 0, fmt.Errorf("emsort probe: output not sorted")
	}
	return float64(d) / 1e6, ios, nil
}

// layerProbes runs the extmem and emsort probes at a workload's machine
// and input size and adds their medians to layer.
func layerProbes(layer map[string]float64, m, b, workers int, n int64, seed uint64, tmp string) error {
	var fill, fillFile, sortMS []float64
	var sortIOs uint64
	for i := 0; i < probeReps; i++ {
		f, err := fillProbe(m, b, n, "")
		if err != nil {
			return err
		}
		ff, err := fillProbe(m, b, n, filepath.Join(tmp, "fill.probe"))
		if err != nil {
			return err
		}
		s, ios, err := sortProbe(m, b, workers, n, seed)
		if err != nil {
			return err
		}
		fill, fillFile, sortMS = append(fill, f), append(fillFile, ff), append(sortMS, s)
		sortIOs = ios
	}
	layer["extmem.fill_ms"] = median(fill)
	layer["extmem.fill_file_ms"] = median(fillFile)
	layer["emsort.sort_ms"] = median(sortMS)
	layer["emsort.sort_ios"] = float64(sortIOs)
	return nil
}

// procSample is a snapshot of process-wide counters, differenced around
// a measured loop.
type procSample struct {
	at         time.Time
	user, sys  time.Duration
	totalAlloc uint64
	pauseNs    uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		at:         time.Now(),
		user:       time.Duration(ru.Utime.Nano()),
		sys:        time.Duration(ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		pauseNs:    ms.PauseTotalNs,
	}
}

// procLayer adds the process counters of the loop between a and b, which
// ran reads read operations on workers workers.
func procLayer(layer map[string]float64, a, b procSample, reads, workers int) {
	wall := b.at.Sub(a.at).Seconds()
	cpu := (b.user - a.user + b.sys - a.sys).Seconds()
	layer["proc.cpu_user_s"] = (b.user - a.user).Seconds()
	layer["proc.cpu_sys_s"] = (b.sys - a.sys).Seconds()
	layer["trienum.cpu_util"] = cpu / (wall * float64(workers))
	if reads > 0 {
		layer["repro.alloc_mb_per_read"] = float64(b.totalAlloc-a.totalAlloc) / (1 << 20) / float64(reads)
		layer["repro.gc_pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6 / float64(reads)
	}
}

// procStatusMB reads one memory field of /proc/self/status, such as
// VmRSS (resident now) or VmHWM (peak resident), in MiB.
func procStatusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s not found in /proc/self/status", field)
}

// rssEvery is the interval at which a measured loop samples its
// resident set; rss_p90_mb is the p90 of the samples.
const rssEvery = 10 * time.Millisecond

// rssSampler samples VmRSS on its own goroutine until finish.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if mb, err := procStatusMB("VmRSS"); err == nil {
					s.mb = append(s.mb, mb)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.mb
}

// envHeader records the conditions a result was measured under.
func envHeader(w *workload, seed uint64, seconds int, workers int) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"go":            runtime.Version(),
		"cpu":           cpu,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"workers":       workers,
		"workload":      w.name,
		"seed":          seed,
		"seconds":       seconds,
		"spec":          w.spec,
		"M":             w.m,
		"B":             w.b,
	}
}

// sourceDigest hashes the Go sources and module files under root (hidden
// directories skipped), identifying the code measured when the checkout
// carries no commit.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
