package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Host-noise probes. They time fixed work that shares nothing with the
// program, so whoever reads the results can tell a slow host phase
// (the VM's shared L3 under contention) from a regression. Diagnostics
// only: never gated.
const (
	aluProbeIters = 30_000_000
	// memProbeBytes is the pointer-chase working set: the size of the
	// served forest's two compiled node pools (≈760k 16-byte nodes).
	memProbeBytes = 12 << 20
	memProbeSteps = 1 << 21
)

var probeSink uint64

// aluProbe times a fixed dependent xorshift chain: pure ALU work that
// stays in registers.
func aluProbe() time.Duration {
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < aluProbeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(start)
	probeSink += x
	return d
}

// memProbe times a fixed chase through one random cycle over a 12 MB
// array: every step is a dependent load that misses L2.
func memProbe() time.Duration {
	next := make([]uint32, memProbeBytes/4)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's algorithm: a uniformly random single cycle, from a
	// fixed xorshift seed so every run chases the same path.
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	p := uint32(0)
	start := time.Now()
	for i := 0; i < memProbeSteps; i++ {
		p = next[p]
	}
	d := time.Since(start)
	probeSink += uint64(p)
	return d
}

// hostInfo describes the machine and the code under test.
type hostInfo struct {
	ALURefMS   float64
	MemRefMS   float64
	GOMAXPROCS int
	NumCPU     int
	CPUModel   string
	GoVersion  string
	Commit     string
	SourceSHA  string
}

func probeHost(root string) hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		SourceSHA:  sourceSHA(root),
	}
	h.ALURefMS = ms(aluProbe())
	h.MemRefMS = ms(memProbe())
	runtime.GC() // drop the chase array before anything is timed
	return h
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reports the VCS revision the benchmark was built from, when
// the build saw a repository.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// sourceSHA hashes the module's Go sources (go.mod and every .go file
// outside hidden, underscore and testdata directories), so a run names
// the code it measured even in a checkout without version control.
func sourceSHA(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if name == "go.mod" || strings.HasSuffix(name, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
