package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// fingerprint describes the host and the code a result was measured on:
// CPUs, GOMAXPROCS, CPU model, the cache levels sysfs reports for cpu0,
// the Go version, and the git commit when the checkout is a git work
// tree. A checkout without .git is identified by a digest of its Go
// sources instead.
func fingerprint(root string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"caches":     cacheLevels(),
		"go":         runtime.Version(),
		"git_commit": gitCommit(root),
		"src_sha256": sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// cacheLevels lists cpu0's caches as "L<level> <type> <size> shared by
// <cpus>", e.g. "L2 Unified 2048K shared by 0".
func cacheLevels() []string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var out []string
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		out = append(out, "L"+read("level")+" "+read("type")+" "+read("size")+" shared by "+read("shared_cpu_list"))
	}
	return out
}

func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return ""
}

// sourceDigest hashes go.mod files and Go sources under root, by path
// and content, skipping hidden directories such as .git and .bench_build.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the peak resident memory of this process, or of the
// largest tracesim child, in MB. RUSAGE_CHILDREN is not used: run.sh
// execs this program, so it would count the go build that preceded it.
func (e *env) peakRSSMB() float64 {
	var self syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	return float64(max(self.Maxrss, e.childRSS)) / 1024 // Maxrss is in KB on Linux
}
