package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// hostRecord identifies the machine, toolchain, code and inputs of a run.
type hostRecord struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Seconds       int    `json:"seconds"`
	Trace         int    `json:"trace"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	CPUModel      string `json:"cpu_model"`
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Commit        string `json:"commit"`
	SourceSHA256  string `json:"source_sha256"`
	Clients       int    `json:"clients"`
	DeadlineMs    int64  `json:"deadline_ms"`
	QueryMemLimit int64  `json:"query_memory_limit_bytes"`
}

func newHostRecord(w *workload, seed int64, seconds, trace int) hostRecord {
	return hostRecord{
		Workload:      w.name,
		Seed:          seed,
		Seconds:       seconds,
		Trace:         trace,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUModel:      cpuModel(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Commit:        commit(),
		SourceSHA256:  sourceHash("."),
		Clients:       w.clients,
		DeadlineMs:    w.deadline.Milliseconds(),
		QueryMemLimit: w.queryMem,
	}
}

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

// commit is the VCS revision the binary was built from; a tree outside
// git has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceHash fingerprints the Go sources and module files under root
// (hidden directories skipped), so runs of a tree outside git, which has no
// commit, can still be matched to their code.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// scrape reads the server's /metrics exposition into series -> value.
func scrape(addr string) (map[string]float64, error) {
	c := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// settledGoroutines reads calcite_goroutines once connection and idle
// worker goroutines have had time to exit: it polls until three reads in a
// row agree, for at most two seconds.
func settledGoroutines(addr string) (float64, error) {
	var last float64
	same := 0
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline) && same < 3; {
		time.Sleep(100 * time.Millisecond)
		m, err := scrape(addr)
		if err != nil {
			return 0, err
		}
		v := m["calcite_goroutines"]
		if v == last {
			same++
		} else {
			last, same = v, 1
		}
	}
	return last, nil
}

// cpuTicks reads the host-wide CPU time, the idle part of it (idle and
// iowait) and the part the hypervisor gave to other guests (steal) from
// /proc/stat; zeros where unavailable.
func cpuTicks() (total, idle, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user and nice.
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0, 0
		}
		total += v
		switch i {
		case 4, 5:
			idle += v
		case 8:
			steal = v
		}
	}
	return total, idle, steal
}
