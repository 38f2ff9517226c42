package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// loadThreads is the benchmark's fixed load shape: GOMAXPROCS and the most
// load-generating goroutines or connections any workload uses. A box with
// fewer usable CPUs would time-slice them and measure oversubscription (the
// fault of the committed BENCH_*.json seeds), so the benchmark refuses.
const loadThreads = 2

// envInfo is recorded with every result so a number can be traced to the
// hardware and toolchain that produced it (ROADMAP 1a).
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

func checkCPUs() error {
	if n := runtime.NumCPU(); n < loadThreads {
		return fmt.Errorf("invalid: threads > usable CPUs (%d load threads, %d usable)", loadThreads, n)
	}
	return nil
}

func readEnv() envInfo {
	return envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
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

// gitCommit reports the commit the binary was built from, from the VCS stamp
// go build adds inside a repository; "unknown" in a bare checkout.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs returns the cumulative heap allocation count. ReadMemStats stops
// the world for tens of microseconds, so callers use it only at window
// boundaries.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapInuseAfterGC collects twice (the second pass frees what finalizers
// and the first sweep released) and returns HeapInuse.
func heapInuseAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}
