package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"fastmm"
	"fastmm/internal/stream"
)

// fingerprint identifies the machine and toolchain a run measured on, with
// the STREAM triad bandwidth measured in the same run.
type fingerprint struct {
	CPU         string   `json:"cpu"`
	ISA         []string `json:"isa"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	LeafBackend string   `json:"leaf_backend"`
	LLCBytes    int64    `json:"llc_bytes"`
	// StreamArrayBytes is the size of each of the three triad arrays: at
	// least four times the last-level cache, so the triad streams from DRAM.
	StreamArrayBytes int64   `json:"stream_array_bytes"`
	TriadGBps1W      float64 `json:"triad_gbps_1w"`
	TriadGBps2W      float64 `json:"triad_gbps_2w"`
}

// fallbackLLC is assumed when the cache size cannot be read.
const fallbackLLC = 32 << 20

func takeFingerprint() fingerprint {
	fp := fingerprint{
		CPU:         "unknown",
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		LeafBackend: fastmm.DefaultLeafBackend(),
		LLCBytes:    lastLevelCache(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			key, val, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			switch {
			case key == "model name" && fp.CPU == "unknown":
				fp.CPU = val
			case key == "flags" && fp.ISA == nil:
				fp.ISA = []string{}
				for _, fl := range strings.Fields(val) {
					if fl == "avx2" || fl == "fma" || fl == "avx512f" {
						fp.ISA = append(fp.ISA, fl)
					}
				}
			}
		}
		f.Close()
	}
	n := int(4 * fp.LLCBytes / 8)
	fp.StreamArrayBytes = int64(n) * 8
	fp.TriadGBps1W = stream.Run(stream.Triad, n, 1, 3).GBps
	debug.FreeOSMemory()
	fp.TriadGBps2W = stream.Run(stream.Triad, n, workers, 3).GBps
	debug.FreeOSMemory()
	return fp
}

// lastLevelCache reads the largest cache size the kernel reports for CPU 0.
func lastLevelCache() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best int64
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	if best == 0 {
		return fallbackLLC
	}
	return best
}
