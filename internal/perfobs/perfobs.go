// Package perfobs stamps perf reports with their provenance: the commit and
// dirty flag they were built from, the Go version, and a fingerprint of the
// host they ran on, so a stored number names the code and machine that
// produced it. BENCH_sweep.json (leabench -json) carries this stamp. The
// sub-package perfobs/stats holds the medians, quartiles and paired verdict
// of the repository's perf gate, cmd/leaperf.
package perfobs

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Host is the machine fingerprint stamped on every report: enough to tell
// whether two reports' numbers came from comparable machines.
type Host struct {
	// OS and Arch are GOOS/GOARCH of the producing binary.
	OS   string `json:"os"`
	Arch string `json:"arch"`
	// GOMAXPROCS is the scheduler width the run used.
	GOMAXPROCS int `json:"gomaxprocs"`
	// NumCPU is the machine's logical CPU count.
	NumCPU int `json:"num_cpu"`
	// CPUModel is the model string from /proc/cpuinfo when readable, else "".
	CPUModel string `json:"cpu_model,omitempty"`
}

// Meta is the provenance block: what CollectMeta gathers once per process
// and a report copies.
type Meta struct {
	// Commit and Dirty locate the run in history ("unknown"/false when the
	// producing directory is not a git checkout).
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty"`
	// GoVersion is runtime.Version().
	GoVersion string `json:"go_version"`
	// Host fingerprints the machine.
	Host Host `json:"host_fingerprint"`
}

// CollectMeta gathers provenance for the current process: commit and dirty
// flag via git (best-effort — "unknown" and clean when git or the repo is
// unavailable), Go version from the runtime, and the host fingerprint.
func CollectMeta() Meta {
	m := Meta{
		Commit:    "unknown",
		GoVersion: runtime.Version(),
		Host: Host{
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			CPUModel:   cpuModel(),
		},
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if c := strings.TrimSpace(string(out)); c != "" {
			m.Commit = c
		}
	}
	if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
		m.Dirty = strings.TrimSpace(string(out)) != ""
	}
	return m
}

// cpuModel reads the first "model name" line from /proc/cpuinfo; "" when the
// file is unreadable (non-Linux hosts).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}
