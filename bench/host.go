package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// host stamps a measurement with the machine and build it ran on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func hostStamp() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: childProcs,
		Go:         runtime.Version(),
		CPU:        runtime.GOARCH,
		Kernel:     runtime.GOOS,
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.Commit != "unknown" {
			h.Commit += "-dirty"
		}
	}
	return h
}

// sameMachine reports whether two stamps describe the same host and
// toolchain; the commit is what a comparison varies.
func (h host) sameMachine(o host) bool {
	h.Commit, o.Commit = "", ""
	return h == o
}

func (h host) String() string {
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d go=%s cpu=%q kernel=%s commit=%s",
		h.NProc, h.GOMAXPROCS, h.Go, h.CPU, h.Kernel, h.Commit)
}
