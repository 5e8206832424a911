package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

// cpuTicks is the machine-wide CPU time split of /proc/stat.
type cpuTicks struct{ total, steal float64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i >= 8 { // guest time is already counted in user
			break
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealFrac is the share of CPU time the host took between a and b.
func stealFrac(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// selfCPUSeconds is the CPU time this process has used.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
