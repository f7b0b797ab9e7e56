package perf

import (
	"runtime"
	"syscall"
	"time"
)

// procSample is a point-in-time reading of what the process has spent:
// CPU from getrusage, allocation and GC figures from the Go runtime.
type procSample struct {
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	gcPauseNS uint64
	maxRSSKB  int64
}

func readProc() procSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
	// reading would only zero the CPU metric.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   ms.Mallocs,
		bytes:     ms.TotalAlloc,
		gcPauseNS: ms.PauseTotalNs,
		maxRSSKB:  ru.Maxrss,
	}
}

// cpuTime reads only the process CPU clock: cheap enough to bracket a
// timed window without a stop-the-world ReadMemStats inside it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procMetrics turns a before/after pair into the proc.* layer metrics,
// per completed operation.
func procMetrics(before, after procSample, ops int64) Values {
	if ops < 1 {
		ops = 1
	}
	return Values{
		"proc.allocs_per_launch": float64(after.mallocs-before.mallocs) / float64(ops),
		"proc.bytes_per_launch":  float64(after.bytes-before.bytes) / float64(ops),
		"proc.gc_pause_ms":       float64(after.gcPauseNS-before.gcPauseNS) / 1e6,
		"proc.peak_rss_mb":       float64(after.maxRSSKB) / 1024,
	}
}
