package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) || lo == hi {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// vmHWM returns the peak resident set size, in MiB, of the process whose
// /proc status file is given ("/proc/self/status" or "/proc/<pid>/status").
func vmHWM(statusPath string) (float64, error) {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM in %s: %w", statusPath, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in %s", statusPath)
}

// cpuSeconds returns the user plus system CPU time of this process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// procCPUSeconds returns the user plus system CPU time, over all its
// threads, of the process with the given pid, from /proc/<pid>/stat (whose
// times are in ticks of 1/100 s on Linux).
func procCPUSeconds(pid int) (float64, error) {
	path := fmt.Sprintf("/proc/%d/stat", pid)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// The command name, field 2, may hold spaces; it ends at the last ')'.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest) // f[0] is field 3, the state
	if len(f) < 13 {
		return 0, fmt.Errorf("short %s", path)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse utime/stime in %s", path)
	}
	return (utime + stime) / 100, nil
}

// hostTicks returns the machine's steal and total CPU ticks from the first
// line of /proc/stat, or zeros where it cannot be read. Steal is the time
// the hypervisor ran something else while a virtual CPU wanted to run: it
// stretches wall-clock times but is not charged to any process.
func hostTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		if i == 8 {
			steal = v
		}
		if i <= 8 { // guest times are already counted in user and nice
			total += v
		}
	}
	return steal, total
}

// stealFrac is the share of the machine's CPU ticks stolen since the
// hostTicks reading (steal0, total0).
func stealFrac(steal0, total0 float64) float64 {
	steal, total := hostTicks()
	if total <= total0 {
		return 0
	}
	return (steal - steal0) / (total - total0)
}

// runtimeSample reads the Go runtime counters the traced runs difference:
// heap objects allocated, GC CPU seconds and total CPU seconds.
type runtimeSample struct {
	allocs        uint64
	gcCPU, allCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.allCPU = s[2].Value.Float64()
	}
	return out
}
